import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmr import (
    FormatError,
    IdentityCover,
    IdentitySubmatrix,
    JobSpec,
    ReduceAssignment,
    ShuffleError,
    Transmission,
    fano_matrix,
    man_cover,
    man_matrix,
    measured_load,
    run_map_phase,
    run_pipeline,
    run_reduce,
    run_shuffle,
    round_for_member,
    search_cover,
    synth_map,
)
from codedmr.shuffle import (
    ShuffleTranscript,
    default_plan,
    load_transcript,
    make_subfile,
    save_transcript,
)


def fano_spec(Q=7, T=16, seed=0):
    m = fano_matrix()
    return JobSpec(m, search_cover(m, 3, mode="exact"), Q, T, file_seed=seed)


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


class TestSynthMap:
    def test_deterministic(self):
        sub = make_subfile(0, "127", 64)
        assert synth_map(3, "127", sub, 16) == synth_map(3, "127", sub, 16)

    def test_distinct_across_a_fixed_corpus(self):
        sub = make_subfile(0, "127", 64)
        other = make_subfile(0, "145", 64)
        seen = set()
        for q in range(1, 21):
            for f, s in (("127", sub), ("145", other)):
                seen.add(synth_map(q, f, s, 16))
        assert len(seen) == 40   # no collisions on the corpus

    def test_length_contract(self):
        sub = make_subfile(1, "x", 8)
        assert len(synth_map(1, "x", sub, 1)) == 1
        assert len(synth_map(1, "x", sub, 200)) == 200


class TestMapPhase:
    def test_fano_server1_holds_56_values(self):
        spec = fano_spec(Q=14)
        states = run_map_phase(spec)
        mapped = states["1"].mapped
        assert int(mapped.sum()) * spec.num_functions == 4 * 14
        held = {spec.matrix.cols[j] for j in np.flatnonzero(mapped)}
        assert held == {"467", "256", "357", "234"}

    def test_r_K_minus_1_misses_one_subfile_per_server(self):
        m = man_matrix(4, 3)
        spec = JobSpec(m, man_cover(m), 4, 4)
        states = run_map_phase(spec)
        for k in m.rows:
            missing = {f for j, f in enumerate(m.cols) if not states[k].mapped[j]}
            assert len(missing) == 1

    def test_man_5_2_counts(self):
        m = man_matrix(5, 2)
        spec = JobSpec(m, man_cover(m), 5, 4)
        states = run_map_phase(spec)
        for k in m.rows:
            # C(4,1) subfiles x Q
            assert int(states[k].mapped.sum()) * spec.num_functions == 4 * 5


class TestRoundForMember:
    def test_worked_example_with_strided_duties(self):
        # member rows (3,5,7) matched with (234,256,127); Q=14 with the
        # strided duty assignment W_3={3,10}, W_5={5,12}, W_7={7,14}
        spec = fano_spec(Q=14, T=8)
        member = IdentitySubmatrix(("3", "5", "7"), ("234", "256", "127"))
        spec = dataclasses.replace(spec, cover=IdentityCover((member, member)))
        duties = ReduceAssignment({k: (int(k), int(k) + 7) for k in spec.matrix.rows})
        states = run_map_phase(spec)
        tx_coded, tx_uncoded = round_for_member(spec, 0, duties, states, "3", "5")

        sub = {f: make_subfile(0, f, 64) for f in spec.matrix.cols}
        iva = lambda q, f: synth_map(q, f, sub[f], 8)
        assert tx_coded.payload == (
            _xor(iva(5, "256"), iva(7, "127")) + _xor(iva(12, "256"), iva(14, "127"))
        )
        assert tx_uncoded.payload == iva(3, "234") + iva(10, "234")
        # server 7 cancels its locally mapped values of 256 to decode 127;
        # received rows follow the duty order
        col = spec.matrix.col_index
        assert states["7"].received[col("127")].tobytes() == iva(7, "127") + iva(14, "127")
        assert states["5"].received[col("256")][0].tobytes() == iva(5, "256")
        assert states["3"].received[col("234")][0].tobytes() == iva(3, "234")

    def test_size_two_member_degenerates_to_uncoded(self):
        m = man_matrix(3, 1)
        cover = man_cover(m)
        spec = JobSpec(m, cover, 3, 4)
        duties = ReduceAssignment.block_partition(m.rows, 3)
        states = run_map_phase(spec)
        member = cover.members[0]
        tx_coded, _ = round_for_member(
            spec, 0, duties, states, member.rows[0], member.rows[1]
        )
        other = member.rows[1]
        f_other = member.cols[1]
        q_other = duties.duties[other][0]
        sub = make_subfile(0, f_other, 64)
        assert tx_coded.payload == synth_map(q_other, f_other, sub, 4)

    def test_senders_must_differ_and_belong(self):
        spec = fano_spec()
        duties = ReduceAssignment.block_partition(spec.matrix.rows, 7)
        states = run_map_phase(spec)
        member = spec.cover.members[0]
        with pytest.raises(ShuffleError):
            round_for_member(spec, 0, duties, states, member.rows[0], member.rows[0])
        outsider = next(k for k in spec.matrix.rows if k not in member.rows)
        with pytest.raises(ShuffleError):
            round_for_member(spec, 0, duties, states, member.rows[0], outsider)

    def test_missing_mapped_value_signals_inconsistency(self):
        spec = fano_spec()
        duties = ReduceAssignment.block_partition(spec.matrix.rows, 7)
        member = spec.cover.members[0]
        states = run_map_phase(spec, subfile_filter={member.rows[0]: set()})
        with pytest.raises(ShuffleError, match="lacks mapped value"):
            round_for_member(spec, 0, duties, states, member.rows[0], member.rows[1])


class TestRunShuffle:
    def test_fano_transcript_counts_and_load(self):
        spec = fano_spec(Q=7, T=16)
        result = run_pipeline(spec)
        assert len(result.transcript.transmissions) == 14
        assert result.transcript.total_bits == 2 * 7 * 1 * 16 * 8 == 1792
        assert result.load == Fraction(2, 7)

    def test_man_5_2(self):
        m = man_matrix(5, 2)
        spec = JobSpec(m, man_cover(m), 5, 8)
        result = run_pipeline(spec)
        assert len(result.transcript.transmissions) == 20
        assert result.load == Fraction(2, 5)

    def test_man_7_4(self):
        m = man_matrix(7, 4)
        spec = JobSpec(m, man_cover(m), 7, 4)
        assert run_pipeline(spec).load == Fraction(6, 35)

    def test_broken_cover_rejected_before_any_transmission(self):
        spec = fano_spec()
        broken = dataclasses.replace(spec, cover=IdentityCover(spec.cover.members[:-1]))
        duties = ReduceAssignment.block_partition(spec.matrix.rows, 7)
        states = run_map_phase(broken)
        with pytest.raises(ShuffleError, match="cover failed verification"):
            run_shuffle(broken, duties, states)

    def test_payload_lengths_are_beta_T(self):
        spec = fano_spec(Q=14, T=5)
        result = run_pipeline(spec)
        assert all(len(tx.payload) == 2 * 5 for tx in result.transcript.transmissions)

    def test_jobspec_validates_q(self):
        m = fano_matrix()
        cover = search_cover(m, 3, mode="exact")
        with pytest.raises(ValueError):
            JobSpec(m, cover, 8, 4)    # not a multiple of K
        with pytest.raises(ValueError):
            JobSpec(m, cover, 0, 4)


class TestRunReduce:
    def test_full_pipeline_matches_oracle(self):
        result = run_pipeline(fano_spec(Q=14, T=8))
        assert result.reduce_result.ok
        assert len(result.reduce_result.outputs) == 14

    def test_q_equals_k_beta_one(self):
        result = run_pipeline(fano_spec(Q=7, T=8))
        assert result.reduce_result.ok
        assert len(result.reduce_result.outputs) == 7

    def test_corrupted_coded_payload_is_detected_and_named(self):
        spec = fano_spec(Q=7, T=8)
        corrupted = {"done": False}

        def tamper(tx: Transmission) -> Transmission:
            if tx.kind == "coded" and not corrupted["done"]:
                corrupted["done"] = True
                flipped = bytes([tx.payload[0] ^ 0xFF]) + tx.payload[1:]
                return dataclasses.replace(tx, payload=flipped)
            return tx

        result = run_pipeline(spec, tamper=tamper)
        assert not result.reduce_result.ok
        assert result.reduce_result.mismatches
        server, q, f = result.reduce_result.mismatches[0]
        assert server in spec.matrix.rows and 1 <= q <= 7


class TestMeasuredLoad:
    def test_empty_transcript_is_zero(self):
        spec = fano_spec()
        empty = ShuffleTranscript((), spec.matrix.rows, 0, {}, {})
        assert measured_load(empty, spec) == 0


class TestPartialStragglers:
    def test_load_unchanged_and_decodes_ok(self):
        spec = fano_spec(Q=14, T=8)
        baseline = run_pipeline(spec)
        partial = run_pipeline(spec, partial=frozenset({"2"}))
        assert partial.load == baseline.load == Fraction(2, 7)
        assert partial.reduce_result.ok
        assert partial.transcript.sent_bits["2"] == 0

    def test_partial_straggler_maps_fewer_subfiles_before_shuffle(self):
        spec = fano_spec(Q=7, T=4)
        from codedmr.shuffle import default_plan, partial_straggler_needs

        duties = ReduceAssignment.block_partition(spec.matrix.rows, 7)
        plan = default_plan(spec, duties, forbidden=frozenset({"2"}))
        needs = partial_straggler_needs(spec, plan, frozenset({"2"}))
        assert needs["2"] <= set(spec.matrix.zeros_in_row("2"))

    def test_plan_using_partial_straggler_rejected(self):
        spec = fano_spec(Q=7, T=4)
        from codedmr.shuffle import default_plan

        duties = ReduceAssignment.block_partition(spec.matrix.rows, 7)
        plan = default_plan(spec, duties)
        partials = frozenset({plan[0][0]})
        with pytest.raises(ShuffleError, match="partial straggler"):
            run_pipeline(spec, plan, partial=partials)

    @pytest.mark.parametrize("kind", ["stragglers", "partial"])
    def test_unknown_server_label_rejected(self, kind):
        spec = fano_spec(Q=7, T=4)
        with pytest.raises(ValueError, match="unknown server labels"):
            run_pipeline(spec, **{kind: frozenset({"9"})})


class TestTranscriptPersistence:
    def test_round_trip(self, tmp_path):
        spec = fano_spec(Q=7, T=4)
        result = run_pipeline(spec)
        path = tmp_path / "t.bin"
        save_transcript(path, spec, result.transcript)
        header, txs = load_transcript(path)
        assert (header["K"], header["N"], header["r"]) == (7, 7, 4)
        assert (header["g"], header["S"], header["Q"], header["T"]) == (3, 7, 7, 4)
        assert len(txs) == len(result.transcript.transmissions)
        for a, b in zip(txs, result.transcript.transmissions):
            assert (a.sender, a.member, a.kind, a.payload) == (
                b.sender, b.member, b.kind, b.payload,
            )


TAMPER_JOBS = (
    ("fano", 7), ("fano", 14), ((4, 2), 4), ((5, 2), 10), ((6, 3), 6), ((5, 3), 5),
)


def _tamper_spec(name, Q, T):
    if name == "fano":
        return fano_spec(Q=Q, T=T)
    m = man_matrix(*name)
    return JobSpec(m, man_cover(m), Q, T)


@settings(max_examples=80, deadline=None)
@given(
    job=st.sampled_from(TAMPER_JOBS),
    T=st.integers(1, 6),
    kind=st.sampled_from(("coded", "uncoded")),
    data=st.data(),
)
def test_one_flipped_broadcast_byte_names_exactly_its_values(job, T, kind, data):
    spec = _tamper_spec(job[0], job[1], T)
    idx = data.draw(st.integers(0, spec.cover.size - 1), label="member")
    o = data.draw(st.integers(0, spec.beta * T - 1), label="offset")
    flip = data.draw(st.integers(1, 255), label="flip")

    def tamper(tx):
        if tx.member != idx or tx.kind != kind:
            return tx
        payload = bytearray(tx.payload)
        payload[o] ^= flip
        return dataclasses.replace(tx, payload=bytes(payload))

    result = run_pipeline(spec, tamper=tamper)
    assignment = ReduceAssignment.block_partition(spec.matrix.rows, spec.num_functions)
    coded_sender, _ = default_plan(spec, assignment)[idx]
    member = spec.cover.members[idx]
    hit = [k for k in member.rows if k != coded_sender] if kind == "coded" else [coded_sender]
    col_of = dict(zip(member.rows, member.cols))
    order = {k: i for i, k in enumerate(assignment.servers)}
    expected = [
        (k, assignment.duties[k][o // T], col_of[k]) for k in sorted(hit, key=order.get)
    ]
    assert result.reduce_result.mismatches == expected
    assert not result.reduce_result.ok
    assert len(result.reduce_result.outputs) == spec.num_functions - len(expected)


class TestStrictTranscriptLoad:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        spec = fano_spec(Q=7, T=4)
        path = tmp_path_factory.mktemp("transcript") / "t.bin"
        save_transcript(path, spec, run_pipeline(spec).transcript)
        return path.read_bytes()

    def _load(self, tmp_path, data):
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        return load_transcript(path)

    def test_unknown_version_byte(self, tmp_path, saved):
        with pytest.raises(FormatError, match="version"):
            self._load(tmp_path, saved[:4] + b"\x02" + saved[5:])

    def test_unknown_kind_byte(self, tmp_path, saved):
        # first record: 69-byte header, then sender length, sender, member
        slen = int.from_bytes(saved[69:71], "big")
        at = 69 + 2 + slen + 4
        data = saved[:at] + b"\x07" + saved[at + 1 :]
        with pytest.raises(FormatError, match="kind"):
            self._load(tmp_path, data)

    def test_trailing_bytes(self, tmp_path, saved):
        with pytest.raises(FormatError, match="trailing"):
            self._load(tmp_path, saved + b"\x00")

    def test_bad_magic(self, tmp_path, saved):
        with pytest.raises(FormatError, match="not a transcript log"):
            self._load(tmp_path, b"XXXX" + saved[4:])

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(0, 10**6))
    def test_every_truncation_is_a_format_error(self, tmp_path_factory, saved, cut):
        cut %= len(saved)
        path = tmp_path_factory.mktemp("cut") / "t.bin"
        path.write_bytes(saved[:cut])
        with pytest.raises(FormatError):
            load_transcript(path)
