import dataclasses
import functools
import hashlib
import struct
from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import codedmr.shuffle
from codedmr import (
    BalanceError,
    audit_plan,
    BinaryComputingMatrix,
    FormatError,
    IdentityCover,
    JobSpec,
    ShuffleError,
    Transmission,
    build_sender_plan,
    fano_matrix,
    man_cover,
    man_matrix,
    measured_load,
    run_map_phase,
    run_pipeline,
    run_reduce,
    run_shuffle,
    search_cover,
    synth_map,
    transversal_cover,
    transversal_matrix,
)
from codedmr.shuffle import (
    SenderPlan,
    ServerStore,
    ShuffleTranscript,
    _digest_streams,
    _exchange,
    _frame,
    block_duties,
    default_plan,
    job_digest,
    load_transcript,
    partial_straggler_needs,
    save_transcript,
)
from conftest import cover_members, label_cover, plan_pairs


def fano_spec(Q=7, T=16, seed=0):
    m = fano_matrix()
    return JobSpec(m, search_cover(m, 3, mode="exact"), Q, T, file_seed=seed)


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def round_for_member(spec, idx, duty, store, coded_sender, uncoded_sender):
    """The exchange round of member *idx* alone, sent by the rows
    *coded_sender* and *uncoded_sender*: the ``_exchange`` kernel on a
    cover of that one member, which builds, broadcasts and decodes its two
    transmissions."""
    alone = dataclasses.replace(spec, cover=label_cover(cover_members(spec.cover)[idx : idx + 1]))
    # one member covers part of the matrix only, which the spec's cover
    # check refuses: its index arrays are set in place of that check
    ((_, R, C),) = alone.cover.index(spec.matrix).groups
    alone.__dict__["cover_index"] = (R, C)
    senders = np.array([[coded_sender, uncoded_sender]])
    payloads = _exchange(alone, duty, store, senders, None)
    return ShuffleTranscript(spec.matrix.rows, senders, payloads).transmissions


def transcript_bits(spec, transcript, stragglers=()):
    """The bits each server sends and receives in *transcript*, as two
    label-keyed dicts: a server that does not straggle receives every
    broadcast of its members that it does not send."""
    sent = {k: 0 for k in spec.matrix.rows}
    received = dict(sent)
    members = cover_members(spec.cover)
    for tx in transcript.transmissions:
        sent[tx.sender] += len(tx.payload) * 8
        for k in members[tx.member][0]:
            if k not in stragglers and k != tx.sender:
                received[k] += len(tx.payload) * 8
    return sent, received


@dataclasses.dataclass(frozen=True)
class LabelAssignment:
    """A label-keyed reduce assignment, server -> its duty functions in
    1..Q: the references' own, kept apart from the library's duty array."""

    duties: dict

    @classmethod
    def blocks(cls, servers, Q):
        """Contiguous blocks of Q/len(servers) functions in server order."""
        beta = Q // len(servers)
        return cls({k: tuple(range(i * beta + 1, (i + 1) * beta + 1)) for i, k in enumerate(servers)})

    @property
    def beta(self):
        return len(next(iter(self.duties.values())))

    def rows(self, spec):
        """The (K, beta) duty array of this assignment: q - 1 per duty
        function, -1 on the rows it leaves out."""
        duty = np.full((spec.matrix.K, self.beta), -1, dtype=np.intp)
        for k, qs in self.duties.items():
            duty[spec.matrix.row_index(k)] = np.subtract(qs, 1)
        return duty


def label_plan(spec, senders):
    """The member -> (coded, uncoded) label plan of the (S, 2) sender rows."""
    rows = spec.matrix.rows
    return {idx: (rows[c], rows[u]) for idx, (c, u) in enumerate(senders.tolist())}


def plan_rows(spec, plan):
    """The (S, 2) sender rows of a member -> (coded, uncoded) label plan
    over the matrix's labels: the inverse of ``label_plan``."""
    m = spec.matrix
    return np.array([[m.row_index(k) for k in plan[i]] for i in range(spec.cover.size)])


class TestSynthMap:
    def test_deterministic(self):
        sub = reference_subfile(0, "127", 64)
        assert synth_map(3, "127", sub, 16) == synth_map(3, "127", sub, 16)

    def test_distinct_across_a_fixed_corpus(self):
        sub = reference_subfile(0, "127", 64)
        other = reference_subfile(0, "145", 64)
        seen = set()
        for q in range(1, 21):
            for f, s in (("127", sub), ("145", other)):
                seen.add(synth_map(q, f, s, 16))
        assert len(seen) == 40   # no collisions on the corpus

    def test_length_contract(self):
        sub = reference_subfile(1, "x", 8)
        assert len(synth_map(1, "x", sub, 1)) == 1
        assert len(synth_map(1, "x", sub, 200)) == 200


class TestMapPhase:
    def test_fano_server1_holds_56_values(self):
        spec = fano_spec(Q=14)
        store = run_map_phase(spec)
        mapped = store.mapped[spec.matrix.row_index("1")]
        assert int(mapped.sum()) * spec.num_functions == 4 * 14
        held = {spec.matrix.cols[j] for j in np.flatnonzero(mapped)}
        assert held == {"467", "256", "357", "234"}

    def test_r_K_minus_1_misses_one_subfile_per_server(self):
        m = man_matrix(4, 3)
        spec = JobSpec(m, man_cover(m), 4, 4)
        store = run_map_phase(spec)
        for i, k in enumerate(m.rows):
            missing = {f for j, f in enumerate(m.cols) if not store.mapped[i, j]}
            assert len(missing) == 1

    def test_man_5_2_counts(self):
        m = man_matrix(5, 2)
        spec = JobSpec(m, man_cover(m), 5, 4)
        store = run_map_phase(spec)
        for i, k in enumerate(m.rows):
            # C(4,1) subfiles x Q
            assert int(store.mapped[i].sum()) * spec.num_functions == 4 * 5


class TestRoundForMember:
    def test_worked_example_with_strided_duties(self):
        # member rows (3,5,7) matched with (234,256,127); Q=14 with the
        # strided duty assignment W_3={3,10}, W_5={5,12}, W_7={7,14}
        spec = fano_spec(Q=14, T=8)
        member = (("3", "5", "7"), ("234", "256", "127"))
        spec = dataclasses.replace(spec, cover=label_cover([member, member]))
        duty = LabelAssignment({k: (int(k), int(k) + 7) for k in spec.matrix.rows}).rows(spec)
        store = run_map_phase(spec)
        row = spec.matrix.row_index
        tx_coded, tx_uncoded = round_for_member(spec, 0, duty, store, row("3"), row("5"))

        sub = {f: reference_subfile(0, f, 64) for f in spec.matrix.cols}
        iva = lambda q, f: synth_map(q, f, sub[f], 8)
        assert tx_coded.payload == (
            _xor(iva(5, "256"), iva(7, "127")) + _xor(iva(12, "256"), iva(14, "127"))
        )
        assert tx_uncoded.payload == iva(3, "234") + iva(10, "234")
        # server 7 cancels its locally mapped values of 256 to decode 127;
        # each slot holds the values of its row's two duty functions
        m = spec.matrix
        delivered = {
            (m.rows[i], m.cols[j]): v.tobytes()
            for i, j, v in zip(store.rows.tolist(), store.cols.tolist(), store.values)
        }
        assert delivered == {
            ("3", "234"): iva(3, "234") + iva(10, "234"),
            ("5", "256"): iva(5, "256") + iva(12, "256"),
            ("7", "127"): iva(7, "127") + iva(14, "127"),
        }

    def test_size_two_member_degenerates_to_uncoded(self):
        m = man_matrix(3, 1)
        cover = man_cover(m)
        spec = JobSpec(m, cover, 3, 4)
        duty = block_duties(3, range(3), 3)
        store = run_map_phase(spec)
        rows, cols = cover_members(cover)[0]
        tx_coded, _ = round_for_member(
            spec, 0, duty, store, m.row_index(rows[0]), m.row_index(rows[1])
        )
        other = rows[1]
        f_other = cols[1]
        q_other = int(duty[m.row_index(other), 0]) + 1
        sub = reference_subfile(0, f_other, 64)
        assert tx_coded.payload == synth_map(q_other, f_other, sub, 4)

    def test_senders_must_differ_and_belong(self):
        spec = fano_spec()
        duty = block_duties(7, range(7), 7)
        store = run_map_phase(spec)
        rows, _ = cover_members(spec.cover)[0]
        first = spec.matrix.row_index(rows[0])
        with pytest.raises(ShuffleError, match="distinct"):
            round_for_member(spec, 0, duty, store, first, first)
        outsider = next(i for i, k in enumerate(spec.matrix.rows) if k not in rows)
        with pytest.raises(ShuffleError, match="participating rows"):
            round_for_member(spec, 0, duty, store, first, outsider)

    def test_missing_mapped_value_signals_inconsistency(self):
        spec = fano_spec()
        rows, _ = cover_members(spec.cover)[0]
        first, second = map(spec.matrix.row_index, rows[:2])
        mapped = spec.matrix.bits == 0
        mapped[first] = False
        store = run_map_phase(spec, mapped)
        with pytest.raises(ShuffleError, match="lacks mapped value"):
            round_for_member(spec, 0, block_duties(7, range(7), 7), store, first, second)


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
        broken = dataclasses.replace(spec, cover=label_cover(cover_members(spec.cover)[:-1]))
        store = run_map_phase(broken)
        with pytest.raises(ShuffleError, match="cover failed verification"):
            run_shuffle(broken, block_duties(7, range(7), 7), store)

    def test_payload_lengths_are_beta_T(self):
        spec = fano_spec(Q=14, T=5)
        result = run_pipeline(spec)
        assert all(len(tx.payload) == 2 * 5 for tx in result.transcript.transmissions)

    def test_jobspec_bounds_the_iva_table(self):
        """Refused before any value is hashed: the table is never built."""
        from codedmr.constructions import MAX_CELLS, MAX_IVA_BYTES

        assert MAX_CELLS * 16 <= MAX_IVA_BYTES   # a largest matrix at Q = K, T = 16 runs
        m = man_matrix(5, 2)
        cover = man_cover(m)
        JobSpec(m, cover, 5, MAX_IVA_BYTES // 50)          # exactly at the bound
        with pytest.raises(ValueError) as err:
            JobSpec(m, cover, 5, MAX_IVA_BYTES // 50 + 1)
        assert str(err.value) == (
            f"the IVA table would take Q*N*T = {50 * (MAX_IVA_BYTES // 50 + 1)} bytes, "
            f"over the limit of {MAX_IVA_BYTES}"
        )

    def test_jobspec_validates_q(self):
        m = fano_matrix()
        cover = search_cover(m, 3, mode="exact")
        with pytest.raises(ValueError):
            JobSpec(m, cover, 8, 4)    # not a multiple of K
        with pytest.raises(ValueError):
            JobSpec(m, cover, 0, 4)

    def test_all_stragglers_rejected(self):
        spec = fano_spec()
        with pytest.raises(ValueError, match="assignment needs at least one server"):
            block_duties(7, [], 7)
        with pytest.raises(ValueError, match="assignment needs at least one server"):
            run_pipeline(spec, stragglers=spec.matrix.rows)

    def test_block_duties_give_the_reducers_contiguous_blocks(self):
        assert block_duties(5, [0, 2, 3], 6).tolist() == [
            [0, 1], [-1, -1], [2, 3], [4, 5], [-1, -1],
        ]
        with pytest.raises(ValueError) as err:
            block_duties(5, [0, 2, 3], 7)
        assert str(err.value) == "Q=7 is not divisible by 3 servers"
        with pytest.raises(ValueError) as err:
            run_pipeline(fano_spec(Q=7), stragglers=("7",))
        assert str(err.value) == "Q=7 is not divisible by 6 servers"


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


class TestReduceViews:
    def test_a_run_read_for_its_verdict_builds_no_record(self):
        spec = fano_spec(Q=14, T=4)
        result = run_pipeline(spec).reduce_result
        assert result.ok
        assert "outputs" not in result.__dict__ and "mismatches" not in result.__dict__
        assert "reduce_outputs" not in spec.__dict__
        assert result.mismatches == [] and result.outputs is result.outputs
        assert len(result.outputs) == 14

    def test_the_store_keeps_slots_not_a_table(self):
        fields = [f.name for f in dataclasses.fields(ServerStore)]
        assert fields == ["mapped", "rows", "cols", "values"]
        spec = fano_spec(Q=14, T=4)
        store = run_map_phase(spec)
        assert store.rows is store.cols is store.values is None
        run_shuffle(spec, block_duties(7, range(7), 14), store)
        # every one-entry is one slot, and each holds two duty values
        assert store.values.shape == (7 * 3, 2, 4)
        assert sorted(zip(store.rows.tolist(), store.cols.tolist())) == sorted(
            zip(*np.nonzero(spec.matrix.bits))
        )

    def test_nothing_delivered_is_every_value_missing(self):
        spec = fano_spec(Q=14)
        duty = block_duties(7, range(7), 14)
        store = run_map_phase(spec)
        result = run_reduce(spec, duty, store)
        assert (result.ok, result.outputs) == (False, {})
        assert result.mismatches == reference_reduce(spec, duty, store)[2]
        assert len(result.mismatches) == 7 * 3 * 2   # every one-entry, both duties
        assert result.mismatches[:3] == [("1", 1, "127"), ("1", 1, "145"), ("1", 1, "136")]


class TestMeasuredLoad:
    def test_empty_transcript_is_zero(self):
        spec = fano_spec()
        empty = ShuffleTranscript(
            spec.matrix.rows, np.empty((0, 2), dtype=np.intp), np.empty((0, 2, 0), dtype=np.uint8)
        )
        assert measured_load(empty, spec) == 0


class TestPartialStragglers:
    def test_load_unchanged_and_decodes_ok(self):
        spec = fano_spec(Q=14, T=8)
        baseline = run_pipeline(spec)
        partial = run_pipeline(spec, partial=frozenset({"2"}))
        assert partial.load == baseline.load == Fraction(2, 7)
        assert partial.reduce_result.ok
        assert transcript_bits(spec, partial.transcript)[0]["2"] == 0

    def test_partial_straggler_maps_fewer_subfiles_before_shuffle(self):
        spec = fano_spec(Q=7, T=4)
        from codedmr.shuffle import default_plan, partial_straggler_needs

        i = spec.matrix.row_index("2")
        senders = default_plan(spec, block_duties(7, range(7), 7), forbidden=[i])
        needs = partial_straggler_needs(spec, senders, [i])
        mapped = spec.matrix.bits[i] == 0
        assert {spec.matrix.cols[j] for j in np.flatnonzero(needs[i])} < {
            spec.matrix.cols[j] for j in np.flatnonzero(mapped)
        }
        assert not np.delete(needs, i, axis=0).any()

    def test_plan_using_partial_straggler_rejected(self):
        spec = fano_spec(Q=7, T=4)
        from codedmr.shuffle import default_plan

        plan = label_plan(spec, default_plan(spec, block_duties(7, range(7), 7)))
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

    @staticmethod
    def _first_row_labelled(label):
        m = fano_matrix()
        m = BinaryComputingMatrix((label, *m.rows[1:]), m.cols, m.bits, m.r)
        spec = JobSpec(m, search_cover(m, 3, mode="exact"), 7, 4)
        return spec, run_pipeline(spec).transcript

    def test_a_label_at_the_length_limit_round_trips(self, tmp_path):
        spec, transcript = self._first_row_labelled("é" * 32767 + "x")   # 65,535 bytes
        save_transcript(tmp_path / "t.bin", spec, transcript)
        loaded = load_transcript(tmp_path / "t.bin")[1]
        assert loaded == transcript.transmissions
        assert spec.matrix.rows[0] in {tx.sender for tx in loaded}

    def test_a_label_over_the_length_limit_is_a_format_error(self, tmp_path):
        spec, transcript = self._first_row_labelled("é" * 32768)   # 65,536 bytes
        path = tmp_path / "t.bin"
        with pytest.raises(FormatError) as err:
            save_transcript(path, spec, transcript)
        assert str(err.value) == (
            "a server label of 65536 UTF-8 bytes is over the transcript log's limit of 65535"
        )
        assert not path.exists()


class TestTranscriptArrays:
    def test_no_record_is_built_without_tamper(self, tmp_path):
        m = man_matrix(5, 2)
        plan = build_sender_plan(m, man_cover(m))
        spec = JobSpec(m, man_cover(m), 5, 8)
        result = run_pipeline(spec, plan)
        save_transcript(tmp_path / "t.bin", spec, result.transcript)
        assert audit_plan(plan, result.transcript).balanced
        assert measured_load(result.transcript, spec) == result.load == Fraction(2, 5)
        assert "transmissions" not in result.transcript.__dict__

    def test_the_arrays_are_the_transcript_and_read_only(self):
        transcript = run_pipeline(fano_spec(Q=14, T=4)).transcript
        assert [f.name for f in dataclasses.fields(transcript)] == ["servers", "senders", "payloads"]
        assert transcript.senders.shape == (7, 2) and transcript.payloads.shape == (7, 2, 8)
        assert (transcript.payload_bytes, transcript.total_bits) == (8, 7 * 2 * 8 * 8)
        with pytest.raises(ValueError):
            transcript.payloads[0, 0, 0] = 1
        with pytest.raises(ValueError):
            transcript.senders[0, 0] = 1

    def test_tamper_sees_every_broadcast_in_send_order(self):
        spec = fano_spec(Q=14, T=4)
        seen = []
        result = run_pipeline(spec, tamper=lambda tx: seen.append(tx) or tx)
        assert [(tx.member, tx.kind) for tx in seen] == [
            (s, kind) for s in range(7) for kind in ("coded", "uncoded")
        ]
        assert tuple(seen) == result.transcript.transmissions
        assert result.reduce_result.ok

    def test_a_tampered_sender_leaves_the_planned_senders(self):
        spec = fano_spec()
        planned = run_pipeline(spec).transcript.senders
        result = run_pipeline(spec, tamper=lambda tx: dataclasses.replace(tx, sender="1"))
        assert np.array_equal(result.transcript.senders, planned)
        assert {tx.sender for tx in result.transcript.transmissions} != {"1"}
        assert result.reduce_result.ok

    def test_every_broadcast_is_tampered_before_a_fault_is_raised(self):
        spec = fano_spec()
        seen = []

        def tamper(tx):
            seen.append(tx.member)
            return dataclasses.replace(tx, payload=tx.payload[:-1]) if tx.member == 2 else tx

        with pytest.raises(ShuffleError) as err:
            run_pipeline(spec, tamper=tamper)
        assert str(err.value) == "member 2: coded broadcast has 15 bytes, expected 16"
        assert seen == [s for s in range(7) for _ in range(2)]

    def test_tamper_stops_before_the_first_sender_fault(self):
        """A sender label the matrix lacks has no record: the run names the
        fault, never an IndexError of the records' labels."""
        spec, plan = _man_5_2_default_plan()
        plan[3] = ("9", plan[3][1])
        seen = []
        with pytest.raises(ShuffleError) as err:
            run_pipeline(spec, plan, tamper=lambda tx: seen.append(tx.member) or tx)
        assert str(err.value) == "senders must be participating rows of the member"
        assert seen == [0, 0, 1, 1, 2, 2]


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
    beta = spec.num_functions // spec.matrix.K
    o = data.draw(st.integers(0, beta * T - 1), label="offset")
    flip = data.draw(st.integers(1, 255), label="flip")

    def tamper(tx):
        if tx.member != idx or tx.kind != kind:
            return tx
        payload = bytearray(tx.payload)
        payload[o] ^= flip
        return dataclasses.replace(tx, payload=bytes(payload))

    result = run_pipeline(spec, tamper=tamper)
    assignment = LabelAssignment.blocks(spec.matrix.rows, spec.num_functions)
    coded_sender = spec.matrix.rows[default_plan(spec, assignment.rows(spec))[idx, 0]]
    rows, cols = cover_members(spec.cover)[idx]
    hit = [k for k in rows if k != coded_sender] if kind == "coded" else [coded_sender]
    col_of = dict(zip(rows, cols))
    order = {k: i for i, k in enumerate(assignment.duties)}
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


# ---------------------------------------------------------------------------
# Reference: the per-member shuffle engine (a dict of per-server stores,
# one Python round per cover member, a reduce digest per function and
# run), kept test-only so that the array kernel is checked against it.
# ---------------------------------------------------------------------------


class _RefState:
    def __init__(self, mapped):
        self.mapped = mapped      # (N,) bool
        self.received = {}        # column -> (beta, T) values of the duty functions


def reference_map(spec, subfile_filter=None):
    m = spec.matrix
    zeros = m.bits == 0
    states = {}
    for i, k in enumerate(m.rows):
        mapped = zeros[i]
        if subfile_filter is not None and k in subfile_filter:
            mapped = mapped & np.isin(m.cols, list(subfile_filter[k]))
        states[k] = _RefState(mapped)
    return states


def reference_round(spec, member_index, assignment, states, coded_sender, uncoded_sender, tamper):
    member_rows, member_cols = cover_members(spec.cover)[member_index]
    col_of = dict(zip(member_rows, member_cols))
    active = [k for k in member_rows if k in assignment.duties]
    if coded_sender == uncoded_sender:
        raise ShuffleError("coded and uncoded sender must be distinct servers")
    if coded_sender not in active or uncoded_sender not in active:
        raise ShuffleError("senders must be participating rows of the member")
    beta, T, m = assignment.beta, spec.iva_bytes, spec.matrix

    def require(owners, held, rows):
        if not held.all():
            i, j = divmod(int(np.argmin(held)), held.shape[1])
            raise ShuffleError(
                f"server {owners[i]!r} lacks mapped value "
                f"(q={assignment.duties[rows[j]][0]}, f={col_of[rows[j]]!r}); "
                "map phase is inconsistent with the schedule"
            )

    def unpack(tx):
        if len(tx.payload) != beta * T:
            raise ShuffleError(
                f"member {member_index}: {tx.kind} broadcast has "
                f"{len(tx.payload)} bytes, expected {beta * T}"
            )
        return np.frombuffer(tx.payload, dtype=np.uint8).reshape(beta, T)

    others = [k for k in active if k != coded_sender]
    cols = np.array([m.cols.index(col_of[k]) for k in others])
    values = spec.ivas[np.array([assignment.duties[k] for k in others]) - 1, cols[:, None]]
    f_p = m.cols.index(col_of[coded_sender])
    require([coded_sender], states[coded_sender].mapped[cols][None], others)
    require([uncoded_sender], states[uncoded_sender].mapped[[[f_p]]], [coded_sender])
    tx_coded = Transmission(
        coded_sender, member_index, "coded", np.bitwise_xor.reduce(values, axis=0).tobytes()
    )
    q_p = np.subtract(assignment.duties[coded_sender], 1)
    tx_uncoded = Transmission(uncoded_sender, member_index, "uncoded", spec.ivas[q_p, f_p].tobytes())
    if tamper is not None:
        tx_coded = tamper(tx_coded)
        tx_uncoded = tamper(tx_uncoded)
    held = np.array([states[k].mapped[cols] for k in others])
    np.fill_diagonal(held, True)
    require(others, held, others)
    coded = unpack(tx_coded)
    for i, k_i in enumerate(others):
        cancel = np.bitwise_xor.reduce(np.delete(values, i, axis=0), axis=0)
        states[k_i].received[int(cols[i])] = coded ^ cancel
    states[coded_sender].received[f_p] = unpack(tx_uncoded)
    return tx_coded, tx_uncoded


def reference_shuffle(spec, assignment, states, plan=None, tamper=None):
    """The broadcasts, their payload size and the (sent, received) bits
    per server."""
    spec.cover_index   # the library's cover check and its ShuffleError
    if plan is None:
        plan = reference_default_plan(spec, assignment)
    transmissions = []
    sent_bits = {k: 0 for k in spec.matrix.rows}
    received_bits = {k: 0 for k in spec.matrix.rows}
    for idx, (rows, _) in enumerate(cover_members(spec.cover)):
        pair = reference_round(spec, idx, assignment, states, *plan[idx], tamper)
        for tx in pair:
            transmissions.append(tx)
            sent_bits[tx.sender] += len(tx.payload) * 8
            for k in rows:
                if k in assignment.duties and k != tx.sender:
                    received_bits[k] += len(tx.payload) * 8
    m = spec.matrix
    for k, duties in assignment.duties.items():
        lacking = m.bits[m.row_index(k)].astype(bool)
        lacking[list(states[k].received)] = False
        if lacking.any():
            f = m.cols[int(np.argmax(lacking))]
            raise ShuffleError(f"server {k!r} is still missing (q={duties[0]}, f={f!r}) after shuffle")
    return tuple(transmissions), assignment.beta * spec.iva_bytes, (sent_bits, received_bits)


def reference_engine_reduce(spec, assignment, states):
    m = spec.matrix
    outputs, mismatches = {}, []
    for k, duties in assignment.duties.items():
        state = states[k]
        expected = spec.ivas[np.subtract(duties, 1)]
        held = expected.copy()
        got = [j for j in state.received if not state.mapped[j]]
        if got:
            held[:, got] = np.stack([state.received[j] for j in got], axis=1)
        have = state.mapped.copy()
        have[got] = True
        bad = (held != expected).any(axis=2) | ~have
        mismatches.extend((k, duties[b], m.cols[j]) for b, j in zip(*np.nonzero(bad)))
        for b in np.flatnonzero(~bad.any(axis=1)):
            outputs[(k, duties[b])] = reference_reduce_digest(
                duties[b], [v.tobytes() for v in held[b]]
            )
    return outputs, mismatches


def reference_pipeline(spec, plan=None, tamper=None, stragglers=(), partial=frozenset()):
    """``run_pipeline``'s sequence over the reference engine."""
    stragglers = set(stragglers)
    survivors = [k for k in spec.matrix.rows if k not in stragglers]
    assignment = LabelAssignment.blocks(survivors, spec.num_functions)
    if plan is None:
        plan = reference_default_plan(spec, assignment, forbidden=partial)
    for idx, (cs, us) in plan.items():
        if cs in partial or us in partial:
            raise ShuffleError(f"member {idx}: sender plan uses a partial straggler")
    needs = reference_partial_needs(spec, plan, partial)
    states = reference_map(spec, {**{k: set() for k in stragglers}, **needs})
    transcript = reference_shuffle(spec, assignment, states, plan, tamper)
    for k in partial:
        states[k].mapped = spec.matrix.bits[spec.matrix.row_index(k)] == 0
    return transcript, reference_engine_reduce(spec, assignment, states)


def _summary(transmissions, payload_bytes, bits, outputs, mismatches):
    records = [(tx.sender, tx.member, tx.kind, tx.payload) for tx in transmissions]
    return records, payload_bytes, bits, outputs, mismatches


def _library_summary(spec, transcript, stragglers, outputs, mismatches):
    bits = transcript_bits(spec, transcript, stragglers)
    return _summary(transcript.transmissions, transcript.payload_bytes, bits, outputs, mismatches)


def _outcome(run):
    """What *run* gives: its summary, or the type and text of its error."""
    try:
        return run()
    except (ShuffleError, ValueError) as exc:
        return type(exc), str(exc)


def _library_pipeline(spec, **kwargs):
    result = run_pipeline(spec, **kwargs)
    r = result.reduce_result
    assert r.ok == (not r.mismatches)
    return _library_summary(
        spec, result.transcript, kwargs.get("stragglers", ()), r.outputs, r.mismatches
    )


def _reference_pipeline(spec, **kwargs):
    transcript, (outputs, mismatches) = reference_pipeline(spec, **kwargs)
    return _summary(*transcript, outputs, mismatches)


@functools.lru_cache(maxsize=None)
def _reference_case(name):
    if name == "fano":
        m = fano_matrix()
        return m, search_cover(m, 3, mode="exact")
    if name == "TD(3,3)":
        m = transversal_matrix(3, 3)
        return m, transversal_cover(m)
    m = man_matrix(*name)
    return m, man_cover(m)


REFERENCE_CASES = ("fano", "TD(3,3)") + tuple(
    (K, r) for K in range(2, 8) for r in range(1, K)
)


@st.composite
def reference_jobs(draw):
    """A spec with stragglers, partial stragglers and a default or
    balanced plan, over MAN(K <= 7, r), Fano or TD(3,3)."""
    m, cover = _reference_case(draw(st.sampled_from(REFERENCE_CASES)))
    g = cover.uniform_size
    stragglers = draw(st.sets(st.sampled_from(m.rows), max_size=g - 2))
    survivors = [k for k in m.rows if k not in stragglers]
    partial = frozenset(draw(st.sets(st.sampled_from(survivors), max_size=2)))
    Q = lcm(m.K, len(survivors)) * draw(st.integers(1, 2))
    spec = JobSpec(m, cover, Q, draw(st.integers(1, 6)), file_seed=draw(st.integers(0, 3)))
    plan = None
    if draw(st.booleans()):
        try:
            plan = dict(enumerate(plan_pairs(build_sender_plan(m, cover, survivors))))
        except BalanceError:
            pass
    return spec, plan, tuple(stragglers), partial


def _flip(idx, kind, offset, flip):
    def tamper(tx):
        if tx.member != idx or tx.kind != kind:
            return tx
        payload = bytearray(tx.payload)
        payload[offset % len(payload)] ^= flip
        return dataclasses.replace(tx, payload=bytes(payload))
    return tamper


def _draw_flip(spec, data):
    """No tamper, or one that flips a byte of one drawn broadcast."""
    if not data.draw(st.booleans(), label="tamper"):
        return None
    return _flip(
        data.draw(st.integers(0, spec.cover.size - 1), label="member"),
        data.draw(st.sampled_from(("coded", "uncoded")), label="kind"),
        data.draw(st.integers(0, 10**4), label="offset"),
        data.draw(st.integers(1, 255), label="flip"),
    )


@settings(max_examples=150, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_pipeline_equals_per_member_reference(job, data):
    spec, plan, stragglers, partial = job
    tamper = _draw_flip(spec, data)
    kwargs = dict(plan=plan, tamper=tamper, stragglers=stragglers, partial=partial)
    got = _outcome(lambda: _library_pipeline(spec, **kwargs))
    assert got == _outcome(lambda: _reference_pipeline(spec, **kwargs))
    event("rejected" if got[0] in (ShuffleError, ValueError) else
          "mismatches" if got[-1] else "reduced ok")
    if not stragglers and not partial and plan is None:
        assert got[0] != ShuffleError   # the plain run always completes


def _library_phases(spec, assignment, mapped, plan):
    duty = assignment.rows(spec)
    store = run_map_phase(spec, mapped)
    transcript = run_shuffle(spec, duty, store, plan_rows(spec, plan))
    r = run_reduce(spec, duty, store)
    stragglers = [k for k in spec.matrix.rows if k not in assignment.duties]
    return _library_summary(spec, transcript, stragglers, r.outputs, r.mismatches)


def _reference_phases(spec, assignment, subfile_filter, plan):
    states = reference_map(spec, subfile_filter)
    transcript = reference_shuffle(spec, assignment, states, plan)
    return _summary(*transcript, *reference_engine_reduce(spec, assignment, states))


@settings(max_examples=60, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_dropped_mapped_columns_fail_as_in_the_reference(job, data):
    spec, plan, stragglers, _ = job
    m = spec.matrix
    k = data.draw(st.sampled_from(m.rows), label="server")
    zeros = [f for f, bit in zip(m.cols, m.bits[m.row_index(k)]) if bit == 0]
    kept = data.draw(st.sets(st.sampled_from(zeros)), label="kept")
    survivors = [s for s in m.rows if s not in stragglers]
    assignment = LabelAssignment.blocks(survivors, spec.num_functions)
    if plan is None:
        plan = label_plan(spec, default_plan(spec, assignment.rows(spec)))
    subfile_filter = {**{s: set() for s in stragglers}, k: kept}
    mapped = m.bits == 0
    mapped[[m.row_index(s) for s in stragglers]] = False
    i = m.row_index(k)
    mapped[i] = (m.bits[i] == 0) & np.isin(m.cols, list(kept))
    got = _outcome(lambda: _library_phases(spec, assignment, mapped, plan))
    assert got == _outcome(lambda: _reference_phases(spec, assignment, subfile_filter, plan))
    event("rejected" if got[0] is ShuffleError else
          "mismatches" if got[-1] else "reduced ok")


@settings(max_examples=60, deadline=None)
@given(job=reference_jobs())
def test_a_verified_members_cross_entries_are_zero(job):
    """What lets ``_exchange`` check only the members with a short row: in
    a verified cover each member's submatrix is the identity, so a row that
    maps its whole zero set holds every other slot's column."""
    spec = job[0]
    R, C = spec.cover_index   # raises unless the cover verifies
    g = R.shape[1]
    assert (spec.matrix.bits[R[:, :, None], C[:, None, :]] == np.eye(g, dtype=np.uint8)).all()


@settings(max_examples=100, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_a_partial_straggler_and_a_dropped_column_fail_as_in_the_reference(job, data):
    """A run whose short rows are a partial straggler's and another row
    short of one mapped column mixes members checked for a lacking value
    with members that are not; the first fault is still the reference's."""
    spec, _, stragglers, _ = job
    m = spec.matrix
    survivors = [k for k in m.rows if k not in stragglers]
    partial = data.draw(st.sampled_from(survivors), label="partial")
    k = data.draw(st.sampled_from([s for s in survivors if s != partial]), label="server")
    i = m.row_index(k)
    zeros = [f for f, bit in zip(m.cols, m.bits[i]) if bit == 0]
    dropped = data.draw(st.sampled_from(zeros), label="dropped")
    assignment = LabelAssignment.blocks(survivors, spec.num_functions)
    try:
        plan = reference_default_plan(spec, assignment, forbidden={partial})
    except ShuffleError:
        assume(False)   # a member with the partial straggler has too few senders
    needs = reference_partial_needs(spec, plan, {partial})[partial]
    subfile_filter = {
        **{s: set() for s in stragglers}, partial: needs, k: set(zeros) - {dropped},
    }
    mapped = m.bits == 0
    mapped[[m.row_index(s) for s in stragglers]] = False
    p = m.row_index(partial)
    mapped[p] = partial_straggler_needs(spec, plan_rows(spec, plan), [p])[p]
    mapped[i, m.cols.index(dropped)] = False
    got = _outcome(lambda: _library_phases(spec, assignment, mapped, plan))
    assert got == _outcome(lambda: _reference_phases(spec, assignment, subfile_filter, plan))
    event("rejected" if got[0] is ShuffleError else
          "mismatches" if got[-1] else "reduced ok")


@settings(max_examples=60, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_bad_senders_fail_as_in_the_reference(job, data):
    spec, plan, stragglers, _ = job
    survivors = [k for k in spec.matrix.rows if k not in stragglers]
    assignment = LabelAssignment.blocks(survivors, spec.num_functions)
    plan = dict(plan or label_plan(spec, default_plan(spec, assignment.rows(spec))))
    for _ in range(data.draw(st.integers(1, 3), label="faults")):
        idx = data.draw(st.integers(0, spec.cover.size - 1), label="member")
        cs, us = plan[idx]
        bad = data.draw(st.sampled_from(spec.matrix.rows), label="server")
        plan[idx] = data.draw(
            st.sampled_from([(cs, cs), (us, us), (cs, bad), (bad, us)]), label="pair"
        )
    kwargs = dict(plan=plan, stragglers=stragglers)
    got = _outcome(lambda: _library_pipeline(spec, **kwargs))
    assert got == _outcome(lambda: _reference_pipeline(spec, **kwargs))
    assert got[0] in (ShuffleError, ValueError) or all(
        c != u for c, u in plan.values()
    )


@settings(max_examples=60, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_length_changing_tamper_fails_as_in_the_reference(job, data):
    spec, plan, stragglers, partial = job
    idx = data.draw(st.integers(0, spec.cover.size - 1), label="member")
    kind = data.draw(st.sampled_from(("coded", "uncoded")), label="kind")
    cut = data.draw(st.integers(1, 5), label="cut")
    grow = data.draw(st.booleans(), label="grow")

    def tamper(tx):
        if tx.member != idx or tx.kind != kind:
            return tx
        payload = tx.payload + b"\x00" * cut if grow else tx.payload[:-cut]
        return dataclasses.replace(tx, payload=payload)

    kwargs = dict(plan=plan, tamper=tamper, stragglers=stragglers, partial=partial)
    got = _outcome(lambda: _library_pipeline(spec, **kwargs))
    assert got == _outcome(lambda: _reference_pipeline(spec, **kwargs))
    assert got[0] in (ShuffleError, ValueError)


# ---------------------------------------------------------------------------
# Reference: the whole-table reduce check, which scatters every delivered
# slot into a (Q, N, T) table with a (Q, N) mask of what was delivered and
# compares the whole table with ``ivas``, kept test-only so that the check
# of each slot where it lands is checked against it.
# ---------------------------------------------------------------------------


def reference_reduce(spec, duty, store):
    """``ok``, the (server, q) -> output dict and the (server, q, f)
    mismatch list of the whole-table check of *store*."""
    m = spec.matrix
    received = np.zeros(spec.ivas.shape, dtype=np.uint8)
    have = np.zeros(spec.ivas.shape[:2], dtype=bool)
    if store.rows is not None:
        q, cols = duty[store.rows], store.cols[:, None]
        received[q, cols] = store.values
        have[q, cols] = True
    reducers = np.flatnonzero(duty[:, 0] >= 0)
    wrong = (received != spec.ivas).any(axis=2) | ~have              # (Q, N)
    bad = wrong[duty[reducers]] & ~store.mapped[reducers][:, None]   # (kappa, beta, N)
    servers = [m.rows[i] for i in reducers.tolist()]
    qs = (duty[reducers] + 1).tolist()
    mismatches = [(servers[s], qs[s][b], m.cols[j]) for s, b, j in zip(*np.nonzero(bad))]
    complete = (~bad.any(axis=2)).tolist()
    outputs = {
        (k, q): spec.reduce_outputs[q - 1]
        for k, row, oks in zip(servers, qs, complete)
        for q, ok in zip(row, oks)
        if ok
    }
    return not mismatches, outputs, mismatches


@settings(max_examples=100, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_slot_check_equals_the_whole_table_check(job, data):
    spec, plan, stragglers, partial = job
    tamper = _draw_flip(spec, data)
    drop = data.draw(st.integers(0, 4), label="slots dropped")
    flips = data.draw(st.lists(st.integers(0, 10**6), max_size=3), label="bytes flipped")
    seen = []

    def recorded(spec, duty, store):
        # lose the first *drop* slots and corrupt some delivered bytes
        store.rows, store.cols = store.rows[drop:], store.cols[drop:]
        store.values = store.values[drop:].copy()
        flat = store.values.reshape(-1)
        for f in flips:
            if flat.size:
                flat[f % flat.size] ^= 1
        seen.append((duty, store, run_reduce(spec, duty, store)))
        return seen[-1][-1]

    with mock.patch.object(codedmr.shuffle, "run_reduce", recorded):
        try:
            run_pipeline(spec, plan, tamper, stragglers, partial)
        except (ShuffleError, ValueError):
            event("rejected")
            return
    ((duty, store, got),) = seen
    ok, outputs, mismatches = reference_reduce(spec, duty, store)
    assert (got.ok, got.mismatches, list(got.outputs.items())) == (
        ok, mismatches, list(outputs.items())
    )
    event("mismatches" if mismatches else "reduced ok")


def reference_save_transcript(path, spec, transcript):
    """The per-record writer the array writer replaced: one record per
    ``Transmission``, its label encoded and its fields packed in turn."""
    m = spec.matrix
    parts = [
        b"CMRT",
        struct.pack(">B", 1),
        job_digest(spec),
        struct.pack(">7I", m.K, m.N, m.r, spec.g, spec.cover.size, spec.num_functions,
                    spec.iva_bytes),
        struct.pack(">I", len(transcript.transmissions)),
    ]
    for tx in transcript.transmissions:
        sender = tx.sender.encode()
        parts += (
            struct.pack(">H", len(sender)),
            sender,
            struct.pack(">IBI", tx.member, ("coded", "uncoded").index(tx.kind), len(tx.payload)),
            tx.payload,
        )
    path.write_bytes(b"".join(parts))


def _assert_writers_agree(directory, spec, transcript):
    save_transcript(directory / "arrays.bin", spec, transcript)
    reference_save_transcript(directory / "records.bin", spec, transcript)
    data = (directory / "arrays.bin").read_bytes()
    assert data == (directory / "records.bin").read_bytes()
    assert load_transcript(directory / "arrays.bin")[1] == transcript.transmissions


@settings(max_examples=60, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_array_writer_equals_the_per_record_writer(tmp_path_factory, job, data):
    spec, plan, stragglers, partial = job
    tamper = _draw_flip(spec, data)
    try:
        result = run_pipeline(spec, plan, tamper, stragglers, partial)
    except (ShuffleError, ValueError):
        event("rejected")
        return
    _assert_writers_agree(tmp_path_factory.mktemp("writers"), spec, result.transcript)


def test_array_writer_on_multi_byte_row_labels(tmp_path):
    m = fano_matrix()
    rows = tuple(f"{c}{k}" for c, k in zip("äß€東𝔽ø𝄞", m.rows))
    m = BinaryComputingMatrix(rows, m.cols, m.bits, m.r)
    spec = JobSpec(m, search_cover(m, 3, mode="exact"), 14, 4)
    transcript = run_pipeline(spec).transcript
    assert all(len(k) != len(k.encode()) for k in transcript.servers)
    _assert_writers_agree(tmp_path, spec, transcript)


# ---------------------------------------------------------------------------
# Reference: the per-call digest stream, which frames and hashes the whole
# input anew for every value, kept test-only so that the prefix-sharing
# table is checked against it.
# ---------------------------------------------------------------------------


def reference_digest_stream(tag, parts, length):
    material = b"".join([len(p).to_bytes(4, "big") + p for p in parts])
    blocks = [
        hashlib.blake2b(
            c.to_bytes(4, "big") + material, digest_size=64, person=tag[:16]
        ).digest()
        for c in range(-(-length // 64))
    ]
    return b"".join(blocks)[:length]


def reference_subfile(file_seed, f, size):
    """Synthetic contents of subfile *f* under the given seed."""
    return reference_digest_stream(b"subfile", [str(file_seed).encode(), f.encode()], size)


def reference_reduce_digest(q, ivas_in_col_order):
    """Synthetic reduce output over the N intermediate values of q."""
    return reference_digest_stream(b"reduce", [q.to_bytes(8, "big"), *ivas_in_col_order], 32)


def reference_iva(spec, q, f):
    sub = reference_subfile(spec.file_seed, f, spec.subfile_bytes)
    return reference_digest_stream(b"iva", [q.to_bytes(8, "big"), f.encode(), sub], spec.iva_bytes)


@st.composite
def digest_specs(draw):
    """A spec over MAN(K <= 7, r), Fano or TD(3,3), its columns optionally
    relabelled with arbitrary text, with T and the subfile size in 1..200
    and any seed."""
    m, cover = _reference_case(draw(st.sampled_from(REFERENCE_CASES)))
    if draw(st.booleans()):
        labels = draw(st.lists(
            st.text(min_size=1, max_size=3), min_size=m.N, max_size=m.N, unique=True
        ))
        ((_, R, C),) = cover.index(m).groups
        m = BinaryComputingMatrix(m.rows, tuple(labels), m.bits, m.r)
        cover = IdentityCover.from_index(m, R, C)
    return JobSpec(
        m, cover, m.K * draw(st.integers(1, 2)), draw(st.integers(1, 200)),
        file_seed=draw(st.integers(-(2**40), 2**40)), subfile_bytes=draw(st.integers(1, 200)),
    )


@settings(max_examples=60, deadline=None)
@given(digest_specs())
def test_iva_table_and_reduce_outputs_equal_per_call_digests(spec):
    cols = spec.matrix.cols
    for q in range(1, spec.num_functions + 1):
        row = [reference_iva(spec, q, f) for f in cols]
        assert [v.tobytes() for v in spec.ivas[q - 1]] == row
        assert spec.reduce_outputs[q - 1] == reference_reduce_digest(q, row)
    sub = reference_subfile(spec.file_seed, cols[0], spec.subfile_bytes)
    assert synth_map(1, cols[0], sub, spec.iva_bytes) == reference_iva(spec, 1, cols[0])
    # a head and framed tails of unequal and empty parts hash as the whole parts
    streams = _digest_streams(b"reduce", [(1).to_bytes(8, "big")], [_frame([b"ab", b""])], 32)
    assert [row.tobytes() for row in streams] == [reference_reduce_digest(1, [b"ab", b""])]


@pytest.mark.parametrize("length", [1, 16, 63, 64, 65, 128, 200])
@pytest.mark.parametrize("count", [0, 1, 3, codedmr.shuffle._CHUNK + 1])
def test_digest_kernel_equals_one_value_per_call(length, count):
    """Every row of the kernel's array is the stream of its head and tail
    parts hashed anew, across block boundaries and chunk boundaries, and
    no tails give no rows."""
    head = [b"tag", b""]
    tails = [[i.to_bytes(3, "big") * (i % 5), b"x" * (i % 70)] for i in range(count)]
    streams = _digest_streams(b"iva", head, [_frame(t) for t in tails], length)
    assert streams.shape == (count, length) and streams.dtype == np.uint8
    assert [row.tobytes() for row in streams] == [
        reference_digest_stream(b"iva", head + t, length) for t in tails
    ]


def _broken_man_5_2(kind):
    """MAN(5,2)'s cover with member 0 given an unknown row label, an
    unknown column label or a repeated row, or with its last member
    dropped, as a label cover."""
    m = man_matrix(5, 2)
    members = cover_members(man_cover(m))
    if kind == "dropped member":
        return m, label_cover(members[:-1])
    rows, cols = members[0]
    if kind == "unknown row":
        rows = ("9",) + rows[1:]
    elif kind == "unknown column":
        cols = ("9",) + cols[1:]
    else:
        rows = (rows[1],) + rows[1:]
    return m, label_cover(((rows, cols),) + members[1:])


BROKEN_COVER_TEXT = "cover failed verification: 1 malformed, 3 missing, 0 overlapping"
BROKEN_KINDS = ["unknown row", "unknown column", "repeated row"]
DROPPED_COVER_TEXT = "cover failed verification: 0 malformed, 3 missing, 0 overlapping"


@pytest.mark.parametrize("kind", BROKEN_KINDS + ["dropped member"])
@pytest.mark.parametrize("call", [
    "cover_index", "pipeline default", "pipeline explicit", "pipeline partial",
    "straggler default", "straggler balanced", "straggler one down",
])
def test_broken_label_cover_is_a_cover_fault(kind, call, monkeypatch):
    """A malformed member, or a cover that misses entries, is reported as
    the cover fault ``JobSpec.cover_index`` names, never as a KeyError or
    IndexError of a label or index lookup, and before any balancing."""
    from codedmr import balance, straggler_run

    def balanced(*args):
        raise AssertionError("a broken cover was balanced")

    monkeypatch.setattr(balance, "build_sender_plan", balanced)
    m, cover = _broken_man_5_2(kind)
    spec = JobSpec(m, cover, 20, 4)
    plan = {i: rows[1:3] for i, (rows, _) in enumerate(cover_members(man_cover(m)))}
    calls = {
        "cover_index": lambda: spec.cover_index,
        "pipeline default": lambda: run_pipeline(spec),
        "pipeline explicit": lambda: run_pipeline(spec, plan),
        "pipeline partial": lambda: run_pipeline(spec, partial=frozenset({"5"})),
        "straggler default": lambda: straggler_run(spec),
        "straggler balanced": lambda: straggler_run(spec, plan="balanced"),
        "straggler one down": lambda: straggler_run(spec, ("5",)),
    }
    with pytest.raises(ShuffleError) as err:
        calls[call]()
    assert str(err.value) == (DROPPED_COVER_TEXT if kind == "dropped member" else BROKEN_COVER_TEXT)


@pytest.mark.parametrize("kind", BROKEN_KINDS)
def test_balance_counts_skip_unknown_labels(kind):
    """``codedmr verify`` prints these counts: each listed known row counts
    once per time it is listed, unknown labels not at all."""
    from codedmr import balance_preconditions

    m, cover = _broken_man_5_2(kind)
    expected = {k: 0 for k in m.rows}
    for rows, _ in cover_members(cover):
        for k in rows:
            if k in expected:
                expected[k] += 1
    assert balance_preconditions(m, cover).counts == expected


def reference_default_plan(spec, assignment, forbidden=frozenset()):
    """The per-member label loop default_plan replaced."""
    order = {k: i for i, k in enumerate(spec.matrix.rows)}
    plan = {}
    for idx, (rows, _) in enumerate(cover_members(spec.cover)):
        eligible = sorted(
            (k for k in rows if k in assignment.duties and k not in forbidden),
            key=order.__getitem__,
        )
        if len(eligible) < 2:
            raise ShuffleError(f"member {idx} has {len(eligible)} eligible senders, needs 2")
        plan[idx] = (eligible[0], eligible[1])
    return plan


def reference_partial_needs(spec, plan, partial):
    """The per-member label loop partial_straggler_needs replaced."""
    needs = {k: set() for k in partial}
    for idx, (rows, cols) in enumerate(cover_members(spec.cover)):
        for k in rows:
            if k in partial:
                needs[k].update(
                    f for k_j, f in zip(rows, cols)
                    if k_j not in (k, plan[idx][0])
                )
    return needs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(REFERENCE_CASES))), st.data())
def test_default_plan_and_partial_needs_equal_label_loops(case, data):
    """Any survivor set and forbidden set, over a cover permuted within
    each member so that rows are not in row order."""
    m, cover = _reference_case(REFERENCE_CASES[case])
    members = []
    for rows, cols in cover_members(cover):
        order = data.draw(st.permutations(range(len(rows))))
        members.append((tuple(rows[i] for i in order), tuple(cols[i] for i in order)))
    spec = JobSpec(m, label_cover(members), m.K, 4)
    survivors = data.draw(st.lists(st.sampled_from(m.rows), min_size=1, unique=True))
    assignment = LabelAssignment({k: (i + 1,) for i, k in enumerate(survivors)})
    forbidden = frozenset(data.draw(st.lists(st.sampled_from(m.rows), unique=True)))
    rows = [m.row_index(k) for k in forbidden]
    try:
        expected = reference_default_plan(spec, assignment, forbidden)
    except ShuffleError as exc:
        with pytest.raises(ShuffleError) as err:
            default_plan(spec, assignment.rows(spec), rows)
        assert str(err.value) == str(exc)
        return
    plan = default_plan(spec, assignment.rows(spec), rows)
    assert label_plan(spec, plan) == expected
    needs = partial_straggler_needs(spec, plan, rows)
    assert {k: {m.cols[j] for j in np.flatnonzero(needs[m.row_index(k)])} for k in forbidden} == (
        reference_partial_needs(spec, expected, forbidden)
    )
    assert not np.delete(needs, rows, axis=0).any()


def _man_5_2_default_plan():
    """MAN(5,2) at Q=20 and its default plan."""
    spec = JobSpec(man_matrix(5, 2), man_cover(man_matrix(5, 2)), 20, 4)
    return spec, label_plan(spec, default_plan(spec, block_duties(5, range(5), 20)))


@pytest.mark.parametrize("call", ["pipeline", "pipeline partial", "straggler explicit"])
def test_plan_missing_a_member_is_a_shuffle_error(call):
    """Not a KeyError from whichever reader looks the member up first."""
    from codedmr import straggler_run

    spec, plan = _man_5_2_default_plan()
    del plan[3]
    calls = {
        "pipeline": lambda: run_pipeline(spec, plan),
        "pipeline partial": lambda: run_pipeline(spec, plan, partial=frozenset({"5"})),
        "straggler explicit": lambda: straggler_run(spec, (), plan),
    }
    with pytest.raises(ShuffleError) as err:
        calls[call]()
    assert str(err.value) == "sender plan misses member 3"


@pytest.mark.parametrize("value", [("1",), ("1", "2", "3"), "1", None, (1, 2), ("1", None)])
def test_plan_value_not_two_labels_is_a_shuffle_error(value):
    spec, plan = _man_5_2_default_plan()
    plan[2] = value
    with pytest.raises(ShuffleError) as err:
        run_pipeline(spec, plan)
    assert str(err.value) == f"member 2: sender plan gives {value!r}, not two server labels"


@pytest.mark.parametrize("key", [10, -1, "0"])
def test_plan_key_past_the_members_is_a_shuffle_error(key):
    """A key that names no member is an error, not ignored."""
    spec, plan = _man_5_2_default_plan()
    plan[key] = plan[0]
    with pytest.raises(ShuffleError) as err:
        run_pipeline(spec, plan)
    assert str(err.value) == f"sender plan names member {key!r}; the cover has 10 members"


@pytest.mark.parametrize("partial", [frozenset(), frozenset({"5"})])
@pytest.mark.parametrize("explicit", [False, True])
def test_an_explicit_plan_is_read_once_and_a_default_plan_never(monkeypatch, partial, explicit):
    from codedmr import shuffle

    spec, plan = _man_5_2_default_plan()
    if partial:
        senders = default_plan(spec, block_duties(5, range(5), 20), [spec.matrix.row_index("5")])
        plan = label_plan(spec, senders)
    read, calls = shuffle.SenderPlan.from_mapping, []
    monkeypatch.setattr(
        shuffle.SenderPlan, "from_mapping", lambda *args: calls.append(args) or read(*args)
    )
    result = run_pipeline(spec, plan if explicit else None, partial=partial)
    assert result.reduce_result.ok
    assert len(calls) == int(explicit)


def test_a_plan_over_other_labels_is_relabelled_once():
    """A plan read back from its JSON numbers its labels in order of first
    use; the run relabels it over the matrix and sends as the plan the
    balancer built over the matrix's rows.  A label the matrix lacks gets
    a row past K, which no member holds."""
    m = man_matrix(5, 2)
    spec = JobSpec(m, man_cover(m), 5, 4)
    built = build_sender_plan(m, spec.cover)
    read = SenderPlan.from_json(built.to_json())
    assert read.servers != m.rows and plan_pairs(read) == plan_pairs(built)
    a, b = run_pipeline(spec, built), run_pipeline(spec, read)
    assert np.array_equal(a.transcript.senders, b.transcript.senders)
    assert np.array_equal(a.transcript.payloads, b.transcript.payloads)
    # every sender "1" becomes "9", a label the matrix lacks
    unknown = np.where(read.senders == read.servers.index("1"), len(read.servers), read.senders)
    stranger = SenderPlan(read.servers + ("9",), unknown)
    with pytest.raises(ShuffleError) as err:
        run_pipeline(spec, stranger)
    assert str(err.value) == "senders must be participating rows of the member"


@pytest.mark.parametrize("size, text", [
    (9, "sender plan misses member 9"),
    (0, "sender plan misses member 0"),
    (11, "sender plan names member 10; the cover has 10 members"),
])
def test_a_plan_of_the_wrong_size_is_rejected_before_the_map_work(size, text):
    """The texts of a label mapping missing that member, or with a key
    past the members."""
    spec, _ = _man_5_2_default_plan()
    senders = np.resize(default_plan(spec, block_duties(5, range(5), 20)), (size, 2))
    with pytest.raises(ShuffleError) as err:
        run_pipeline(spec, SenderPlan(spec.matrix.rows, senders))
    assert str(err.value) == text
    assert "ivas" not in spec.__dict__


def test_a_plan_missing_its_last_member_is_rejected_before_the_map_work():
    """The plan is read before ``JobSpec.ivas``, the map work, is built."""
    spec, plan = _man_5_2_default_plan()
    del plan[len(plan) - 1]
    with pytest.raises(ShuffleError) as err:
        run_pipeline(spec, plan)
    assert str(err.value) == f"sender plan misses member {len(plan)}"
    assert "ivas" not in spec.__dict__
