import dataclasses
import functools
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from codedmr import (
    BalanceError,
    FormatError,
    IdentityCover,
    IdentitySubmatrix,
    JobSpec,
    ReduceAssignment,
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
    round_for_member,
    search_cover,
    synth_map,
    transversal_cover,
    transversal_matrix,
)
from codedmr.shuffle import (
    ShuffleTranscript,
    default_plan,
    load_transcript,
    make_subfile,
    partial_straggler_needs,
    reduce_digest,
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
        member = IdentitySubmatrix(("3", "5", "7"), ("234", "256", "127"))
        spec = dataclasses.replace(spec, cover=IdentityCover((member, member)))
        duties = ReduceAssignment({k: (int(k), int(k) + 7) for k in spec.matrix.rows})
        store = run_map_phase(spec)
        tx_coded, tx_uncoded = round_for_member(spec, 0, duties, store, "3", "5")

        sub = {f: make_subfile(0, f, 64) for f in spec.matrix.cols}
        iva = lambda q, f: synth_map(q, f, sub[f], 8)
        assert tx_coded.payload == (
            _xor(iva(5, "256"), iva(7, "127")) + _xor(iva(12, "256"), iva(14, "127"))
        )
        assert tx_uncoded.payload == iva(3, "234") + iva(10, "234")
        # server 7 cancels its locally mapped values of 256 to decode 127;
        # received values are kept per function q
        col = spec.matrix.col_index
        assert store.received[[6, 13], col("127")].tobytes() == iva(7, "127") + iva(14, "127")
        assert store.received[5 - 1, col("256")].tobytes() == iva(5, "256")
        assert store.received[3 - 1, col("234")].tobytes() == iva(3, "234")

    def test_size_two_member_degenerates_to_uncoded(self):
        m = man_matrix(3, 1)
        cover = man_cover(m)
        spec = JobSpec(m, cover, 3, 4)
        duties = ReduceAssignment.block_partition(m.rows, 3)
        store = run_map_phase(spec)
        member = cover.members[0]
        tx_coded, _ = round_for_member(
            spec, 0, duties, store, member.rows[0], member.rows[1]
        )
        other = member.rows[1]
        f_other = member.cols[1]
        q_other = duties.duties[other][0]
        sub = make_subfile(0, f_other, 64)
        assert tx_coded.payload == synth_map(q_other, f_other, sub, 4)

    def test_senders_must_differ_and_belong(self):
        spec = fano_spec()
        duties = ReduceAssignment.block_partition(spec.matrix.rows, 7)
        store = run_map_phase(spec)
        member = spec.cover.members[0]
        with pytest.raises(ShuffleError):
            round_for_member(spec, 0, duties, store, member.rows[0], member.rows[0])
        outsider = next(k for k in spec.matrix.rows if k not in member.rows)
        with pytest.raises(ShuffleError):
            round_for_member(spec, 0, duties, store, member.rows[0], outsider)

    def test_missing_mapped_value_signals_inconsistency(self):
        spec = fano_spec()
        duties = ReduceAssignment.block_partition(spec.matrix.rows, 7)
        member = spec.cover.members[0]
        store = run_map_phase(spec, subfile_filter={member.rows[0]: set()})
        with pytest.raises(ShuffleError, match="lacks mapped value"):
            round_for_member(spec, 0, duties, store, member.rows[0], member.rows[1])


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
        store = run_map_phase(broken)
        with pytest.raises(ShuffleError, match="cover failed verification"):
            run_shuffle(broken, duties, store)

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
    member = spec.cover.members[member_index]
    col_of = dict(zip(member.rows, member.cols))
    active = [k for k in member.rows if k in assignment.duties]
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
    cols = np.array([m.col_index(col_of[k]) for k in others])
    values = spec.ivas[np.array([assignment.duties[k] for k in others]) - 1, cols[:, None]]
    f_p = m.col_index(col_of[coded_sender])
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
    if spec.cover_fault is not None:
        raise ShuffleError(f"cover failed verification: {spec.cover_fault}")
    if plan is None:
        plan = default_plan(spec, assignment)
    transmissions = []
    sent_bits = {k: 0 for k in spec.matrix.rows}
    received_bits = {k: 0 for k in spec.matrix.rows}
    for idx, member in enumerate(spec.cover.members):
        pair = reference_round(spec, idx, assignment, states, *plan[idx], tamper)
        for tx in pair:
            transmissions.append(tx)
            sent_bits[tx.sender] += len(tx.payload) * 8
            for k in member.rows:
                if k in assignment.duties and k != tx.sender:
                    received_bits[k] += len(tx.payload) * 8
    m = spec.matrix
    for k, duties in assignment.duties.items():
        lacking = m.bits[m.row_index(k)].astype(bool)
        lacking[list(states[k].received)] = False
        if lacking.any():
            f = m.cols[int(np.argmax(lacking))]
            raise ShuffleError(f"server {k!r} is still missing (q={duties[0]}, f={f!r}) after shuffle")
    return ShuffleTranscript(
        tuple(transmissions), m.rows, assignment.beta * spec.iva_bytes, sent_bits, received_bits
    )


def reference_reduce(spec, assignment, states):
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
            outputs[(k, duties[b])] = reduce_digest(duties[b], [v.tobytes() for v in held[b]])
    return outputs, mismatches


def reference_pipeline(spec, plan=None, tamper=None, stragglers=(), partial=frozenset()):
    """``run_pipeline``'s sequence over the reference engine."""
    stragglers = set(stragglers)
    survivors = [k for k in spec.matrix.rows if k not in stragglers]
    assignment = ReduceAssignment.block_partition(survivors, spec.num_functions)
    if plan is None:
        plan = default_plan(spec, assignment, forbidden=partial)
    for idx, (cs, us) in plan.items():
        if cs in partial or us in partial:
            raise ShuffleError(f"member {idx}: sender plan uses a partial straggler")
    needs = partial_straggler_needs(spec, plan, partial)
    states = reference_map(spec, {**{k: set() for k in stragglers}, **needs})
    transcript = reference_shuffle(spec, assignment, states, plan, tamper)
    for k in partial:
        states[k].mapped = spec.matrix.bits[spec.matrix.row_index(k)] == 0
    return transcript, reference_reduce(spec, assignment, states)


def _records(transcript):
    return [(tx.sender, tx.member, tx.kind, tx.payload) for tx in transcript.transmissions]


def _summary(transcript, outputs, mismatches):
    return (
        _records(transcript), transcript.payload_bytes,
        transcript.sent_bits, transcript.received_bits, outputs, mismatches,
    )


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
    return _summary(result.transcript, r.outputs, r.mismatches)


def _reference_pipeline(spec, **kwargs):
    transcript, (outputs, mismatches) = reference_pipeline(spec, **kwargs)
    return _summary(transcript, outputs, mismatches)


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
            plan = build_sender_plan(m, cover, survivors).as_mapping()
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


@settings(max_examples=150, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_pipeline_equals_per_member_reference(job, data):
    spec, plan, stragglers, partial = job
    tamper = None
    if data.draw(st.booleans(), label="tamper"):
        tamper = _flip(
            data.draw(st.integers(0, spec.cover.size - 1), label="member"),
            data.draw(st.sampled_from(("coded", "uncoded")), label="kind"),
            data.draw(st.integers(0, 10**4), label="offset"),
            data.draw(st.integers(1, 255), label="flip"),
        )
    kwargs = dict(plan=plan, tamper=tamper, stragglers=stragglers, partial=partial)
    got = _outcome(lambda: _library_pipeline(spec, **kwargs))
    assert got == _outcome(lambda: _reference_pipeline(spec, **kwargs))
    event("rejected" if got[0] in (ShuffleError, ValueError) else
          "mismatches" if got[-1] else "reduced ok")
    if not stragglers and not partial and plan is None:
        assert got[0] != ShuffleError   # the plain run always completes


def _library_phases(spec, assignment, subfile_filter, plan):
    store = run_map_phase(spec, subfile_filter)
    transcript = run_shuffle(spec, assignment, store, plan)
    r = run_reduce(spec, assignment, store)
    return _summary(transcript, r.outputs, r.mismatches)


def _reference_phases(spec, assignment, subfile_filter, plan):
    states = reference_map(spec, subfile_filter)
    transcript = reference_shuffle(spec, assignment, states, plan)
    return _summary(transcript, *reference_reduce(spec, assignment, states))


@settings(max_examples=60, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_dropped_mapped_columns_fail_as_in_the_reference(job, data):
    spec, plan, stragglers, _ = job
    m = spec.matrix
    k = data.draw(st.sampled_from(m.rows), label="server")
    kept = data.draw(st.sets(st.sampled_from(m.zeros_in_row(k))), label="kept")
    survivors = [s for s in m.rows if s not in stragglers]
    assignment = ReduceAssignment.block_partition(survivors, spec.num_functions)
    if plan is None:
        plan = default_plan(spec, assignment)
    subfile_filter = {**{s: set() for s in stragglers}, k: kept}
    args = (spec, assignment, subfile_filter, plan)
    got = _outcome(lambda: _library_phases(*args))
    assert got == _outcome(lambda: _reference_phases(*args))
    event("rejected" if got[0] is ShuffleError else
          "mismatches" if got[-1] else "reduced ok")


@settings(max_examples=60, deadline=None)
@given(job=reference_jobs(), data=st.data())
def test_bad_senders_fail_as_in_the_reference(job, data):
    spec, plan, stragglers, _ = job
    survivors = [k for k in spec.matrix.rows if k not in stragglers]
    assignment = ReduceAssignment.block_partition(survivors, spec.num_functions)
    plan = dict(plan or default_plan(spec, assignment))
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
