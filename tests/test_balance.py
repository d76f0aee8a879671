import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmr import (
    FormatError,
    JobSpec,
    SenderPlan,
    audit_plan,
    balance_preconditions,
    build_sender_plan,
    fano_matrix,
    man_cover,
    man_matrix,
    perfect_matching,
    run_pipeline,
    search_cover,
    transversal_cover,
    transversal_matrix,
)
from codedmr import balance
from codedmr.balance import BalanceError
from conftest import cover_members, label_cover, plan_pairs
from test_shuffle import transcript_bits


def balanceable(report):
    """Whether a BalanceReport meets all three hypotheses build_sender_plan
    checks: integral gamma, regular appearances and the same h >= 2 rows
    of the set in every member."""
    return (
        report.gamma_integral
        and report.row_regular
        and report.member_rows is not None
        and report.member_rows >= 2
    )


def sent_members(plan, server):
    """The members whose coded and whose uncoded broadcast *server* sends."""
    coded = [i for i, (c, _) in enumerate(plan_pairs(plan)) if c == server]
    uncoded = [i for i, (_, u) in enumerate(plan_pairs(plan)) if u == server]
    return coded, uncoded


def replicated_graph(cover, servers, gamma):
    """gamma copies of each server, joined to the members it appears in."""
    return {
        (k, j): tuple(i for i, (rows, _) in enumerate(cover_members(cover)) if k in rows)
        for k in servers
        for j in range(gamma)
    }


def match(adj):
    """``perfect_matching`` on an adjacency dict, returned as ``{right:
    left}``: the dict becomes the (L, R) array of listing counts over its
    sorted rights, with the left vertices as rows in the dict's order."""
    left = list(adj)
    rights = sorted({r for rs in adj.values() for r in rs})
    column = {r: i for i, r in enumerate(rights)}
    incidence = np.zeros((len(left), len(rights)), dtype=np.intp)
    for k, l in enumerate(left):
        for r in adj[l]:
            incidence[k, column[r]] += 1
    return {r: left[k] for r, k in zip(rights, perfect_matching(incidence))}


def drop_first_row_of_each_member(m, cover):
    """Survivors once the first row of every member has failed."""
    dropped = {rows[0] for rows, _ in cover_members(cover)}
    return tuple(k for k in m.rows if k not in dropped)


class TestPreconditions:
    def test_fano_gamma_one_regular(self, fano_pair):
        m, cover = fano_pair
        report = balance_preconditions(m, cover)
        assert balanceable(report)
        assert report.gamma == 1
        assert set(report.counts.values()) == {3}

    def test_man_5_2_gamma_two(self):
        m = man_matrix(5, 2)
        report = balance_preconditions(m, man_cover(m))
        assert balanceable(report)
        assert report.gamma == 2
        assert set(report.counts.values()) == {6}

    def test_non_integral_gamma_unavailable(self, fano_pair):
        m, cover = fano_pair
        # drop two members: S=5 against K=7
        partial = label_cover(cover_members(cover)[:5])
        report = balance_preconditions(m, partial)
        assert not report.gamma_integral
        with pytest.raises(BalanceError, match="integer"):
            build_sender_plan(m, partial)

    def test_survivor_set_gamma_not_integral(self):
        # TD(3,3) without the intercept-0 block of each slope: every member
        # keeps 2 surviving rows and every survivor lies in 3 members, but
        # S=9 members over 6 survivors
        m = transversal_matrix(3, 3)
        cover = transversal_cover(m)
        survivors = drop_first_row_of_each_member(m, cover)
        report = balance_preconditions(m, cover, survivors)
        assert report.row_regular and report.member_rows == 2
        assert report.gamma == Fraction(9, 6) and not balanceable(report)
        with pytest.raises(BalanceError, match="integer"):
            build_sender_plan(m, cover, survivors)

    def test_survivor_set_rows_per_member_differ(self):
        # MAN(6,2) without server "6": S=20 members over 5 survivors, but
        # members keep 2 or 3 surviving rows
        m = man_matrix(6, 2)
        report = balance_preconditions(m, man_cover(m), m.rows[:5])
        assert report.gamma_integral and report.row_regular
        assert report.member_rows is None and not balanceable(report)
        with pytest.raises(BalanceError, match="same number"):
            build_sender_plan(m, man_cover(m), m.rows[:5])

    def test_servers_must_be_distinct_matrix_rows(self, fano_pair):
        m, cover = fano_pair
        for servers in [(), ("1", "1", "2"), ("1", "nope")]:
            with pytest.raises(ValueError, match="matrix rows"):
                build_sender_plan(m, cover, servers)


class TestPerfectMatching:
    def test_fano_graph(self, fano_pair):
        m, cover = fano_pair
        matching = match(replicated_graph(cover, m.rows, 1))
        assert len(matching) == 7
        assert len(set(matching.values())) == 7

    def test_one_regular_graph_unique_matching(self):
        adj = {"a": ["x"], "b": ["y"]}
        assert match(adj) == {"x": "a", "y": "b"}

    def test_man_5_2_graph(self):
        m = man_matrix(5, 2)
        cover = man_cover(m)
        matching = match(replicated_graph(cover, m.rows, 2))
        assert len(matching) == 10
        assert len(set(matching.values())) == 10

    def test_unequal_sides_rejected(self):
        with pytest.raises(BalanceError, match="sides"):
            match({"a": ["x", "y"], "b": ["x", "y"], "c": ["x", "y"]})

    def test_irregular_graph_rejected(self):
        with pytest.raises(BalanceError, match="regular"):
            match({"a": ["x", "y"], "b": ["y"]})

    def test_deterministic(self, fano_pair):
        m, cover = fano_pair
        graph = replicated_graph(cover, m.rows, 1)
        assert match(graph) == match(graph)


class TestResidualGraph:
    def test_residual_degree_gamma_g_minus_1(self, fano_pair):
        m, cover = fano_pair
        graph = replicated_graph(cover, m.rows, 1)
        first = match(graph)
        coded = {member: left[0] for member, left in first.items()}
        # build_sender_plan takes its coded duties from this first matching
        plan = build_sender_plan(m, cover)
        assert [c for c, _ in plan_pairs(plan)] == [coded[i] for i in range(cover.size)]
        residual = {
            left: tuple(i for i in members if coded[i] != left[0])
            for left, members in graph.items()
        }
        for left, members in residual.items():
            assert len(members) == 1 * (3 - 1)
        right_deg = {}
        for members in residual.values():
            for i in members:
                right_deg[i] = right_deg.get(i, 0) + 1
        assert set(right_deg.values()) == {2}


class TestBuildSenderPlan:
    def test_fano_each_server_one_of_each(self, fano_pair):
        m, cover = fano_pair
        plan = build_sender_plan(m, cover)
        for k in m.rows:
            coded, uncoded = sent_members(plan, k)
            assert len(coded) == len(uncoded) == 1
            assert not set(coded) & set(uncoded)
        for coded, uncoded in plan_pairs(plan):
            assert coded != uncoded

    def test_man_5_2_audit_byte_counts(self):
        m = man_matrix(5, 2)
        cover = man_cover(m)
        plan = build_sender_plan(m, cover)
        spec = JobSpec(m, cover, 5, 8)
        result = run_pipeline(spec, plan)
        audit = audit_plan(plan, result.transcript)
        assert audit.balanced
        # 2 S beta T / K = 2*10*1*8/5 = 32 bytes per server, split 16 + 16
        assert audit.expected_each == Fraction(16)
        assert all(cb == 16 and ub == 16 for cb, ub in audit.per_server.values())
        sent, _ = transcript_bits(spec, result.transcript)
        assert all(sent[k] == 32 * 8 for k in m.rows)

    def test_g2_cover_with_gamma1_plan_exists(self):
        # K=3, r=1: S=3 size-2 members, gamma=1, residual graph 1-regular
        m = man_matrix(3, 1)
        cover = man_cover(m)
        plan = build_sender_plan(m, cover)
        assert len(plan_pairs(plan)) == 3
        for coded, uncoded in plan_pairs(plan):
            assert coded != uncoded

    def test_plan_is_deterministic(self, fano_pair):
        m, cover = fano_pair
        assert plan_pairs(build_sender_plan(m, cover)) == plan_pairs(build_sender_plan(m, cover))

    def test_survivor_set_plan_on_transversal(self):
        # TD(2,3): members are the (group, slope) pairs, rows the 3 blocks
        # of a slope.  Dropping the intercept-0 block of every slope leaves
        # each member 2 surviving rows, so gamma = 6/6 = 1.
        m = transversal_matrix(2, 3)
        cover = transversal_cover(m)
        survivors = drop_first_row_of_each_member(m, cover)
        assert len(survivors) == 6
        assert balanceable(balance_preconditions(m, cover, survivors))
        plan = build_sender_plan(m, cover, survivors)
        for k in survivors:
            coded, uncoded = sent_members(plan, k)
            assert len(coded) == len(uncoded) == 1
        for i, (coded, uncoded) in enumerate(plan_pairs(plan)):
            assert coded != uncoded
            assert {coded, uncoded} <= set(cover_members(cover)[i][0]) & set(survivors)

    def test_two_matchings_over_server_classes(self, monkeypatch):
        # one row per server, not gamma = 77 copies of each
        calls = []

        def recording(incidence):
            calls.append(incidence.sum(axis=1).tolist())
            return perfect_matching(incidence)

        monkeypatch.setattr(balance, "perfect_matching", recording)
        m = man_matrix(12, 5)
        build_sender_plan(m, man_cover(m))
        # every server lies in C(11,5) = 462 members and codes for 924/12 of them
        assert calls == [[462] * 12, [462 - 77] * 12]

    def test_plan_json_round_trip(self, fano_pair):
        m, cover = fano_pair
        plan = build_sender_plan(m, cover)
        assert plan_pairs(SenderPlan.from_json(plan.to_json())) == plan_pairs(plan)


class TestAudit:
    def test_default_plan_is_unbalanced_on_fano(self, fano_pair):
        m, cover = fano_pair
        spec = JobSpec(m, cover, 7, 16)
        plan = build_sender_plan(m, cover)
        default_result = run_pipeline(spec)     # first-two-rows plan
        audit = audit_plan(plan, default_result.transcript)
        assert not audit.balanced

    def test_empty_transcript_fails_audit(self, fano_pair):
        from codedmr.shuffle import ShuffleTranscript

        m, cover = fano_pair
        plan = build_sender_plan(m, cover)
        empty = ShuffleTranscript(
            m.rows, np.empty((0, 2), dtype=np.intp), np.empty((0, 2, 16), dtype=np.uint8)
        )
        assert not audit_plan(plan, empty).balanced

    def test_balanced_verdict_on_fano(self, fano_pair):
        m, cover = fano_pair
        spec = JobSpec(m, cover, 7, 16)
        plan = build_sender_plan(m, cover)
        result = run_pipeline(spec, plan)
        audit = audit_plan(plan, result.transcript)
        assert audit.balanced
        assert result.reduce_result.ok


# sha256 of SenderPlan.to_json(), taken before the balancer was rewritten.
PLAN_SHA256 = {
    "fano": "41795bc5c89afa51e1f6101197c590412648f6838ae085eb6a77f6829e746304",
    "MAN(5,2)": "28e1695b47dbdb8cbf625f05f837b1d95ea2abb8570a54eff0890a7bbd43ed90",
    "MAN(11,4)": "acc2811f75c486efc83269f6905cd8d80e709acff22a5785ca933a776b27f273",
    "MAN(12,5)": "712f3f906e70679a22001a5e04b586193152816095b9bb76f7764f7f322674fe",
    "MAN(13,5)": "b2144c908f75cbff09aa64cbde86d7fb31c8dab5a6a3fab93dada937f37d3759",
    # the survivor-set plan of test_survivor_set_plan_on_transversal
    "TD(2,3) survivors": "d3ca73b8f6a914a2e34b89fda2c3afb06287b251ee668283f95127759f0ce837",
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PLAN_SHA256))
    def test_plan_json_sha256(self, name, fano_pair):
        servers = None
        if name == "fano":
            m, cover = fano_pair
        elif name == "TD(2,3) survivors":
            m = transversal_matrix(2, 3)
            cover = transversal_cover(m)
            servers = drop_first_row_of_each_member(m, cover)
        else:
            K, r = map(int, name[4:-1].split(","))
            m = man_matrix(K, r)
            cover = man_cover(m)
        text = build_sender_plan(m, cover, servers).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == PLAN_SHA256[name]

    def test_straggler_balanced_duties_man_5_2(self):
        from codedmr import straggler_run

        m = man_matrix(5, 2)
        spec = JobSpec(m, man_cover(m), 5, 4)
        result = straggler_run(spec, plan="balanced")
        assert result.plan_mode == "balanced"
        tx = result.transcript.transmissions
        assert [(t.member, t.kind) for t in tx] == [
            (i, kind) for i in range(10) for kind in ("coded", "uncoded")
        ]
        duties = [(tx[2 * i].sender, tx[2 * i + 1].sender) for i in range(10)]
        assert duties == [
            ("1", "3"), ("1", "2"), ("5", "1"), ("4", "1"), ("5", "3"),
            ("4", "5"), ("3", "2"), ("2", "5"), ("2", "4"), ("3", "4"),
        ]


# sha256 of the transcript log of ``straggler_run(spec, plan="balanced")``,
# taken while a balanced plan still went through a label mapping.
BALANCED_RUN_SHA256 = {
    "MAN(5,2)": "8a094660df48e46cb6390a059e56524d6a1a9fb4779032598f4b826fdb03691b",
    "fano": "068ee2e5d7402ff704183794ce39181f2a7cbbf11ef7125fa894957482618663",
}


@pytest.mark.parametrize("name", sorted(BALANCED_RUN_SHA256))
def test_a_balanced_run_makes_no_label_round_trip(name, monkeypatch, fano_pair):
    """``build_sender_plan`` gives rows over the matrix's labels, which
    ``straggler_run`` and ``run_pipeline`` pass on as they are: neither
    the label view nor the label reader of a plan is called."""
    from codedmr import straggler_run
    from codedmr.shuffle import transcript_log

    def refuse(*args):
        raise AssertionError("a balanced run read its plan as labels")

    if name == "fano":
        m, cover = fano_pair
        spec = JobSpec(m, cover, 7, 16)
    else:
        m = man_matrix(5, 2)
        spec = JobSpec(m, man_cover(m), 5, 4)
    monkeypatch.setattr(SenderPlan, "as_mapping", refuse)
    monkeypatch.setattr(SenderPlan, "from_mapping", refuse)
    result = straggler_run(spec, plan="balanced")
    assert result.plan_mode == "balanced" and result.plan.servers is m.rows
    assert result.reduce_result.ok
    assert audit_plan(result.plan, result.transcript).balanced
    digest = hashlib.sha256(transcript_log(spec, result.transcript)).hexdigest()
    assert digest == BALANCED_RUN_SHA256[name]


def test_deep_augmenting_paths_stay_within_recursion_limit():
    """MAN(13,5) needs augmenting paths 1,625 copies deep on the graph of
    132 copies per server, past the interpreter's default recursion limit
    of 1,000.  The search on server classes walks the same paths with the
    runs through a class's own rights folded away: they reach 837 servers
    in the first matching and 885 in the second."""
    m = man_matrix(13, 5)
    cover = man_cover(m)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        plan = build_sender_plan(m, cover)
    finally:
        sys.setrecursionlimit(limit)
    result = run_pipeline(JobSpec(m, cover, 13, 1), plan)
    assert audit_plan(plan, result.transcript).balanced
    assert result.reduce_result.ok


def reference_matching(adj):
    """Recursive augmenting-path search, neighbours in list order."""
    owner = {}

    def augment(l, visited):
        for r in adj[l]:
            if r not in visited:
                visited.add(r)
                if r not in owner or augment(owner[r], visited):
                    owner[r] = l
                    return True
        return False

    for l in adj:
        assert augment(l, set())
    return {l: r for r, l in owner.items()}


@st.composite
def regular_graphs(draw):
    """Union of d edge-disjoint permutations of n right vertices, as
    sorted adjacency lists keyed in a drawn left order."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, n))
    shifts = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d, unique=True))
    rho = draw(st.permutations(range(n)))
    pi = draw(st.permutations(range(n)))
    return {f"l{i}": sorted(pi[(rho[i] + s) % n] for s in shifts) for i in range(n)}


@settings(max_examples=100, deadline=None)
@given(regular_graphs(), st.randoms(use_true_random=False))
def test_perfect_matching_equals_recursive_reference(adj, rng):
    expected = {r: l for l, r in reference_matching(adj).items()}
    assert match(adj) == expected
    # neighbours are visited smallest first, whatever their listed order
    shuffled = {l: rng.sample(rs, len(rs)) for l, rs in adj.items()}
    assert match(shuffled) == expected
    assert sorted(expected) == list(range(len(adj)))


@st.composite
def biregular_graphs(draw):
    """n left vertices of gamma slots each, joined to n*gamma rights by a
    union of slot permutations; a permutation that would repeat an edge
    is dropped, so the first one always stays."""
    n = draw(st.integers(1, 8))
    gamma = draw(st.integers(1, 6))
    edges: set[tuple[int, int]] = set()
    for _ in range(draw(st.integers(1, n))):
        pi = draw(st.permutations(range(n * gamma)))
        new = {(s // gamma, pi[s]) for s in range(n * gamma)}
        if not new & edges:
            edges |= new
    return gamma, {f"l{i}": sorted(r for l, r in edges if l == i) for i in range(n)}


@settings(max_examples=200, deadline=None)
@given(biregular_graphs())
def test_class_matching_equals_reference_on_copies(drawn):
    gamma, adj = drawn
    copies = {(l, j): rs for l, rs in adj.items() for j in range(gamma)}
    expected = {r: copy[0] for copy, r in reference_matching(copies).items()}
    assert match(adj) == expected
    assert sorted(expected) == list(range(len(adj) * gamma))


def reference_class_matching(adj):
    """The class-level Kuhn search as it stood before its masks were
    precomputed: the seen set grows by an OR per step and the path is
    flipped with a shift per right.  It returns ``{right: left}``."""
    left = list(adj)
    rights = sorted({r for l in left for r in adj[l]})
    if len(rights) < len(left) or len(rights) % max(len(left), 1):
        raise BalanceError(
            f"sides differ: {len(rights)} right vertices are not a positive "
            f"multiple of {len(left)} left"
        )
    left_degrees = {len(adj[l]) for l in left}
    right_degrees = set(Counter(r for l in left for r in adj[l]).values())
    if len(left_degrees) != 1 or len(right_degrees) != 1:
        raise BalanceError(
            f"graph is not biregular (left degrees {sorted(left_degrees)}, "
            f"right degrees {sorted(right_degrees)})"
        )

    bit = {r: 1 << i for i, r in enumerate(rights)}
    nbrs = [sum(bit[r] for r in set(adj[l])) for l in left]
    avail = nbrs[:]
    owner = [-1] * len(rights)
    share = len(rights) // len(left)
    for root in (k for k in range(len(left)) for _ in range(share)):
        seen = 0
        path = [root]
        taken: list[int] = []
        while path:
            k = path[-1]
            free = avail[k] & ~seen
            if not free:
                seen |= nbrs[k]
                path.pop()
                if taken:
                    taken.pop()
                continue
            low = free & -free
            seen |= nbrs[k] & ((low << 1) - 1)
            r = low.bit_length() - 1
            taken.append(r)
            if owner[r] < 0:
                for l, rr in zip(path, taken):
                    if owner[rr] >= 0:
                        avail[owner[rr]] |= 1 << rr
                    avail[l] &= ~(1 << rr)
                    owner[rr] = l
                break
            path.append(owner[r])
        else:
            raise RuntimeError("no perfect matching found")
    return {r: left[owner[i]] for i, r in enumerate(rights)}


def _outcome(matching, adj):
    """The matching, or the type and text of the error it raised."""
    try:
        return matching(adj)
    except BalanceError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(biregular_graphs())
def test_class_matching_equals_reference_kernel(drawn):
    """The masked kernel makes the reference's choices on the graph and on
    its residual after the first matching, the second call's input; the
    residual of a one-permutation graph is empty, and both reject it."""
    _, adj = drawn
    first = match(adj)
    assert first == reference_class_matching(adj)
    residual = {l: [r for r in rs if first[r] != l] for l, rs in adj.items()}
    assert _outcome(match, residual) == _outcome(
        reference_class_matching, residual
    )


@pytest.mark.parametrize("adj, first", [
    ({0: [0, 1, 3], 1: [0, 1, 2], 2: [1, 2, 3], 3: [0, 2, 3]}, [3, 0, 1, 2]),
    ({0: [0, 1, 2], 1: [0, 1, 3], 2: [1, 3, 4], 3: [2, 3, 4], 4: [0, 2, 4]}, [4, 0, 3, 1, 2]),
])
def test_class_matching_backs_up_from_a_dead_end(adj, first):
    """The first matching of each 3-regular graph meets a dead end: the
    last root walks three columns to a class with no unseen column left,
    and the search backs up one column, to the class that took it.  On
    the 5x5 graph a back-up to the root, or one column further, gives
    another matching.  Random graphs do not always reach that branch.
    Both matchings equal the reference's."""
    assert match(adj) == reference_class_matching(adj) == dict(enumerate(first))
    residual = {l: [r for r in rs if first[r] != l] for l, rs in adj.items()}
    assert match(residual) == reference_class_matching(residual)


_labels = st.text(max_size=4)
_duties = st.lists(st.tuples(_labels, _labels), max_size=12).map(tuple)


@pytest.mark.parametrize("senders", [[0, 1], [[0, 1, 0]], [[[0, 1]]], []])
def test_a_sender_plan_not_of_shape_S_by_2_is_a_value_error(senders):
    with pytest.raises(ValueError, match=r"senders must be an \(S, 2\) array"):
        SenderPlan(("a", "b"), senders)


@pytest.mark.parametrize("senders", [[[0, 5]], [[-1, 0]]])
def test_a_sender_index_outside_the_labels_is_a_value_error(senders):
    """Index 5 once raised IndexError in ``to_json``, and -1 wrapped
    round to the last label."""
    with pytest.raises(ValueError, match=r"sender indices must lie in \[0, 1\)"):
        SenderPlan(("a",), senders)


def pairs_plan(duties):
    """The plan whose member i sends the label pair ``duties[i]``."""
    return SenderPlan.from_mapping(dict(enumerate(duties)), len(duties))


@settings(max_examples=100, deadline=None)
@given(_duties)
def test_plan_json_round_trips(duties):
    """The labels are numbered in order of first use, on either read."""
    plan = SenderPlan.from_json(pairs_plan(duties).to_json())
    assert plan_pairs(plan) == duties
    assert plan.servers == tuple(dict.fromkeys(k for pair in duties for k in pair))
    assert plan.senders.shape == (len(duties), 2) and not plan.senders.flags.writeable


@settings(max_examples=100, deadline=None)
@given(_duties.filter(len), st.data())
def test_plan_json_without_a_key_or_field_is_a_format_error(duties, data):
    """Deleting a member other than the last, or a field of any member,
    leaves no plan; deleting the last member leaves the plan of the others,
    whose run then misses that member (``run_pipeline``)."""
    payload = json.loads(pairs_plan(duties).to_json())
    member = data.draw(st.sampled_from(sorted(payload, key=int)))
    field = data.draw(st.sampled_from([None, "coded", "uncoded"]))
    if field is not None:
        del payload[member][field]
    elif int(member) == len(duties) - 1:
        del payload[member]
        assert plan_pairs(SenderPlan.from_json(json.dumps(payload))) == duties[:-1]
        return
    else:
        del payload[member]
    with pytest.raises(FormatError):
        SenderPlan.from_json(json.dumps(payload))


@pytest.mark.parametrize("text", [
    "", "{", "[" * 100_000, "[]", '""', "3", '"0"', '{"0": 5}', '{"0": {"coded": 1, "uncoded": "2"}}',
    '{"0": {"coded": "1"}}', '{"1": {"coded": "1", "uncoded": "2"}}',
    '{"00": {"coded": "1", "uncoded": "2"}}',
], ids=lambda text: text[:40] if len(text) < 100 else "deeply nested")
def test_plan_json_malformed_is_a_format_error(text):
    with pytest.raises(FormatError):
        SenderPlan.from_json(text)
