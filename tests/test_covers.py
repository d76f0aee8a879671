import hashlib
import random
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmr import (
    BinaryComputingMatrix,
    CoverBudgetError,
    CoverInfeasibleError,
    IdentityCover,
    IdentitySubmatrix,
    balance_preconditions,
    count_identity_check,
    fano_matrix,
    man_cover,
    man_matrix,
    search_cover,
    t_subset_cover,
    t_subset_matrix,
    transversal_cover,
    transversal_matrix,
    verify_cover,
)
from codedmr.covers import MatrixShapeError
from codedmr.matrix import format_cover

from test_constructions import pg2_3_design
from codedmr import bibd_matrix


class TestManCover:
    def test_5_2(self):
        m = man_matrix(5, 2)
        cover = man_cover(m)
        assert cover.size == 10 and cover.uniform_size == 3
        assert verify_cover(m, cover).ok
        assert count_identity_check(cover, m)

    def test_3_2_single_member(self):
        m = man_matrix(3, 2)
        cover = man_cover(m)
        assert cover.size == 1
        assert set(cover.members[0].rows) == {"1", "2", "3"}
        assert set(cover.members[0].cols) == set(m.cols)

    def test_7_4(self):
        m = man_matrix(7, 4)
        cover = man_cover(m)
        assert cover.size == comb(7, 5) == 21
        assert cover.uniform_size == 5
        assert verify_cover(m, cover).ok

    def test_rejects_non_man_matrix(self):
        with pytest.raises(MatrixShapeError):
            man_cover(fano_matrix())


class TestTSubsetCover:
    def test_7_3(self):
        m = t_subset_matrix(7, 3)
        cover = t_subset_cover(m)
        assert cover.size == comb(7, 2) == 21
        assert cover.uniform_size == 5
        assert verify_cover(m, cover).ok
        assert cover.size * 5 == m.N * (m.K - m.r) == 105

    def test_t1_is_one_full_size_member(self):
        m = t_subset_matrix(5, 1)
        cover = t_subset_cover(m)
        assert cover.size == 1 and cover.uniform_size == 5

    def test_5_3_maps_to_man_cover_under_complement(self):
        tm = t_subset_matrix(5, 3)
        mm = man_matrix(5, 2)
        t_pairs = {
            frozenset(
                (k, frozenset(f.split("-")) if "-" in f else frozenset(f))
                for k, f in member.pairs()
            )
            for member in t_subset_cover(tm).members
        }
        universe = {str(i) for i in range(1, 6)}
        man_pairs = {
            frozenset(
                (k, frozenset(universe - (set(f.split("-")) if "-" in f else set(f))))
                for k, f in member.pairs()
            )
            for member in man_cover(mm).members
        }
        assert t_pairs == man_pairs


class TestTransversalCover:
    @pytest.mark.parametrize("k,n", [(2, 2), (3, 3), (2, 5), (5, 5)])
    def test_analytic_cover(self, k, n):
        m = transversal_matrix(k, n)
        cover = transversal_cover(m)
        assert cover.uniform_size == n
        assert cover.size == k * n
        assert verify_cover(m, cover).ok
        assert count_identity_check(cover, m)


class TestSearchCover:
    def test_fano_exact_finds_s7(self, fano_pair):
        m, cover = fano_pair
        assert cover.size == 7 and cover.uniform_size == 3
        assert verify_cover(m, cover).ok

    def test_fano_g4_infeasible_by_divisibility(self):
        with pytest.raises(CoverInfeasibleError, match="divisible"):
            search_cover(fano_matrix(), 4, mode="exact")

    def test_transversal_3_3_exact(self):
        m = transversal_matrix(3, 3)
        cover = search_cover(m, 3, mode="exact")
        assert cover.size == 9
        assert verify_cover(m, cover).ok
        assert count_identity_check(cover, m)

    @pytest.mark.parametrize("K", range(3, 7))
    def test_exact_matches_analytic_size_on_man(self, K):
        for r in range(1, K):
            m = man_matrix(K, r)
            cover = search_cover(m, r + 1, mode="exact")
            assert cover.size == comb(K, r + 1)
            assert verify_cover(m, cover).ok

    def test_exact_is_deterministic(self):
        m = fano_matrix()
        assert search_cover(m, 3, mode="exact") == search_cover(m, 3, mode="exact")

    def test_greedy_is_deterministic_given_seed(self):
        m = man_matrix(5, 2)
        a = search_cover(m, 3, mode="greedy", seed=7)
        b = search_cover(m, 3, mode="greedy", seed=7)
        assert a == b
        assert verify_cover(m, a).ok

    def test_greedy_finds_fano(self):
        m = fano_matrix()
        cover = search_cover(m, 3, mode="greedy", seed=0)
        assert cover.size == 7
        assert verify_cover(m, cover).ok

    def test_exact_on_ingested_bibd(self):
        m = bibd_matrix(pg2_3_design())
        cover = search_cover(m, 4, mode="exact")   # g = (13-1)/(4-1)
        assert cover.size == 13
        assert verify_cover(m, cover).ok
        assert count_identity_check(cover, m)

    def test_exact_budget_failure_is_distinct(self):
        m = bibd_matrix(pg2_3_design())
        with pytest.raises(CoverBudgetError):
            search_cover(m, 4, mode="exact", max_nodes=2)

    def test_g_below_two_infeasible(self):
        with pytest.raises(CoverInfeasibleError):
            search_cover(fano_matrix(), 1)

    def test_proven_infeasible_when_no_cover_exists(self):
        # zeros on the diagonal: each row has a single zero, so no row can
        # supply the two cross-zeros a size-3 identity submatrix needs
        import numpy as np

        from codedmr import BinaryComputingMatrix

        bits = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8)
        m = BinaryComputingMatrix(("1", "2", "3"), ("a", "b", "c"), bits, 1)
        with pytest.raises(CoverInfeasibleError, match="no non-overlapping"):
            search_cover(m, 3, mode="exact")

    def test_sum_of_member_sizes_equals_ones(self, fano_pair):
        m, cover = fano_pair
        assert sum(s.size for s in cover.members) == m.ones_count()


class TestRowRegularity:
    """Per-server member counts, as ``codedmr verify`` reports them."""

    @staticmethod
    def regularity(cover, m):
        counts = balance_preconditions(m, cover).counts
        expected = Fraction(sum(counts.values()), m.K)
        return counts, expected, all(n == expected for n in counts.values())

    def test_fano_cover_three_each(self, fano_pair):
        m, cover = fano_pair
        counts, expected, regular = self.regularity(cover, m)
        assert regular
        assert all(v == 3 for v in counts.values())
        assert expected == Fraction(21, 7)

    def test_man_5_2_six_each(self):
        m = man_matrix(5, 2)
        cover = man_cover(m)
        counts, _, regular = self.regularity(cover, m)
        assert regular
        assert set(counts.values()) == {comb(4, 2)}

    def test_missing_member_breaks_regularity(self, fano_pair):
        m, cover = fano_pair
        _, _, regular = self.regularity(IdentityCover(cover.members[:-1]), m)
        assert not regular


def _sha(cover):
    return hashlib.sha256(format_cover(cover).encode()).hexdigest()


def _pinned_matrix(name):
    if name == "fano":
        return fano_matrix(), 3
    if name == "td(3,3)":
        return transversal_matrix(3, 3), 3
    if name == "tsubset(6,2)":
        return t_subset_matrix(6, 2), 5
    if name == "pg(2,3)":
        return bibd_matrix(pg2_3_design()), 4
    K, r = (int(x) for x in name[4:-1].split(","))
    return man_matrix(K, r), r + 1


# sha256 of format_cover(search_cover(...)), taken from the recursive search
EXACT_PINS = {
    "fano": "d9e41958c34c222c9c3a60357641e5da9b3944046368846f05047d8778a907af",
    "td(3,3)": "ed5e596cc1e3a18c1b22a72fde377c1a03de3884de087e805e8be3fff5a5e27a",
    "tsubset(6,2)": "1b5f5fffa5c45114be8a76a315765500230a6f2c0d68d1af7f3e8fc464fb6144",
    "man(2,1)": "712ef0fc943226f7134960523c238515afc8052f223538a56c2b6dd57ce11a34",
    "man(3,1)": "a59fe4a8c8a664fcb38f3c1736d353ed8dc14055d9720e20279a604eb071bd8d",
    "man(3,2)": "1c1558748fe378db35cbf98c10a48ffd99d448bddf77f51fd39ea6d6a966881a",
    "man(4,1)": "58547d015852b486351e07f0a3b3b254337bb33c80f0f960f90ccd467e60071f",
    "man(4,2)": "8ae99f8cc3c6ac691f6f6287c01a026fb35058348a80f2bb2fbfa60e41be10db",
    "man(4,3)": "18594e2517753060003c8c71de922e421817c79205114b1918789739eed528ef",
    "man(5,1)": "cf24f2816a29720c23f14900a3d9cad662a9e300dec292c80ee3ee3277eb1d89",
    "man(5,2)": "332885090fd441f5842c6c84be12334b7d314faaedfd4c08934bad6d4d684c15",
    "man(5,3)": "8f30142d79683546ae7ab9e84c60cc44bef9e419faa3a5a6e483badde8ccac49",
    "man(5,4)": "4896be97c698710409df6ed13aa90b8a616f6cf0cf543a5423c789eca6089c91",
    "man(6,1)": "cdaa738e6db4337473a4c5eb0a198eb467b96c57a82f81684a669ba788af544a",
    "man(6,2)": "38fed82a9b6a0cd9398a9c47b0424bd25788b0dff37bf70583d8f766c221c28c",
    "man(6,3)": "e1aedf2aa7a3303a047cb0e45f107b62b675c19c1e606abdc0066c100a05cf34",
    "man(6,4)": "d0185c60c025a3b8a8d406e65162b2076873ad0408f77357fc6c6e28f81cfb1b",
    "man(6,5)": "e9a6ed4549c0ca6cb1152477644d5367bb1689eee22bf11ef7976d5d2f297bfc",
    "man(7,1)": "004d561f525aaa3e0148a519cdf9a9baf5c9c38688a8269fb9eebcf8d49e479c",
    "man(7,2)": "e4e6feb232443353a20e6af35012af30bef76723f04285a7f8a79630ba53370c",
    "man(7,3)": "bf94f5091aacb5e66154ecaa262c3c532307fa016565a5f8c1ffc5743721fe1f",
    "man(7,4)": "5858a06486cafdf83321e1ae0a59b67754746b229c8bd02708d1bca42aa4af7c",
    "man(7,5)": "520f06c3942ff34ffab6a8b8dc2543a535c3e664a44f3456843cd0cc4997355c",
    "man(7,6)": "2d0ba7e65c98855900f735f13cf599ef9f2cdb1f3233e8de7eee3b4d1cb11746",
    "pg(2,3)": "60e7dd03737c2e67a00ffdcac0ac22efda300834aa62faead1d6ac0378f1807a",
}

# greedy on MAN(5,2) and TD(3,3) succeeds before any shuffle, so every seed
# returns the exact cover; on Fano seed 3 runs out of restarts
GREEDY_PINS = {
    "fano": [
        "e8e6390c0e4faac96749c59257a7ff6c3460658ee8ba307215d5b52f6ef1d972",
        "b7d35538a9f7cae49c408b3d5ff0b837e628a3ec49d4781e93bef5f69749afa3",
        "9898ca324b3347254a76187849e6409925d2f2d35f274a35fe173d5cce253985",
        None,
        "4246b029789944b946811ec9a950a6bf6bd3ac33d4afd5500f5f5b766b71ba59",
        "6f56f18e0c6b76ac401d07b2b6f0374e3f435a58b23d993a9fc4e022f1db09d2",
    ],
    "man(5,2)": [EXACT_PINS["man(5,2)"]] * 6,
    "td(3,3)": [EXACT_PINS["td(3,3)"]] * 6,
}


class TestPinnedCovers:
    @pytest.mark.parametrize("name", sorted(EXACT_PINS))
    def test_exact_cover_sha256(self, name):
        m, g = _pinned_matrix(name)
        cover = search_cover(m, g, mode="exact")
        assert verify_cover(m, cover).ok
        assert _sha(cover) == EXACT_PINS[name]

    @pytest.mark.parametrize("name", sorted(GREEDY_PINS))
    def test_greedy_cover_sha256_seeds_0_to_5(self, name):
        m, g = _pinned_matrix(name)
        for seed, pin in enumerate(GREEDY_PINS[name]):
            if pin is None:
                with pytest.raises(CoverBudgetError, match="after 64 restarts"):
                    search_cover(m, g, mode="greedy", seed=seed)
            else:
                assert _sha(search_cover(m, g, mode="greedy", seed=seed)) == pin


def _man_10_4_exact():
    m = man_matrix(10, 4)
    cover = search_cover(m, 5, mode="exact")
    assert cover.size == comb(10, 5) == 252
    assert verify_cover(m, cover).ok


def test_exact_search_depth_is_independent_of_recursion_limit():
    """MAN(10,4) picks 1,260 one-entries in a row, past the interpreter's
    default recursion limit of 1,000 frames."""
    _man_10_4_exact()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        _man_10_4_exact()
    finally:
        sys.setrecursionlimit(limit)


def _compatible(bits, rows, cols, i, j):
    if i in rows or j in cols:
        return False
    for jc in cols:
        if bits[i, jc]:
            return False
    for ir in rows:
        if bits[ir, j]:
            return False
    return True


def reference_exact_search(bits, ones, g, max_nodes):
    """Recursive backtracking over one-entries in row-major order, always
    opening a member at the first uncovered one-entry."""
    n_ones = len(ones)
    covered = bytearray(n_ones)
    chosen = []
    nodes = 0

    def extensions(partial, rows, cols, start):
        for t in range(start, n_ones):
            if covered[t]:
                continue
            i, j = ones[t]
            if _compatible(bits, rows, cols, i, j):
                yield t

    def solve(scan_from):
        nonlocal nodes
        t0 = scan_from
        while t0 < n_ones and covered[t0]:
            t0 += 1
        if t0 == n_ones:
            return True
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise CoverBudgetError(f"exact search exceeded {max_nodes} nodes")
        i0, j0 = ones[t0]
        partial = [t0]
        rows = [i0]
        cols = [j0]

        def grow(start):
            if len(partial) == g:
                for t in partial:
                    covered[t] = 1
                chosen.append(list(partial))
                if solve(t0 + 1):
                    return True
                chosen.pop()
                for t in partial:
                    covered[t] = 0
                return False
            for t in extensions(partial, rows, cols, start):
                i, j = ones[t]
                partial.append(t)
                rows.append(i)
                cols.append(j)
                if grow(t + 1):
                    return True
                partial.pop()
                rows.pop()
                cols.pop()
            return False

        return grow(t0 + 1)

    return chosen if solve(0) else None


def reference_greedy_search(bits, ones, g, seed, restarts):
    """Maximal members grown from the first uncovered one-entry, first in
    scan order, then over seeded shuffles of the later uncovered entries."""
    n_ones = len(ones)

    def attempt(rng):
        covered = bytearray(n_ones)
        chosen = []
        remaining = n_ones
        while remaining:
            t0 = next(t for t in range(n_ones) if not covered[t])
            partial = [t0]
            rows = [ones[t0][0]]
            cols = [ones[t0][1]]
            candidates = [t for t in range(t0 + 1, n_ones) if not covered[t]]
            if rng is not None:
                rng.shuffle(candidates)
            for t in candidates:
                if len(partial) == g:
                    break
                i, j = ones[t]
                if _compatible(bits, rows, cols, i, j):
                    partial.append(t)
                    rows.append(i)
                    cols.append(j)
            if len(partial) != g:
                return None
            for t in partial:
                covered[t] = 1
            remaining -= g
            chosen.append(partial)
        return chosen

    result = attempt(None)
    if result is not None:
        return result
    for run in range(1, restarts):
        result = attempt(random.Random((seed << 20) ^ run))
        if result is not None:
            return result
    return None


def reference_cover(m, g, mode, seed, restarts, max_nodes):
    """``search_cover`` over the reference searches; errors come back as
    their type, since the texts are those of ``search_cover``."""
    if m.ones_count() % g:
        return CoverInfeasibleError
    ones = [(int(i), int(j)) for i, j in zip(*np.nonzero(m.bits))]
    try:
        if mode == "exact":
            found = reference_exact_search(m.bits, ones, g, max_nodes)
            missing = CoverInfeasibleError
        else:
            found = reference_greedy_search(m.bits, ones, g, seed, restarts)
            missing = CoverBudgetError
    except CoverBudgetError:
        return CoverBudgetError
    if found is None:
        return missing
    return IdentityCover(tuple(
        IdentitySubmatrix(
            tuple(m.rows[ones[t][0]] for t in member),
            tuple(m.cols[ones[t][1]] for t in member),
        )
        for member in found
    ))


@st.composite
def column_regular_matrices(draw):
    """Small matrices whose columns all hold the same number of ones: a
    row- and column-permuted MAN(K, r) (a cover exists) or random columns."""
    if draw(st.booleans()):
        K = draw(st.integers(2, 5))
        base = man_matrix(K, draw(st.integers(1, K - 1))).bits
        bits = base[draw(st.permutations(range(K)))][
            :, draw(st.permutations(range(base.shape[1])))
        ]
    else:
        K = draw(st.integers(2, 6))
        N = draw(st.integers(1, 8))
        weight = draw(st.integers(1, K))
        bits = np.zeros((K, N), dtype=np.uint8)
        for j in range(N):
            bits[draw(st.permutations(range(K)))[:weight], j] = 1
    rows = tuple(str(k) for k in range(1, bits.shape[0] + 1))
    cols = tuple(f"f{j}" for j in range(bits.shape[1]))
    return BinaryComputingMatrix.from_bits(rows, cols, bits)


@settings(max_examples=300, deadline=None)
@given(
    column_regular_matrices(),
    st.integers(2, 6),
    st.sampled_from(["exact", "greedy"]),
    st.integers(0, 5),
    st.integers(0, 8),
    st.one_of(st.none(), st.integers(0, 15)),
)
def test_search_equals_recursive_reference(m, g, mode, seed, restarts, max_nodes):
    expected = reference_cover(m, g, mode, seed, restarts, max_nodes)
    try:
        got = search_cover(
            m, g, mode=mode, seed=seed, restarts=restarts, max_nodes=max_nodes
        )
    except (CoverInfeasibleError, CoverBudgetError) as exc:
        got = type(exc)
    assert got == expected
    if isinstance(got, IdentityCover):
        assert verify_cover(m, got).ok
