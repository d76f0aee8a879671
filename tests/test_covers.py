import hashlib
import itertools
import random
import sys
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmr import (
    BinaryComputingMatrix,
    CoverBudgetError,
    CoverInfeasibleError,
    IdentityCover,
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
from codedmr import covers
from codedmr.constructions import BlockDesign
from codedmr.covers import MatrixShapeError
from codedmr.matrix import format_cover

from conftest import cover_members, label_cover
from test_constructions import pg2_3_design
from test_matrix import from_bits
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
        ((rows, cols),) = cover_members(cover)
        assert set(rows) == {"1", "2", "3"}
        assert set(cols) == set(m.cols)

    def test_7_4(self):
        m = man_matrix(7, 4)
        cover = man_cover(m)
        assert cover.size == comb(7, 5) == 21
        assert cover.uniform_size == 5
        assert verify_cover(m, cover).ok

    @pytest.mark.parametrize("K", range(2, 10))
    def test_equals_combinations_construction(self, K):
        for r in range(1, K):
            m = man_matrix(K, r)
            assert man_cover(m) == reference_man_cover(m)

    def test_rejects_non_man_matrix(self):
        with pytest.raises(MatrixShapeError):
            man_cover(fano_matrix())

    @pytest.mark.parametrize(
        "change",
        ["extra zero", "missing zero", "swapped zero patterns", "row label", "column label",
         "declared r"],
    )
    def test_rejects_any_change_to_the_subset_placement(self, change):
        m = man_matrix(6, 3)
        rows, cols, bits, r = list(m.rows), list(m.cols), m.bits.copy(), m.r
        if change == "extra zero":
            bits[np.flatnonzero(bits[:, 4])[0], 4] = 0
        elif change == "missing zero":
            bits[np.flatnonzero(bits[:, 4] == 0)[0], 4] = 1
        elif change == "swapped zero patterns":
            bits[:, [0, 7]] = bits[:, [7, 0]]
        elif change == "row label":
            rows[2] = "x"
        elif change == "column label":
            cols[9] = "x"
        else:
            r = 2
        with pytest.raises(MatrixShapeError):
            man_cover(BinaryComputingMatrix(tuple(rows), tuple(cols), bits, r))


def reference_man_cover(m):
    """One member per (r+1)-subset B in lex order, row k of B matched with
    the column labelled B minus k."""
    # each column's label, keyed by the rows of its zeros
    label = {
        tuple(np.flatnonzero(m.bits[:, j] == 0) + 1): col
        for j, col in enumerate(m.cols)
    }
    members = []
    for B in itertools.combinations(range(1, m.K + 1), m.r + 1):
        rows = tuple(str(k) for k in B)
        cols = tuple(label[B[:i] + B[i + 1 :]] for i in range(len(B)))
        members.append((rows, cols))
    return label_cover(members)


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
                for k, f in zip(rows, cols)
            )
            for rows, cols in cover_members(t_subset_cover(tm))
        }
        universe = {str(i) for i in range(1, 6)}
        man_pairs = {
            frozenset(
                (k, frozenset(universe - (set(f.split("-")) if "-" in f else set(f))))
                for k, f in zip(rows, cols)
            )
            for rows, cols in cover_members(man_cover(mm))
        }
        assert t_pairs == man_pairs


def reference_t_subset_cover(m):
    """The label construction t_subset_cover replaced: one member per
    (t-1)-subset D, the rows outside D, row k matched with D + {k}."""
    from codedmr.constructions import subset_label

    v, t = m.K, m.K - m.r
    members = []
    for D in itertools.combinations(range(1, v + 1), t - 1):
        outside = [k for k in range(1, v + 1) if k not in D]
        rows = tuple(str(k) for k in outside)
        cols = tuple(subset_label(str(x) for x in sorted((*D, k))) for k in outside)
        members.append((rows, cols))
    return label_cover(members)


def reference_transversal_cover(m):
    """The label construction transversal_cover replaced: per group i and
    slope a, the blocks (a, b) matched with the points (i, a(i-1)+b)."""
    n = int(round(m.K**0.5))
    members = []
    for i in range(1, m.N // n + 1):
        for a in range(n):
            rows = tuple(f"{a},{b}" for b in range(n))
            cols = tuple(f"{i}:{(a * (i - 1) + b) % n}" for b in range(n))
            members.append((rows, cols))
    return label_cover(members)


def reference_search_labels(m, member_idx):
    """The label members search_cover used to build from its one-entry
    numbers."""
    ones = [(int(i), int(j)) for i, j in zip(*np.nonzero(m.bits))]
    return label_cover([
        (
            tuple(m.rows[ones[t][0]] for t in member),
            tuple(m.cols[ones[t][1]] for t in member),
        )
        for member in member_idx
    ])


def _same_cover(cover, reference):
    assert cover == reference and hash(cover) == hash(reference)
    assert format_cover(cover) == format_cover(reference)


def test_analytic_and_searched_covers_equal_the_label_constructions(suite):
    for name, m, cover in suite:
        if name.startswith("man"):
            _same_cover(cover, reference_man_cover(m))
        elif name.startswith("tsubset"):
            _same_cover(cover, reference_t_subset_cover(m))
        elif name.startswith("transversal"):
            _same_cover(cover, reference_transversal_cover(m))
        ones = [(int(i), int(j)) for i, j in zip(*np.nonzero(m.bits))]
        conflict = covers._conflicts(m.bits, ones)
        g = cover.uniform_size
        _same_cover(
            search_cover(m, g, mode="exact"),
            reference_search_labels(m, covers._exact_search(conflict, g, None)),
        )
        found = covers._greedy_search(conflict, g, 3, 8)
        if found is not None:
            _same_cover(
                search_cover(m, g, mode="greedy", seed=3, restarts=8),
                reference_search_labels(m, found),
            )


def test_man_18_8_cover_equals_the_label_construction():
    m = man_matrix(18, 8)
    _same_cover(man_cover(m), reference_man_cover(m))


def _edited(m, change):
    rows, cols, bits = list(m.rows), list(m.cols), m.bits.copy()
    if change == "flipped one":
        bits[np.flatnonzero(bits[:, 1])[0], 1] = 0
    elif change == "flipped zero":
        bits[np.flatnonzero(bits[:, 1] == 0)[0], 1] = 1
    elif change == "row label":
        rows[1] = "x"
    elif change == "column label":
        cols[1] = "x"
    else:
        bits[:, [0, 2]] = bits[:, [2, 0]]
    return BinaryComputingMatrix(tuple(rows), tuple(cols), bits, m.r)


CHANGES = ["flipped one", "flipped zero", "row label", "column label", "swapped columns"]


@pytest.mark.parametrize("change", CHANGES)
@pytest.mark.parametrize("v, t", [(5, 2), (6, 3), (7, 4)])
def test_t_subset_cover_rejects_an_edited_matrix(v, t, change):
    with pytest.raises(MatrixShapeError, match="t-subset scheme"):
        t_subset_cover(_edited(t_subset_matrix(v, t), change))


@pytest.mark.parametrize("change", CHANGES)
@pytest.mark.parametrize("k, n", [(2, 3), (3, 3), (3, 5)])
def test_transversal_cover_rejects_an_edited_matrix(k, n, change):
    with pytest.raises(MatrixShapeError, match="transversal design for its"):
        transversal_cover(_edited(transversal_matrix(k, n), change))


@pytest.mark.parametrize(
    "build, bits, r, error, text",
    [
        ("tsubset", np.ones((4, 4), dtype=np.uint8), 0, ValueError,
         "need 1 <= t < v, got t=4, v=4"),
        ("tsubset", np.eye(4, dtype=np.uint8), 3, MatrixShapeError,
         "matrix is not the t-subset scheme for its (v, t)"),
        ("transversal", np.ones((16, 8), dtype=np.uint8), 12, ValueError,
         "n=4 is not prime; the line construction needs Z_n arithmetic "
         "(composite n is unsupported)"),
        ("transversal", np.ones((9, 12), dtype=np.uint8), 6, ValueError,
         "need 2 <= k <= n, got k=4, n=3"),
        ("transversal", np.ones((9, 4), dtype=np.uint8), 6, MatrixShapeError,
         "matrix dimensions do not fit a transversal design"),
    ],
)
def test_analytic_covers_refuse_other_shapes_as_before(build, bits, r, error, text):
    """The exception classes and texts of the matrix rebuild the covers
    used to compare against."""
    m = BinaryComputingMatrix(
        tuple(str(k) for k in range(1, bits.shape[0] + 1)),
        tuple(f"f{j}" for j in range(bits.shape[1])), bits, r,
    )
    cover = t_subset_cover if build == "tsubset" else transversal_cover
    with pytest.raises(error) as err:
        cover(m)
    assert type(err.value) is error and str(err.value) == text


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

    def test_an_unknown_mode_is_a_value_error(self):
        with pytest.raises(ValueError) as err:
            search_cover(fano_matrix(), 3, mode="fast")
        assert str(err.value) == "unknown search mode 'fast'"

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

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_a_negative_budget_is_a_value_error(self, mode):
        """Not a CoverBudgetError for a budget no search can meet."""
        with pytest.raises(ValueError, match="max_nodes=-1 must not be negative"):
            search_cover(fano_matrix(), 3, mode=mode, max_nodes=-1)

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
        assert sum(len(rows) for rows, _ in cover_members(cover)) == m.ones_count()


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
        _, _, regular = self.regularity(label_cover(cover_members(cover)[:-1]), m)
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


# sha256 of the format_cover texts of man_cover(man_matrix(v, r)) for
# r = 1..v-1, or of t_subset_cover(t_subset_matrix(v, t)) for t = 1..v-1,
# joined in that order; taken when each family had its own rank arithmetic
ANALYTIC_PINS = {
    ("man", 2): "712ef0fc943226f7134960523c238515afc8052f223538a56c2b6dd57ce11a34",
    ("man", 3): "d6e99768104e41d647f897be49f5d512de59214c359d757b1b00c9041b7e42b8",
    ("man", 4): "c68753e77eb20d28abb9efedfffacf4a502e8aa4d61e567a347474c52831562e",
    ("man", 5): "83edb2562d00d5db9df4e3c2460b882bff6d6efb4eaf63ceb3858c0ff999ff56",
    ("man", 6): "7dd7002d46abdefc1447dd6c4b0b8f1321f22f5b20e125bc08ff44f1bda8ec62",
    ("man", 7): "ed4b7761f67de41930d44c9aaa515c901919fd66c389617583c9841000a7c82a",
    ("man", 8): "75dbadf70f679bf8d41ed991a54c2563244896d022fe41daa54cb260eb8ea49a",
    ("man", 9): "2d0caefaf533115b57c55f5f9872d47e67676f81ed9132a90854010daad8c185",
    ("man", 10): "210f0335fbc660985afddccfebdee911af74a8073ff3ded196b8cca3ab966ba4",
    ("tsubset", 2): "1c67edc0f5d31045bca14b77d18f9241d1ab766c125e0a8fd3a004c0c0861ffa",
    ("tsubset", 3): "05993041376477eb2c3bead9b8ab9529f709fbc5a50973daf77e1133fb38fc46",
    ("tsubset", 4): "9a80ed1f12511cd372b8c25ce9c13f8e483046102e53e08be0d9ee6d890ac264",
    ("tsubset", 5): "18b61fb0226dae66e7dbcc83d955093edd519f3d055e8cd0e421de832de595bd",
    ("tsubset", 6): "d9887af6ffc2516c3c171cd24eb7bcbabc2b9ce656cf598c5eb6f1e436576230",
    ("tsubset", 7): "0f1ddff2674a891848f9d07b55f86be58a4ed96ceb13c0afdd8d918918ce0498",
    ("tsubset", 8): "bcdaee0f5f7899e9ef03dc285d8c4a7b21d7a6524c6e3f03bcb0465fc1ed5f57",
    ("tsubset", 9): "6b24a2939e94f8872af4f257c99f8fb5c4c8f3035e6353c2f46b31f7c692a9f4",
    ("tsubset", 10): "496f82c6be6634dd6b0f422cdf04484c8406a1ed431cba337bd3a1c8f6d3a57c",
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

    @pytest.mark.parametrize("family, v", sorted(ANALYTIC_PINS))
    def test_analytic_covers_sha256_at_every_t(self, family, v):
        if family == "man":
            covers_ = [man_cover(man_matrix(v, r)) for r in range(1, v)]
        else:
            covers_ = [t_subset_cover(t_subset_matrix(v, t)) for t in range(1, v)]
        text = "".join(format_cover(cover) for cover in covers_)
        assert hashlib.sha256(text.encode()).hexdigest() == ANALYTIC_PINS[family, v]


def _pg2_4_matrix():
    """PG(2,4) from the difference set {0, 1, 4, 14, 16} mod 21."""
    blocks = tuple(
        tuple(str((i + d) % 21) for d in (0, 1, 4, 14, 16)) for i in range(21)
    )
    return bibd_matrix(BlockDesign(tuple(str(i) for i in range(21)), blocks, 5))


# the exact search opens 111,154 members to find the PG(2,3) cover
PG2_3_NODES = 111_154
MAN_10_4_EXACT_SHA = "7d72fc271262644d892516c2a8f030342550b93d59ade91ad590e26eb3ae50d2"


class TestExactSearchPins:
    """Covers and node counts of the exact search, taken before it kept a
    table of refuted states or of completions."""

    def test_pg2_3_node_boundary(self):
        m = bibd_matrix(pg2_3_design())
        cover = search_cover(m, 4, mode="exact", max_nodes=PG2_3_NODES)
        assert _sha(cover) == EXACT_PINS["pg(2,3)"]
        with pytest.raises(CoverBudgetError) as err:
            search_cover(m, 4, mode="exact", max_nodes=PG2_3_NODES - 1)
        assert str(err.value) == f"exact search exceeded {PG2_3_NODES - 1} nodes"

    def test_pg2_4_budget_error(self):
        with pytest.raises(CoverBudgetError) as err:
            search_cover(_pg2_4_matrix(), 5, mode="exact", max_nodes=10_000)
        assert str(err.value) == "exact search exceeded 10000 nodes"

    def test_man_10_4_cover_sha256(self):
        cover = search_cover(man_matrix(10, 4), 5, mode="exact")
        assert _sha(cover) == MAN_10_4_EXACT_SHA

    def test_results_do_not_depend_on_the_table_limit(self, monkeypatch):
        monkeypatch.setattr(covers, "_REFUTED_LIMIT", 4)
        self.test_pg2_3_node_boundary()
        for limit in (0, 4):
            monkeypatch.setattr(covers, "_COMPLETION_LIMIT", limit)
            self.test_pg2_3_node_boundary()
            self.test_pg2_4_budget_error()


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
    opening a member at the first uncovered one-entry.

    Returns the chosen members (None when no cover exists) and the number
    of members opened, the nodes that *max_nodes* bounds."""
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

    return (chosen if solve(0) else None), nodes


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
            found, _ = reference_exact_search(m.bits, ones, g, max_nodes)
            missing = CoverInfeasibleError
        else:
            found = reference_greedy_search(m.bits, ones, g, seed, restarts)
            missing = CoverBudgetError
    except CoverBudgetError:
        return CoverBudgetError
    if found is None:
        return missing
    return label_cover([
        (
            tuple(m.rows[ones[t][0]] for t in member),
            tuple(m.cols[ones[t][1]] for t in member),
        )
        for member in found
    ])


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
    return from_bits(rows, cols, bits)


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


# reference searches past this many nodes are not run to the end
REFERENCE_NODES = 5000


@st.composite
def backtracking_matrices(draw):
    """Matrices on which the exact search backs up far enough to meet the
    same uncovered set again: a row- and column-permuted MAN(6, r) or Fano
    plane, or random columns of one weight, up to K=7 and N=14."""
    kind = draw(st.sampled_from(["man", "fano", "random"]))
    if kind == "man":
        base = man_matrix(6, draw(st.integers(1, 5))).bits
    elif kind == "fano":
        base = fano_matrix().bits
    else:
        K = draw(st.integers(2, 7))
        N = draw(st.integers(1, 14))
        weight = draw(st.integers(1, K))
        base = np.zeros((K, N), dtype=np.uint8)
        for j in range(N):
            base[draw(st.permutations(range(K)))[:weight], j] = 1
    bits = base[draw(st.permutations(range(base.shape[0])))][
        :, draw(st.permutations(range(base.shape[1])))
    ]
    rows = tuple(str(k) for k in range(1, bits.shape[0] + 1))
    cols = tuple(f"f{j}" for j in range(bits.shape[1]))
    return from_bits(rows, cols, bits)


@settings(max_examples=200, deadline=None)
@given(backtracking_matrices(), st.data())
def test_exact_search_equals_reference_at_its_node_count(m, data):
    """Same cover or same error as the reference, with budgets of None,
    the reference's node count, one less, and any value."""
    total = m.ones_count()
    g = data.draw(st.sampled_from([d for d in range(2, 8) if total % d == 0] or [2]))
    ones = [(int(i), int(j)) for i, j in zip(*np.nonzero(m.bits))]
    try:
        _, count = reference_exact_search(m.bits, ones, g, REFERENCE_NODES)
        budgets = [None, count - 1, count]
    except CoverBudgetError:
        count, budgets = REFERENCE_NODES, [REFERENCE_NODES]
    max_nodes = data.draw(
        st.one_of(st.sampled_from(budgets), st.integers(0, count + 1)),
        label="max_nodes",
    )
    expected = reference_cover(m, g, "exact", 0, 1, max_nodes)
    try:
        got = search_cover(m, g, mode="exact", max_nodes=max_nodes)
    except (CoverInfeasibleError, CoverBudgetError) as exc:
        got = type(exc)
    assert got == expected


def test_exact_search_equals_reference_with_one_stored_int():
    """The check above with room for one int in the completion table: it
    stores one alternative set without a completion, and none after it."""
    with mock.patch.object(covers, "_COMPLETION_LIMIT", 1):
        test_exact_search_equals_reference_at_its_node_count()
