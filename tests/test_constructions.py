import hashlib
import itertools
import re
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from codedmr import (
    BlockDesign,
    DesignError,
    FormatError,
    SchemeParameters,
    bibd_matrix,
    fano_design,
    fano_matrix,
    ingest_design,
    load_formula,
    man_matrix,
    scheme_load,
    t_subset_matrix,
    transversal_matrix,
    validate_matrix,
)
from codedmr import constructions
from codedmr.constructions import MAX_CELLS, MAX_NAMED_PAIRS, subset_label


def pg2_3_design() -> BlockDesign:
    """13-point projective plane from the difference set {0, 1, 3, 9} mod 13."""
    blocks = tuple(
        tuple(str((i + d) % 13) for d in (0, 1, 3, 9)) for i in range(13)
    )
    return BlockDesign(tuple(str(i) for i in range(13)), blocks, 4)


class TestManMatrix:
    def test_5_2_shape_and_zero_counts(self):
        m = man_matrix(5, 2)
        assert (m.K, m.N) == (5, 10)
        for j in range(m.N):
            assert int((m.bits[:, j] == 0).sum()) == 2

    def test_r1_zeros_form_a_diagonal(self):
        m = man_matrix(4, 1)
        # column {k} has its only zero at row k
        for j, f in enumerate(m.cols):
            zero_rows = [m.rows[i] for i in range(4) if m.bits[i, j] == 0]
            assert zero_rows == [f]

    def test_7_4_has_35_columns(self):
        m = man_matrix(7, 4)
        assert m.N == 35
        assert validate_matrix(m).ok

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            man_matrix(5, 5)

    @pytest.mark.parametrize("K", range(2, 9))
    def test_equals_t_subset_under_complement(self, K):
        for r in range(1, K):
            man = man_matrix(K, r)
            tsub = t_subset_matrix(K, K - r)
            for j, label in enumerate(man.cols):
                members = set(label.split("-")) if "-" in label else set(label)
                complement = sorted(
                    (str(x) for x in range(1, K + 1) if str(x) not in members),
                    key=int,
                )
                from codedmr.constructions import subset_label

                other = tsub.cols.index(subset_label(complement))
                assert np.array_equal(man.bits[:, j], tsub.bits[:, other])
                # complementing reverses colex order: t_subset_cover relies on it
                assert other == man.N - 1 - j
            assert np.array_equal(tsub.bits, man.bits[:, ::-1])

    @pytest.mark.parametrize("K", range(2, 13))
    def test_columns_equal_the_sorted_colex_reference(self, K):
        for r in range(1, K):
            subsets, labels = constructions._man_columns.__wrapped__(K, r)
            expected = sorted(itertools.combinations(range(1, K + 1), r), key=lambda a: a[::-1])
            assert subsets.tolist() == [list(a) for a in expected]
            assert labels == tuple(subset_label(map(str, a)) for a in expected)
            assert not subsets.flags.writeable

    def test_man_20_10_labels_are_pinned(self):
        _, labels = constructions._man_columns.__wrapped__(20, 10)
        assert len(labels) == comb(20, 10)
        assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == (
            "26bb8d98184c64ae99c7005d84da7b89480ec35f8239daf38351de85880440ee"
        )


class TestTSubsetMatrix:
    def test_t1_identity_pattern(self):
        m = t_subset_matrix(5, 1)
        for j, f in enumerate(m.cols):
            one_rows = [m.rows[i] for i in range(5) if m.bits[i, j] == 1]
            assert one_rows == [f]

    def test_7_3_parameters(self):
        m = t_subset_matrix(7, 3)
        assert (m.K, m.N, m.r) == (7, 35, 4)
        assert validate_matrix(m).ok

    def test_bad_t(self):
        with pytest.raises(ValueError):
            t_subset_matrix(5, 5)


class TestFanoMatrix:
    def test_first_row(self):
        m = fano_matrix()
        assert list(m.bits[0]) == [1, 1, 1, 0, 0, 0, 0]

    def test_column_127_zero_rows(self):
        m = fano_matrix()
        j = m.cols.index("127")
        assert [m.rows[i] for i in range(7) if m.bits[i, j] == 0] == ["3", "4", "5", "6"]

    def test_validates_as_7_7_4(self):
        m = fano_matrix()
        report = validate_matrix(m)
        assert report.ok and (m.K, m.N, report.r) == (7, 7, 4)


class TestBibdMatrix:
    def test_fano_design_reproduces_fano_matrix(self):
        m = bibd_matrix(fano_design())
        f = fano_matrix()
        assert set(m.cols) == set(f.cols)
        for label in m.cols:
            assert np.array_equal(
                m.bits[:, m.cols.index(label)], f.bits[:, f.cols.index(label)]
            )

    def test_13_point_design(self):
        d = pg2_3_design()
        # brute-force pair coverage over all 78 pairs
        for p, q in itertools.combinations(d.points, 2):
            hits = sum(1 for block in d.blocks if p in block and q in block)
            assert hits == 1
        m = bibd_matrix(d)
        assert (m.K, m.N, m.r) == (13, 13, 9)
        assert validate_matrix(m).ok

    def test_repeated_pair_rejected(self):
        blocks = (("1", "2", "3"), ("1", "2", "4"))
        d = BlockDesign(("1", "2", "3", "4"), blocks, 3)
        with pytest.raises(DesignError, match="pair"):
            bibd_matrix(d)

    @pytest.mark.parametrize(
        "text", ["1 1 1\n0\n0\n", "3 1 3\na b c\na b c\n"], ids=["k=1", "k=v"]
    )
    def test_block_size_outside_two_to_v_rejected(self, text):
        # k = 1 and k = v pass every pair and replication count
        with pytest.raises(DesignError, match="block size"):
            bibd_matrix(ingest_design(text))


class TestTransversalMatrix:
    def test_2_2_brute_force(self):
        m = transversal_matrix(2, 2)
        assert (m.K, m.N, m.r) == (4, 4, 2)
        for j in range(m.N):
            assert int(m.bits[:, j].sum()) == 2
        assert validate_matrix(m).ok

    def test_3_3_parameters(self):
        m = transversal_matrix(3, 3)
        assert (m.K, m.N, m.r) == (9, 9, 6)
        assert validate_matrix(m).ok

    def test_pair_coverage_3_3(self):
        m = transversal_matrix(3, 3)
        points = list(m.cols)
        blocks = [
            {points[j] for j in range(m.N) if m.bits[i, j]} for i in range(m.K)
        ]
        for p, q in itertools.combinations(points, 2):
            hits = sum(1 for block in blocks if p in block and q in block)
            same_group = p.split(":")[0] == q.split(":")[0]
            assert hits == (0 if same_group else 1)

    def test_every_point_in_n_blocks(self):
        m = transversal_matrix(3, 3)
        for j in range(m.N):
            assert int(m.bits[:, j].sum()) == 3

    def test_composite_n_unsupported(self):
        with pytest.raises(ValueError, match="prime"):
            transversal_matrix(2, 4)


class TestSizeLimit:
    """Oversized generated matrices are refused before anything is listed
    or allocated; unguarded, each case below runs out of memory."""

    @pytest.mark.parametrize("build, K, N", [
        (lambda: man_matrix(40, 20), 40, comb(40, 20)),
        (lambda: t_subset_matrix(40, 20), 40, comb(40, 20)),
        (lambda: transversal_matrix(2, 1009), 1009**2, 2 * 1009),
        # a Mersenne prime: refused before its trial division
        (lambda: transversal_matrix(2, 2**61 - 1), (2**61 - 1) ** 2, 2 * (2**61 - 1)),
    ])
    def test_oversized_rejected_naming_K_and_N(self, build, K, N):
        with pytest.raises(ValueError, match=f"K={K} rows and N={N} columns"):
            build()

    def test_admits_man_18_8(self):
        m = man_matrix(18, 8)
        assert m.bits.size == 787_644 <= MAX_CELLS

    def test_limit_is_inclusive(self, monkeypatch):
        # MAN(5,2) and the t-subset scheme (5,3) have 50 cells, TD(2,3) 54,
        # the Fano plane 49
        monkeypatch.setattr(constructions, "MAX_CELLS", 50)
        assert man_matrix(5, 2).bits.size == t_subset_matrix(5, 3).bits.size == 50
        with pytest.raises(ValueError, match="54 cells"):
            transversal_matrix(2, 3)
        monkeypatch.setattr(constructions, "MAX_CELLS", 49)
        constructions._man_columns.cache_clear()   # MAN(5,2) is cached above
        for build in (lambda: man_matrix(5, 2), lambda: t_subset_matrix(5, 3)):
            with pytest.raises(ValueError, match="50 cells"):
                build()
        assert bibd_matrix(fano_design()).bits.size == 49
        monkeypatch.setattr(constructions, "MAX_CELLS", 48)
        with pytest.raises(ValueError, match="at least 49 cells"):
            bibd_matrix(fano_design())

    def test_wide_design_refused_before_its_pairs(self, monkeypatch):
        """6,000 points and one block: v*v = 36 million cells.  Unguarded,
        validate_bibd walks its 18 million point pairs and names each."""
        def no_pairs(d):
            raise AssertionError("the design's pairs were read")

        monkeypatch.setattr(constructions, "validate_bibd", no_pairs)
        tracemalloc.start()
        try:
            d = ingest_design(one_block_design(6000))
            with pytest.raises(ValueError, match=r"\(v=6000, b=1\) would have at least 36000000"):
                bibd_matrix(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def test_one_bad_pair_last_in_pair_order_is_named():
    """Every pair of 7 points as a block but the last pair (6,7): the
    walk reads all 21 pairs to name that one, and the count of bad
    pairs leaves no rest line."""
    points = tuple(str(p) for p in range(1, 8))
    blocks = tuple(itertools.combinations(points, 2))[:-1]
    assert constructions.validate_bibd(BlockDesign(points, blocks, 2)) == [
        "pair (6,7) occurs in 0 blocks, expected 1",
        "20 blocks, but a (v=7, k=2, 1)-design has 21",
        "non-uniform replication counts [5, 6]",
    ]


def one_block_design(v: int) -> str:
    """Design text of v points p0..p{v-1} and the one block p0 p1."""
    return f"{v} 1 2\n" + " ".join(f"p{i}" for i in range(v)) + "\np0 p1\n"


@pytest.mark.parametrize("v", [7, 8, 12])
def test_bad_pairs_past_the_cap_are_one_count(v):
    """One block of v points leaves C(v, 2) - 1 pairs in no block: 20 at
    v = 7, each named as before; past the first MAX_NAMED_PAIRS, one
    count stands for the rest."""
    d = ingest_design(one_block_design(v))
    bad = list(itertools.combinations(d.points, 2))[1:]
    named = [f"pair ({p},{q}) occurs in 0 blocks, expected 1" for p, q in bad]
    rest = len(bad) - MAX_NAMED_PAIRS
    if rest > 0:
        named[MAX_NAMED_PAIRS:] = [f"{rest} more pairs do not occur in exactly 1 block"]
    assert constructions.validate_bibd(d)[: len(named)] == named
    assert (v, rest) in {(7, 0), (8, 7), (12, 45)}
    with pytest.raises(DesignError, match=re.escape("; ".join(named) + "; ")):
        bibd_matrix(d)


def reference_scheme_load(p: SchemeParameters, survivors: int | None = None) -> Fraction:
    """The per-family load formulas, one pair per family as the paper
    tabulates them, kept as the reference for ``scheme_load``."""
    kappa = survivors
    if p.scheme == "I":
        v, k = p.v, p.k
        if kappa is None:
            return Fraction(2 * k * (k - 1), v * (v - 1))
        return Fraction(2 * k * (k - 1), kappa * (v - 1))
    if p.scheme == "II":
        if kappa is None:
            return Fraction(2, p.v)
        return Fraction(2, kappa)
    if p.scheme == "III":
        v, k, t = p.v, p.k, p.t
        if kappa is None:
            return Fraction(
                2 * (v - t + 1) * comb(k - 1, t - 1) ** 2,
                v * comb(v - 1, t - 1) ** 2,
            )
        return Fraction(2 * comb(k - 1, t - 1) ** 2, kappa * comb(v - 1, t - 1))
    if p.scheme == "IV":
        v, t = p.v, p.t
        if kappa is None:
            return Fraction(2 * t, v * (v - t + 1))
        return Fraction(2 * t, kappa * (v - t + 1))
    if p.scheme == "V":
        if kappa is None:
            return Fraction(2, p.n * p.n)
        return Fraction(2, kappa)
    raise ValueError(f"unknown scheme family {p.scheme!r}")


def accepted_scheme_parameters():
    """Every parameter set each family accepts in a small range."""
    candidates = itertools.chain(
        ((SchemeParameters.bibd, (v, k)) for v in range(3, 31) for k in range(2, v)),
        ((SchemeParameters.symmetric_bibd, (v, k)) for v in range(4, 16) for k in range(3, v)),
        ((SchemeParameters.t_design_1, (v, k, t))
         for v in range(3, 12) for k in range(2, v) for t in range(2, k + 1)),
        ((SchemeParameters.t_design_2, (v, t)) for v in range(2, 16) for t in range(1, v)),
        ((SchemeParameters.transversal, (k, n)) for n in range(2, 14) for k in range(2, n + 1)),
    )
    accepted = []
    for build, args in candidates:
        try:
            accepted.append(build(*args))
        except ValueError:
            continue
    return accepted


class TestSchemeLoads:
    def test_one_closed_form_equals_the_family_formulas(self):
        """(2/g)(K - r)/kappa at each family's own (K, r, g), with kappa = K
        when no survivors are given, at every kappa in [1, K]."""
        params = accepted_scheme_parameters()
        assert {p.scheme for p in params} == {"I", "II", "III", "IV", "V"}
        # family III's implied g C(v-1, t-1)/C(k-1, t-1) need not be an integer
        assert any(
            comb(p.v - 1, p.t - 1) % comb(p.k - 1, p.t - 1) for p in params if p.scheme == "III"
        )
        for p in params:
            for kappa in (None, *range(1, p.K + 1)):
                assert scheme_load(p, kappa) == reference_scheme_load(p, kappa), (p, kappa)

    def test_family_I_fano_instance(self):
        p = SchemeParameters.bibd(7, 3)
        assert (p.K, p.N, p.r, p.g) == (7, 7, 4, 3)
        assert scheme_load(p) == Fraction(2, 7)

    def test_family_I_matches_identity_cover_load_when_g_integral(self):
        for v, k in [(7, 3), (13, 4), (9, 3), (13, 3)]:
            if (v - 1) % (k - 1) or (v * (v - 1)) % (k * (k - 1)):
                continue
            p = SchemeParameters.bibd(v, k)
            assert scheme_load(p) == load_formula(v, v - k, (v - 1) // (k - 1))

    def test_family_II(self):
        p = SchemeParameters.symmetric_bibd(7, 3)
        assert (p.K, p.N, p.r, p.g) == (7, 21, 5, 2)
        assert scheme_load(p) == Fraction(2, 7)
        assert scheme_load(p, survivors=6) == Fraction(2, 6)

    def test_family_III_formula_evaluates(self):
        p = SchemeParameters.t_design_1(8, 4, 3)
        assert (p.K, p.N, p.r) == (28, 56, 25)
        assert p.g is None
        # 2 * 6 * C(3,2)^2 / (8 * C(7,2)^2)
        assert scheme_load(p) == Fraction(2 * 6 * 9, 8 * 441) == Fraction(3, 98)
        assert scheme_load(p, survivors=27) == Fraction(2 * 9, 27 * 21) == Fraction(2, 63)

    def test_family_IV(self):
        p = SchemeParameters.t_design_2(7, 3)
        assert scheme_load(p) == Fraction(6, 35)
        assert scheme_load(p) == load_formula(7, 4, 5)
        assert scheme_load(p, survivors=5) == Fraction(6, 25)

    def test_family_V(self):
        p = SchemeParameters.transversal(3, 3)
        assert scheme_load(p) == Fraction(2, 9)
        assert scheme_load(p, survivors=8) == Fraction(2, 8)

    def test_survivor_range_checked(self):
        p = SchemeParameters.transversal(3, 3)
        with pytest.raises(ValueError):
            scheme_load(p, survivors=10)

    @pytest.mark.parametrize("K", range(2, 11))
    def test_man_load_strictly_below_twice_optimal(self, K):
        for r in range(1, K):
            ours = load_formula(K, r, r + 1)
            optimal = Fraction(1, r) * (1 - Fraction(r, K))
            assert ours == Fraction(2 * r, r + 1) * optimal
            assert ours < 2 * optimal


def format_design(d):
    """The text ``ingest_design`` reads: "v b k", the points, one block a line."""
    lines = [f"{d.v} {d.b} {d.block_size}", " ".join(d.points)]
    lines.extend(" ".join(block) for block in d.blocks)
    return "\n".join(lines) + "\n"


class TestIngestDesign:
    def test_fano_file_round_trip(self):
        d = fano_design()
        back = ingest_design(format_design(d))
        assert back == d
        assert back.v == 7 and back.b == 7 and back.block_size == 3

    def test_comments_ignored(self):
        text = "# a design\n3 1 3\n# points next\na b c\na b c\n"
        d = ingest_design(text)
        assert d.blocks == (("a", "b", "c"),)

    def test_empty_block_line_rejected(self):
        text = "3 2 3\na b c\na b c\n\n"
        # trailing blank is tolerated; an interior blank where a block
        # should be is not
        with pytest.raises(FormatError):
            ingest_design("3 2 3\na b c\n\na b c\n")

    def test_point_out_of_range(self):
        with pytest.raises(FormatError, match="declared"):
            ingest_design("7 1 3\n1 2 3 4 5 6 7\n1 2 8\n")

    def test_duplicate_block(self):
        with pytest.raises(FormatError, match="duplicate"):
            ingest_design("3 2 3\na b c\na b c\nc b a\n")

    def test_block_count_mismatch(self):
        with pytest.raises(FormatError):
            ingest_design("3 2 3\na b c\na b c\n")
