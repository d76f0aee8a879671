from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmr import (
    BinaryComputingMatrix,
    CoverReport,
    FormatError,
    IdentityCover,
    IdentitySubmatrix,
    count_identity_check,
    fano_matrix,
    format_cover,
    format_matrix,
    load_formula,
    man_matrix,
    parse_cover,
    parse_matrix,
    validate_matrix,
    verify_cover,
)


class TestValidateMatrix:
    def test_fano_is_valid_with_r4(self):
        report = validate_matrix(fano_matrix())
        assert report.ok
        assert report.r == 4
        assert report.violations == []

    def test_all_ones_matrix_fails_r_lower_bound(self):
        m = BinaryComputingMatrix.from_bits(("a", "b"), ("x", "y"), np.ones((2, 2)))
        report = validate_matrix(m)
        assert not report.ok
        assert m.r == 0
        assert any("r=0" in v for v in report.violations)

    def test_man_matrix_zero_counts_brute_force(self):
        m = man_matrix(5, 2)
        report = validate_matrix(m)
        assert report.ok and report.r == 2
        # independent recount straight off the bit array
        for j in range(m.N):
            assert sum(1 for i in range(m.K) if m.bits[i, j] == 0) == 2

    def test_fully_mapped_column_gets_distinct_message(self):
        bits = np.zeros((3, 3), dtype=np.uint8)
        m = BinaryComputingMatrix.from_bits(("1", "2", "3"), ("a", "b", "c"), bits)
        report = validate_matrix(m)
        assert not report.ok
        assert any("fully mapped" in v for v in report.violations)

    def test_uneven_column_reports_offending_column(self):
        bits = np.array([[0, 0], [1, 0], [1, 1]], dtype=np.uint8)
        m = BinaryComputingMatrix(("1", "2", "3"), ("a", "b"), bits, 1)
        report = validate_matrix(m)
        assert not report.ok
        assert any("'b'" in v for v in report.violations)

    def test_small_n_warns_but_still_ok(self):
        # fewer subfiles than servers: warned, not failed
        bits = np.array([[1], [0], [0]], dtype=np.uint8)
        m = BinaryComputingMatrix(("1", "2", "3"), ("a",), bits, 2)
        report = validate_matrix(m)
        assert report.ok
        assert report.warnings

    def test_transpose_of_valid_matrix_need_not_be_valid(self):
        # column-regular but row-irregular; the transpose fails validation
        bits = np.array([[0, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=np.uint8)
        m = BinaryComputingMatrix(("1", "2", "3"), ("a", "b", "c"), bits, 1)
        assert validate_matrix(m).ok
        mt = BinaryComputingMatrix.from_bits(("a", "b", "c"), ("1", "2", "3"), bits.T)
        assert not validate_matrix(mt).ok


class TestVerifyCover:
    def test_fano_search_cover_is_ok(self, fano_pair):
        m, cover = fano_pair
        report = verify_cover(m, cover)
        assert report.ok
        assert cover.size == 7
        assert cover.uniform_size == 3

    def test_empty_cover_misses_all_21_ones(self):
        m = fano_matrix()
        report = verify_cover(m, IdentityCover(()))
        assert not report.ok
        assert len(report.missing) == 21
        assert report.overlapping == []

    def test_duplicated_member_overlaps_its_entries(self, fano_pair):
        m, cover = fano_pair
        dup = IdentityCover(cover.members + (cover.members[0],))
        report = verify_cover(m, dup)
        assert not report.ok
        assert len(report.overlapping) == 3

    def test_malformed_member_is_named(self):
        m = fano_matrix()
        bad = IdentityCover((IdentitySubmatrix(("1", "2"), ("127", "256")),))
        report = verify_cover(m, bad)
        # (1, 127) = 1 but (2, 127) = 1 breaks the cross-zero condition
        assert report.malformed and report.malformed[0][0] == 0

    def test_unknown_label_reported_not_raised(self):
        m = fano_matrix()
        bad = IdentityCover((IdentitySubmatrix(("1", "9"), ("127", "256")),))
        report = verify_cover(m, bad)
        assert any("unknown" in reason for _, reason in report.malformed)

    def test_size_one_member_is_malformed(self):
        m = fano_matrix()
        report = verify_cover(m, IdentityCover((IdentitySubmatrix(("1",), ("127",)),)))
        assert any("size" in reason for _, reason in report.malformed)

    def test_column_reuse_with_disjoint_pairings_is_legal(self):
        # two members may share columns as long as the covered ones differ
        bits = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.uint8)
        m = BinaryComputingMatrix(("1", "2", "3", "4"), ("f", "g"), bits, 2)
        cover = IdentityCover(
            (
                IdentitySubmatrix(("1", "3"), ("f", "g")),
                IdentitySubmatrix(("2", "4"), ("f", "g")),
            )
        )
        report = verify_cover(m, cover)
        assert report.ok

    def test_partition_property(self, fano_pair):
        m, cover = fano_pair
        assert verify_cover(m, cover).ok
        assert sum(member.size for member in cover.members) == m.ones_count()

    def test_member_columns_have_single_one_among_selected_rows(self, fano_pair):
        m, cover = fano_pair
        for member in cover.members:
            for f in member.cols:
                ones = sum(m.entry(k, f) for k in member.rows)
                assert ones == 1


class TestCountIdentity:
    def test_fano_counts(self, fano_pair):
        m, cover = fano_pair
        assert count_identity_check(cover, m)   # 7*3 == 7*(7-4)

    def test_man_counts(self):
        m = man_matrix(5, 2)
        from codedmr import man_cover

        cover = man_cover(m)
        assert cover.size == 10 and cover.uniform_size == 3
        assert count_identity_check(cover, m)   # 10*3 == 10*(5-2)

    def test_wrong_count_is_false(self, fano_pair):
        m, cover = fano_pair
        short = IdentityCover(cover.members[:6])
        assert not count_identity_check(short, m)   # 18 != 21

    def test_mixed_sizes_inapplicable(self):
        mixed = IdentityCover(
            (
                IdentitySubmatrix(("1", "2"), ("a", "b")),
                IdentitySubmatrix(("1", "2", "3"), ("a", "b", "c")),
            )
        )
        with pytest.raises(ValueError, match="mixed"):
            count_identity_check(mixed, fano_matrix())


class TestLoadFormula:
    def test_fano_parameters(self):
        assert load_formula(7, 4, 3) == Fraction(2, 7)

    @pytest.mark.parametrize("K", range(2, 11))
    def test_r_equals_K_minus_1(self, K):
        assert load_formula(K, K - 1, K) == Fraction(2, K * K)

    def test_man_5_2(self):
        assert load_formula(5, 2, 3) == Fraction(2, 5)

    def test_g_below_two_invalid(self):
        with pytest.raises(ValueError):
            load_formula(5, 2, 1)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            load_formula(5, 5, 3)
        with pytest.raises(ValueError):
            load_formula(5, 2, 6)


class TestTextFormats:
    def test_matrix_round_trip(self, fano_pair):
        m, _ = fano_pair
        back = parse_matrix(format_matrix(m))
        assert back.rows == m.rows and back.cols == m.cols and back.r == m.r
        assert np.array_equal(back.bits, m.bits)

    def test_cover_round_trip(self, fano_pair):
        _, cover = fano_pair
        assert parse_cover(format_cover(cover)) == cover

    def test_bad_header_raises(self):
        with pytest.raises(FormatError):
            parse_matrix("1 2\nx y\na\n0 1\n")

    def test_wrong_label_count_raises(self):
        with pytest.raises(FormatError):
            parse_matrix("2 2 1\nx y z\na b\n0 1\n1 0\n")

    def test_non_binary_entry_raises(self):
        with pytest.raises(FormatError):
            parse_matrix("1 2 1\nx y\na\n0 2\n")

    def test_cover_member_token_count(self):
        with pytest.raises(FormatError):
            parse_cover("1\n2 a b c\n")


def _reference_check_member(m, sub):
    """Per-entry member check: the specification verify_cover must match."""
    if len(sub.rows) != len(sub.cols):
        return "row and column counts differ"
    if sub.size < 2:
        return "size < 2 admits no exchange round"
    if len(set(sub.rows)) != sub.size:
        return "repeated row label"
    if len(set(sub.cols)) != sub.size:
        return "repeated column label"
    for k in sub.rows:
        if k not in m.rows:
            return f"unknown server label {k!r}"
    for f in sub.cols:
        if f not in m.cols:
            return f"unknown subfile label {f!r}"
    for i, k in enumerate(sub.rows):
        for j, f in enumerate(sub.cols):
            want = 1 if i == j else 0
            if m.entry(k, f) != want:
                return f"entry ({k},{f}) is {m.entry(k, f)}, expected {want}"
    return None


def _reference_verify_cover(m, c):
    malformed, counts = [], {}
    for idx, sub in enumerate(c.members):
        reason = _reference_check_member(m, sub)
        if reason is not None:
            malformed.append((idx, reason))
            continue
        for pair in sub.pairs():
            counts[pair] = counts.get(pair, 0) + 1
    ones = list(m.ones())
    missing = [p for p in ones if counts.get(p, 0) == 0]
    overlapping = [p for p in ones if counts.get(p, 0) > 1]
    ok = not malformed and not missing and not overlapping
    return CoverReport(ok, malformed, missing, overlapping)


def _small_covers():
    from codedmr import man_cover, search_cover, transversal_cover, transversal_matrix

    out = []
    for K, r in ((4, 1), (5, 2), (6, 3)):
        m = man_matrix(K, r)
        out.append((m, man_cover(m)))
    m = fano_matrix()
    out.append((m, search_cover(m, 3, mode="exact")))
    m = transversal_matrix(3, 3)
    out.append((m, transversal_cover(m)))
    return out


SMALL_COVERS = _small_covers()


@st.composite
def corrupted_covers(draw):
    m, cover = draw(st.sampled_from(SMALL_COVERS))
    members = list(cover.members)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "swap", "duplicate", "unknown")))
        i = draw(st.integers(0, len(members) - 1))
        sub = members[i]
        if op == "drop" and len(members) > 1:
            del members[i]
        elif op == "swap":
            a, b = draw(st.permutations(range(sub.size)))[:2]
            cols = list(sub.cols)
            cols[a], cols[b] = cols[b], cols[a]
            members[i] = IdentitySubmatrix(sub.rows, tuple(cols))
        elif op == "duplicate":
            members.insert(draw(st.integers(0, len(members))), sub)
        elif op == "unknown":
            side = draw(st.sampled_from(("rows", "cols")))
            labels = list(getattr(sub, side))
            labels[draw(st.integers(0, sub.size - 1))] = "?"
            members[i] = IdentitySubmatrix(
                *((tuple(labels), sub.cols) if side == "rows" else (sub.rows, tuple(labels)))
            )
    return m, IdentityCover(tuple(members))


@settings(max_examples=200, deadline=None)
@given(corrupted_covers())
def test_verify_cover_matches_the_per_entry_reference(case):
    m, cover = case
    assert verify_cover(m, cover) == _reference_verify_cover(m, cover)


def test_verify_cover_reference_on_the_suite(suite):
    for name, m, cover in suite:
        assert verify_cover(m, cover) == _reference_verify_cover(m, cover), name
