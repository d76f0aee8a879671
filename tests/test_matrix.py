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
from conftest import cover_members, label_cover


def from_bits(rows, cols, bits):
    """A matrix whose declared r is the first column's zero count."""
    arr = np.asarray(bits, dtype=np.uint8)
    r = int((arr[:, 0] == 0).sum()) if arr.size else 0
    return BinaryComputingMatrix(tuple(rows), tuple(cols), arr, r)


def entry(m, k, f):
    """The bit of server *k* and subfile *f*, looked up by label."""
    return int(m.bits[m.rows.index(k), m.cols.index(f)])


class TestValidateMatrix:
    def test_fano_is_valid_with_r4(self):
        report = validate_matrix(fano_matrix())
        assert report.ok
        assert report.r == 4
        assert report.violations == []

    def test_all_ones_matrix_fails_r_lower_bound(self):
        m = from_bits(("a", "b"), ("x", "y"), np.ones((2, 2)))
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
        m = from_bits(("1", "2", "3"), ("a", "b", "c"), bits)
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
        mt = from_bits(("a", "b", "c"), ("1", "2", "3"), bits.T)
        assert not validate_matrix(mt).ok


@pytest.mark.parametrize("bits", [
    np.array([[256, 1], [1, 257]]),   # a uint8 cast would wrap these to 0 and 1
    [[256, 1], [1, 0]],               # a uint8 cast would raise OverflowError
    [[0.5, 1], [1, 0]],               # a uint8 cast would cut 0.5 to 0
    [[2, 1], [1, 0]],
])
def test_bits_other_than_0_and_1_are_rejected(bits):
    with pytest.raises(ValueError, match="bits must contain only 0 and 1"):
        BinaryComputingMatrix(("a", "b"), ("x", "y"), bits, 1)


def test_the_callers_bits_stay_writeable():
    """The matrix freezes its own copy, not the array it was given."""
    a = np.zeros((2, 2), np.uint8)
    m = BinaryComputingMatrix(("1", "2"), ("a", "b"), a, 2)
    a[0, 0] = 1
    assert m.bits[0, 0] == 0 and not m.bits.flags.writeable


@pytest.mark.parametrize("bits, text", [
    (np.zeros(2, np.uint8), "bits must be a rectangular 2-d array"),
    (np.zeros((1, 2), np.uint8), "bits shape (1, 2) does not match 2 row and 2 column labels"),
    (np.zeros((2, 3), np.uint8), "bits shape (2, 3) does not match 2 row and 2 column labels"),
])
def test_bits_not_of_the_labels_shape_are_rejected(bits, text):
    with pytest.raises(ValueError) as err:
        BinaryComputingMatrix(("1", "2"), ("a", "b"), bits, 1)
    assert str(err.value) == text


@pytest.mark.parametrize("rows, cols, text", [
    (("1", "1"), ("a", "b"), "duplicate row labels"),
    (("1", "2"), ("a", "a"), "duplicate column labels"),
    (("1", "1"), ("a", "a"), "duplicate row labels"),
])
def test_duplicate_labels_are_rejected(rows, cols, text):
    with pytest.raises(ValueError) as err:
        BinaryComputingMatrix(rows, cols, np.zeros((2, 2), np.uint8), 2)
    assert str(err.value) == text


class TestVerifyCover:
    def test_fano_search_cover_is_ok(self, fano_pair):
        m, cover = fano_pair
        report = verify_cover(m, cover)
        assert report.ok
        assert cover.size == 7
        assert cover.uniform_size == 3

    def test_empty_cover_misses_all_21_ones(self):
        m = fano_matrix()
        report = verify_cover(m, label_cover([]))
        assert not report.ok
        assert len(report.missing) == 21
        assert report.overlapping == []

    def test_duplicated_member_overlaps_its_entries(self, fano_pair):
        m, cover = fano_pair
        dup = label_cover(cover_members(cover) + cover_members(cover)[:1])
        report = verify_cover(m, dup)
        assert not report.ok
        assert len(report.overlapping) == 3

    def test_malformed_member_is_named(self):
        m = fano_matrix()
        bad = label_cover([(("1", "2"), ("127", "256"))])
        report = verify_cover(m, bad)
        # (1, 127) = 1 but (2, 127) = 1 breaks the cross-zero condition
        assert report.malformed and report.malformed[0][0] == 0

    def test_unknown_label_reported_not_raised(self):
        m = fano_matrix()
        bad = label_cover([(("1", "9"), ("127", "256"))])
        report = verify_cover(m, bad)
        assert any("unknown" in reason for _, reason in report.malformed)

    def test_size_one_member_is_malformed(self):
        m = fano_matrix()
        report = verify_cover(m, label_cover([(("1",), ("127",))]))
        assert any("size" in reason for _, reason in report.malformed)

    def test_column_reuse_with_disjoint_pairings_is_legal(self):
        # two members may share columns as long as the covered ones differ
        bits = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.uint8)
        m = BinaryComputingMatrix(("1", "2", "3", "4"), ("f", "g"), bits, 2)
        cover = label_cover([(("1", "3"), ("f", "g")), (("2", "4"), ("f", "g"))])
        report = verify_cover(m, cover)
        assert report.ok

    def test_partition_property(self, fano_pair):
        m, cover = fano_pair
        assert verify_cover(m, cover).ok
        assert sum(len(rows) for rows, _ in cover_members(cover)) == m.ones_count()

    def test_member_columns_have_single_one_among_selected_rows(self, fano_pair):
        m, cover = fano_pair
        for rows, cols in cover_members(cover):
            for f in cols:
                ones = sum(entry(m, k, f) for k in rows)
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
        short = label_cover(cover_members(cover)[:6])
        assert not count_identity_check(short, m)   # 18 != 21

    def test_mixed_sizes_inapplicable(self):
        mixed = label_cover([(("1", "2"), ("a", "b")), (("1", "2", "3"), ("a", "b", "c"))])
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


def _reference_check_member(m, rows, cols):
    """Per-entry member check: the specification verify_cover must match."""
    if len(rows) < 2:
        return "size < 2 admits no exchange round"
    if len(set(rows)) != len(rows):
        return "repeated row label"
    if len(set(cols)) != len(cols):
        return "repeated column label"
    for k in rows:
        if k not in m.rows:
            return f"unknown server label {k!r}"
    for f in cols:
        if f not in m.cols:
            return f"unknown subfile label {f!r}"
    for i, k in enumerate(rows):
        for j, f in enumerate(cols):
            want = 1 if i == j else 0
            if entry(m, k, f) != want:
                return f"entry ({k},{f}) is {entry(m, k, f)}, expected {want}"
    return None


def _reference_verify_cover(m, members):
    """The report of the cover whose members are the (rows, cols) label
    pairs *members*, one member and one entry at a time."""
    malformed, counts = [], {}
    for idx, (rows, cols) in enumerate(members):
        reason = _reference_check_member(m, rows, cols)
        if reason is not None:
            malformed.append((idx, reason))
            continue
        for pair in zip(rows, cols):
            counts[pair] = counts.get(pair, 0) + 1
    ones = [(m.rows[i], m.cols[j]) for i, j in zip(*np.nonzero(m.bits))]
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
    """A small cover after one to three drops, column swaps inside a
    member, duplicates and unknown labels, as (rows, cols) label pairs
    and, when no label is unknown, as an index cover the same edits were
    made to."""
    m, cover = draw(st.sampled_from(SMALL_COVERS))
    members = list(cover_members(cover))
    R, C = (np.array(a) for a in cover.index(m).groups[0][1:])
    unknown = False
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "swap", "duplicate", "unknown")))
        i = draw(st.integers(0, len(members) - 1))
        rows, cols = members[i]
        if op == "drop" and len(members) > 1:
            del members[i]
            R, C = np.delete(R, i, axis=0), np.delete(C, i, axis=0)
        elif op == "swap":
            a, b = draw(st.permutations(range(len(rows))))[:2]
            cols = list(cols)
            cols[a], cols[b] = cols[b], cols[a]
            members[i] = (rows, tuple(cols))
            C[i, [a, b]] = C[i, [b, a]]
        elif op == "duplicate":
            at = draw(st.integers(0, len(members)))
            members.insert(at, members[i])
            R, C = np.insert(R, at, R[i], axis=0), np.insert(C, at, C[i], axis=0)
        elif op == "unknown":
            unknown = True
            side = draw(st.integers(0, 1))
            labels = list(members[i][side])
            labels[draw(st.integers(0, len(labels) - 1))] = "?"
            members[i] = (tuple(labels), cols) if side == 0 else (rows, tuple(labels))
    index_cover = None if unknown else IdentityCover.from_index(m, R, C)
    return m, members, index_cover


@settings(max_examples=200, deadline=None)
@given(corrupted_covers())
def test_verify_cover_matches_the_per_entry_reference(case):
    m, members, index_cover = case
    expected = _reference_verify_cover(m, members)
    cover = label_cover(members)
    assert verify_cover(m, cover) == expected
    if index_cover is not None:
        assert index_cover == cover and hash(index_cover) == hash(cover)
        assert format_cover(index_cover) == format_cover(cover)
        assert verify_cover(m, index_cover) == expected
        assert cover_members(index_cover) == tuple(members)


def test_mixed_and_misshapen_label_covers_verify_by_size_group():
    m = fano_matrix()
    members = [
        (("1", "3"), ("467", "127")),           # wrong entries
        (("3", "5", "7"), ("234", "256", "127")),
        (("1", "1"), ("9", "127")),             # repeated row first
        (("1", "2"), ("9", "127")),             # unknown column
        (("x", "2"), ("y", "127")),             # unknown row first
        (("4",), ("467",)),                     # size 1
    ]
    cover = label_cover(members)
    assert cover.uniform_size is None and cover.size == 6
    # one group per member size, in order of first use
    assert [(ids.tolist(), R.shape) for ids, R, _ in cover.groups] == [
        ([0, 2, 3, 4], (4, 2)), ([1], (1, 3)), ([5], (1, 1)),
    ]
    assert cover.rows == ("1", "3", "5", "7", "2", "x", "4")
    assert verify_cover(m, cover) == _reference_verify_cover(m, members)
    # a member whose row and column counts differ has no cover text
    with pytest.raises(FormatError, match="^member line has 3 labels, expected 2$"):
        parse_cover("1\n1 1 127 145\n")


class TestIndexCover:
    def test_from_index_equals_the_label_cover(self):
        m = fano_matrix()
        R = np.array([[2, 4, 6]])
        C = np.array([[6, 4, 0]])
        cover = IdentityCover.from_index(m, R, C)
        member = (("3", "5", "7"), ("234", "256", "127"))
        label = label_cover([member])
        assert cover == label and hash(cover) == hash(label)
        assert cover.size == 1 and cover.uniform_size == 3
        assert format_cover(cover) == format_cover(label) == "1\n3 3 5 7 234 256 127\n"
        assert (label.rows, label.cols) == member
        # a cover over the matrix's own labels is its own index
        assert cover.index(m) is cover and (cover.rows, cover.cols) == (m.rows, m.cols)
        R[0, 0] = 0     # the cover holds its own copy
        assert cover == label

    def test_empty_index_cover(self):
        empty = np.zeros((0, 3), dtype=int)
        cover = IdentityCover.from_index(fano_matrix(), empty, empty)
        assert cover == label_cover([]) and cover.size == 0 and cover.uniform_size is None
        assert verify_cover(fano_matrix(), cover) == _reference_verify_cover(fano_matrix(), ())

    @pytest.mark.parametrize(
        "R, C, match",
        [
            ([0, 1], [0, 1], "2-d"),
            ([[[0, 1]]], [[[0, 1]]], "2-d"),
            ([[0, 1]], [[0, 1, 2]], "shape"),
            ([[0, 1]], [[0], [1]], "shape"),
            ([[0, 7]], [[0, 1]], "row indices"),
            ([[-1, 1]], [[0, 1]], "row indices"),
            ([[0, 1]], [[0, 7]], "column indices"),
            ([[0, 1]], [[-1, 1]], "column indices"),
            ([[0.0, 1.0]], [[0, 1]], "row indices must be integers"),
        ],
    )
    def test_from_index_rejects(self, R, C, match):
        with pytest.raises(ValueError, match=match):
            IdentityCover.from_index(fano_matrix(), np.array(R), np.array(C))

    def test_index_cover_over_relabelled_matrix(self):
        """An index cover checked against a matrix with other labels is
        read through its labels, as a label cover would be."""
        m = fano_matrix()
        cover = IdentityCover.from_index(m, [[2, 4, 6]], [[6, 4, 0]])
        other = BinaryComputingMatrix(
            ("7", "6", "5", "4", "3", "2", "1"), m.cols, m.bits[::-1], m.r
        )
        members = cover_members(cover)
        assert verify_cover(other, cover) == _reference_verify_cover(other, members)
        relabelled = BinaryComputingMatrix(tuple("abcdefg"), m.cols, m.bits, m.r)
        report = verify_cover(relabelled, cover)
        assert report == _reference_verify_cover(relabelled, members)
        assert report.malformed == [(0, "unknown server label '3'")]


def test_verify_cover_reference_on_the_suite(suite):
    for name, m, cover in suite:
        assert verify_cover(m, cover) == _reference_verify_cover(m, cover_members(cover)), name


def reference_parse_matrix(text):
    """The per-cell parser ``parse_matrix`` replaced."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) < 3:
        raise FormatError("matrix file needs a header, label lines, and bit rows")
    header = lines[0].split()
    if len(header) != 3:
        raise FormatError(f"matrix header must be 'K N r', got {lines[0]!r}")
    try:
        K, N, r = (int(tok) for tok in header)
    except ValueError as exc:
        raise FormatError(f"non-integer matrix header: {lines[0]!r}") from exc
    cols = tuple(lines[1].split())
    rows = tuple(lines[2].split())
    if len(cols) != N:
        raise FormatError(f"expected {N} column labels, got {len(cols)}")
    if len(rows) != K:
        raise FormatError(f"expected {K} row labels, got {len(rows)}")
    if len(lines) != 3 + K:
        raise FormatError(f"expected {K} bit rows, got {len(lines) - 3}")
    bits = np.zeros((K, N), dtype=np.uint8)
    for i, ln in enumerate(lines[3:]):
        toks = ln.split()
        if len(toks) != N:
            raise FormatError(f"bit row {i} has {len(toks)} entries, expected {N}")
        for j, tok in enumerate(toks):
            if tok not in ("0", "1"):
                raise FormatError(f"bit row {i} entry {tok!r} is not 0/1")
            bits[i, j] = int(tok)
    return BinaryComputingMatrix(rows, cols, bits, r)


def reference_parse_cover(text):
    """The label parser ``parse_cover`` replaced: each member line as its
    (row labels, column labels)."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("cover file is empty")
    try:
        S = int(lines[0])
    except ValueError as exc:
        raise FormatError(f"cover header must be an integer, got {lines[0]!r}") from exc
    if len(lines) != 1 + S:
        raise FormatError(f"expected {S} member lines, got {len(lines) - 1}")
    members = []
    for ln in lines[1:]:
        toks = ln.split()
        try:
            l = int(toks[0])
        except (ValueError, IndexError) as exc:
            raise FormatError(f"member line must start with its size: {ln!r}") from exc
        if len(toks) != 1 + 2 * l:
            raise FormatError(f"member line has {len(toks) - 1} labels, expected {2 * l}")
        members.append((tuple(toks[1 : 1 + l]), tuple(toks[1 + l :])))
    return tuple(members)


def reference_format_cover(members):
    lines = [str(len(members))]
    lines += [" ".join([str(len(rows)), *rows, *cols]) for rows, cols in members]
    return "\n".join(lines) + "\n"


def _parsed(parse, text):
    """What *parse* returns for *text*, and the type and text of the
    ValueError it raises instead."""
    try:
        return parse(text), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def _parser_cases():
    from codedmr import man_cover, search_cover

    fano, man = fano_matrix(), man_matrix(5, 2)
    return [
        (m, format_matrix(m), format_cover(cover))
        for m, cover in ((fano, search_cover(fano, 3, mode="exact")), (man, man_cover(man)))
    ]


PARSER_CASES = _parser_cases()
_SIZES = ("-1", "-3", "0", "1", "2", "3", "4", str(2**64), "9" * 30)
_TOKENS = _SIZES + ("00", "1.0", "+1", "x", "?", "zz", "é")


@st.composite
def edited_texts(draw, text):
    """*text* after up to five edits: a token inserted, deleted, replaced
    (by another of the text's tokens, a size, a number or an unknown
    label), a line's first token set to a size, a member line shrunk by
    one row and one column label, a blank line inserted or a line
    deleted; then joined with one of three separators."""
    token = st.sampled_from(_TOKENS + tuple(sorted(set(text.split()))))
    lines = [ln.split() for ln in text.splitlines()]
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(
            ("insert", "delete", "replace", "size", "shrink", "blank", "drop")
        ))
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, max(len(line) - 1, 0)))
        if op == "insert":
            line.insert(draw(st.integers(0, len(line))), draw(token))
        elif op == "delete" and line:
            del line[at]
        elif op == "replace" and line:
            line[at] = draw(token)
        elif op == "size" and line:
            line[0] = draw(st.sampled_from(_SIZES))
        elif op == "shrink" and len(line) % 2 and len(line) > 1:
            l = len(line) // 2
            lines[i] = [str(l - 1), *line[1:l], *line[l + 1 : 2 * l]]
        elif op == "blank":
            lines.insert(draw(st.integers(0, len(lines))), [draw(st.sampled_from(("", "\t ")))])
        elif op == "drop" and len(lines) > 1:
            del lines[i]
    sep = draw(st.sampled_from((" ", "  ", " \t")))
    return "\n".join(sep.join(line) for line in lines) + draw(st.sampled_from(("\n", "", "\n\n")))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(PARSER_CASES), st.data())
def test_parsers_equal_the_reference_parsers_on_edited_texts(case, data):
    """Equal matrices and covers, cover text, verify reports and balance
    counts, or the same error with the same text."""
    from codedmr import balance_preconditions

    m, matrix_text, cover_text = case
    matrix_text = data.draw(edited_texts(matrix_text))
    cover_text = data.draw(edited_texts(cover_text))
    got_m, error = _parsed(parse_matrix, matrix_text)
    want_m, want_error = _parsed(reference_parse_matrix, matrix_text)
    assert error == want_error
    if want_m is not None:
        assert (got_m.rows, got_m.cols, got_m.r) == (want_m.rows, want_m.cols, want_m.r)
        assert got_m.bits.dtype == want_m.bits.dtype and np.array_equal(got_m.bits, want_m.bits)
    cover, error = _parsed(parse_cover, cover_text)
    members, want_error = _parsed(reference_parse_cover, cover_text)
    assert error == want_error
    if members is None:
        return
    assert cover_members(cover) == members
    assert format_cover(cover) == reference_format_cover(members)
    sizes = {len(rows) for rows, _ in members}
    assert cover.size == len(members)
    assert cover.uniform_size == (sizes.pop() if len(sizes) == 1 else None)
    for mm, want in ((m, m), (got_m, want_m)):
        if mm is None:
            continue
        assert verify_cover(mm, cover) == _reference_verify_cover(want, members)
        report = balance_preconditions(mm, cover)
        assert report.counts == {k: sum(rows.count(k) for rows, _ in members) for k in want.rows}
        held = {sum(k in want.rows for k in rows) for rows, _ in members}
        assert report.member_rows == (held.pop() if len(held) == 1 else None)
