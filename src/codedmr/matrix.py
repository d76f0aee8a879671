"""Core types for binary computing matrices and identity submatrix covers.

A (K, N, r)-binary computing matrix describes the map phase of a coded
MapReduce job: rows are servers, columns are subfiles, and a 0 at (k, f)
means server k maps subfile f.  Every column carries the same number of
zeros r, the computation load.  The ones are exactly the intermediate
values the shuffle phase must deliver, and a non-overlapping identity
submatrix cover partitions them into units that a single two-transmission
exchange round can serve.

An identity cover is held as index arrays, its one form: member s has
the rows ``rows[R[s]]`` matched in order with the columns ``cols[C[s]]``
of the cover's label tuples, its members grouped by size.  The analytic
covers and the cover searches build one (S, g) pair of arrays over a
matrix's own labels (``IdentityCover.from_index``); ``parse_cover``
numbers a file's labels in order of first use and groups its member
lines by size.  The consumers (verification, the shuffle's member index
and default plan, the balancer, the cover text) read only the arrays,
over a matrix's labels (``IdentityCover.index``): a label the matrix
lacks gets an index past the matrix's own, so the same array checks
name it.  The checks run in the order and with the reasons of a
per-member check, and the text is gathered from the labels in member
order.

All types here are immutable after construction and safe to share across
concurrent tasks.  Validation operations are pure functions that report
violations rather than raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Sequence

import numpy as np


class FormatError(ValueError):
    """Raised when a matrix or cover text file cannot be parsed."""


@dataclass(frozen=True, eq=False)
class BinaryComputingMatrix:
    """K x N 0/1 matrix with labelled rows (servers) and columns (subfiles).

    ``bits[i, j] == 0`` means the server ``rows[i]`` maps the subfile
    ``cols[j]``.  ``r`` is the declared per-column zero count; whether the
    bits actually honour it is the job of :func:`validate_matrix`.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    bits: np.ndarray = field(repr=False)
    r: int

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 2:
            raise ValueError("bits must be a rectangular 2-d array")
        if bits.shape != (len(self.rows), len(self.cols)):
            raise ValueError(
                f"bits shape {bits.shape} does not match "
                f"{len(self.rows)} row and {len(self.cols)} column labels"
            )
        # checked before the cast, which would wrap 256 to 0 and cut 0.5 to 0
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("bits must contain only 0 and 1")
        bits = np.array(bits, dtype=np.uint8)   # a copy: the caller's array stays writeable
        row_idx = {k: i for i, k in enumerate(self.rows)}
        if len(row_idx) != len(self.rows):
            raise ValueError("duplicate row labels")
        col_idx = {f: j for j, f in enumerate(self.cols)}
        if len(col_idx) != len(self.cols):
            raise ValueError("duplicate column labels")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        object.__setattr__(self, "_row_idx", row_idx)
        object.__setattr__(self, "_col_idx", col_idx)

    @property
    def K(self) -> int:
        return len(self.rows)

    @property
    def N(self) -> int:
        return len(self.cols)

    def row_index(self, k: str) -> int:
        return self._row_idx[k]  # type: ignore[attr-defined]

    def ones_count(self) -> int:
        return int(np.count_nonzero(self.bits))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _translate(
    labels: Sequence[str], known: dict[str, int]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Map *labels* to indices of a matrix side whose label -> index map
    is *known*; labels it lacks get the indices after its own, in order."""
    unknown = [k for k in labels if k not in known]
    extra = {k: len(known) + u for u, k in enumerate(unknown)}
    table = np.array([known[k] if k in known else extra[k] for k in labels], dtype=np.intp)
    return table, tuple(unknown)


@dataclass(frozen=True, eq=False)
class IdentityCover:
    """A family of identity submatrices meant to cover every one-entry,
    held as index arrays over label tuples.

    ``groups`` holds, for each member size l, the member numbers of that
    size and their (n, l) row and column indices: member s has the rows
    ``rows[R[s]]`` matched in order with the columns ``cols[C[s]]``.  A
    cover is built by :meth:`from_index`, over one matrix's own labels,
    or by :func:`parse_cover`, over its labels in order of first use.
    Two covers are equal when their members have the same labels in the
    same order, whatever labels they were indexed over.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @classmethod
    def from_index(cls, m: BinaryComputingMatrix, R, C) -> "IdentityCover":
        """The cover whose member s has rows ``m.rows[R[s]]`` matched in
        order with columns ``m.cols[C[s]]``.

        R and C must be 2-d integer arrays of one shape (S, g) holding
        row indices below K and column indices below N; they are copied.
        Whether the members are identity submatrices is the job of
        :func:`verify_cover`.
        """
        R, C = np.asarray(R), np.asarray(C)
        if R.ndim != 2 or C.ndim != 2:
            raise ValueError(f"R and C must be 2-d arrays, got {R.ndim}-d and {C.ndim}-d")
        if R.shape != C.shape:
            raise ValueError(f"R shape {R.shape} differs from C shape {C.shape}")
        for name, a, bound in (("row", R, m.K), ("column", C, m.N)):
            if a.size and a.dtype.kind not in "iu":
                raise ValueError(f"{name} indices must be integers, got {a.dtype}")
            if a.size and not (0 <= a.min() and a.max() < bound):
                raise ValueError(f"{name} indices must lie in [0, {bound})")
        groups = ()
        if len(R):
            arrays = (np.arange(len(R)), *(a.astype(np.intp, order="C") for a in (R, C)))
            groups = (tuple(map(_read_only, arrays)),)
        return cls(m.rows, m.cols, groups)

    def index(self, m: BinaryComputingMatrix) -> "IdentityCover":
        """This cover indexed over *m*'s labels: labels *m* lacks follow
        its own, so an index of at least K (or N) names an unknown label.

        A cover built over *m*'s labels is returned as it is; any other
        maps its label tuples, one lookup per distinct label rather than
        per member entry.
        """
        if self.rows == m.rows and self.cols == m.cols:
            return self
        rmap, rows = _translate(self.rows, m._row_idx)   # type: ignore[attr-defined]
        cmap, cols = _translate(self.cols, m._col_idx)   # type: ignore[attr-defined]
        return IdentityCover(
            m.rows + rows,
            m.cols + cols,
            tuple((ids, rmap[R], cmap[C]) for ids, R, C in self.groups),
        )

    @property
    def size(self) -> int:
        """Number of members S."""
        return sum(len(ids) for ids, _, _ in self.groups)

    @property
    def uniform_size(self) -> int | None:
        """Common member size g, or None when sizes are mixed or S = 0."""
        if len(self.groups) == 1:
            return self.groups[0][1].shape[1]
        return None

    def _labels(self) -> list[tuple[list[str], list[str]]]:
        """Each member's row labels and column labels, in member order,
        gathered from the arrays."""
        rows, cols = np.array(self.rows, dtype=object), np.array(self.cols, dtype=object)
        labels = [
            pair for _, R, C in self.groups for pair in zip(rows[R].tolist(), cols[C].tolist())
        ]
        if len(self.groups) < 2:
            return labels
        ids = np.concatenate([ids for ids, _, _ in self.groups])
        return [labels[i] for i in np.argsort(ids).tolist()]

    def _key(self) -> tuple:
        return tuple((tuple(r), tuple(c)) for r, c in self._labels())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdentityCover):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"IdentityCover(S={self.size}, g={self.uniform_size})"


@dataclass
class MatrixReport:
    """Outcome of validate_matrix: ok plus named violations and warnings."""

    ok: bool
    r: int
    violations: list[str]
    warnings: list[str]


@dataclass
class CoverReport:
    """Outcome of verify_cover.

    ``malformed`` lists (member index, reason) for members that are not
    identity submatrices of the matrix; ``missing`` and ``overlapping``
    list one-entries covered zero or more than one time.
    """

    ok: bool
    malformed: list[tuple[int, str]]
    missing: list[tuple[str, str]]
    overlapping: list[tuple[str, str]]


def validate_matrix(m: BinaryComputingMatrix) -> MatrixReport:
    """Check the constant-column-zero-count invariant and the range of r.

    Violations are reported, never raised.  A column fully mapped
    (r = K) is rejected with a distinct message: it generates no shuffle
    traffic and no identity submatrix can cover it, which breaks the
    cover counting identity.
    """
    violations: list[str] = []
    warnings: list[str] = []
    zero_counts = (m.bits == 0).sum(axis=0)
    bad = [
        f"column {m.cols[j]!r} has {int(c)} zeros, expected r={m.r}"
        for j, c in enumerate(zero_counts)
        if int(c) != m.r
    ]
    violations.extend(bad)
    if m.r == m.K:
        violations.append(
            f"r={m.r} equals K: fully mapped subfiles generate no shuffle "
            "need and admit no identity submatrix cover"
        )
    elif not 1 <= m.r <= m.K - 1:
        violations.append(f"computation load r={m.r} out of range [1, K-1]")
    if m.N < m.K:
        warnings.append(f"N={m.N} < K={m.K}: fewer subfiles than servers")
    return MatrixReport(ok=not violations, r=m.r, violations=violations, warnings=warnings)


def _member_faults(
    m: BinaryComputingMatrix, idx: IdentityCover, R: np.ndarray, C: np.ndarray
) -> tuple[list[tuple[int, str]], np.ndarray]:
    """Why each member of one size group is not an identity submatrix of *m*.

    Returns (position in the group, reason) for the faulty members and a
    mask of the sound ones.  The checks run in a fixed order, each over
    the whole group, and a member gets the reason of the first it fails:
    size, repeated row, repeated column, unknown row, unknown column,
    then the entries, of which the first wrong one in row-major order is
    named.  Only faulty members are visited one by one.
    """
    n, a = R.shape
    if a < 2:
        reason = "size < 2 admits no exchange round"
        return [(s, reason) for s in range(n)], np.zeros(n, dtype=bool)

    def repeated(X):
        X = np.sort(X, axis=1)
        return (X[:, 1:] == X[:, :-1]).any(axis=1)

    checks = (
        (repeated(R), lambda s: "repeated row label"),
        (repeated(C), lambda s: "repeated column label"),
        ((R >= m.K).any(axis=1),
         lambda s: f"unknown server label {idx.rows[R[s][R[s] >= m.K][0]]!r}"),
        ((C >= m.N).any(axis=1),
         lambda s: f"unknown subfile label {idx.cols[C[s][C[s] >= m.N][0]]!r}"),
    )
    faults: list[tuple[int, str]] = []
    sound = np.ones(n, dtype=bool)
    for fails, reason in checks:
        hit = np.flatnonzero(fails & sound)
        faults += [(s, reason(s)) for s in hit.tolist()]
        sound[hit] = False
    at = np.flatnonzero(sound)
    held = _identities(m.bits, R, C) if len(at) == n else _identities(m.bits, R[at], C[at])
    wrong = at[~held]
    for s in wrong.tolist():
        bad = m.bits[R[s, :, None], C[s]] != np.eye(a, dtype=np.uint8)
        i, j = divmod(int(np.argmax(bad)), a)
        want = int(i == j)
        faults.append(
            (s, f"entry ({idx.rows[R[s, i]]},{idx.cols[C[s, j]]}) is {1 - want}, expected {want}")
        )
    sound[wrong] = False
    return faults, sound


def _identities(bits: np.ndarray, R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Whether each member, with distinct rows R[s] and columns C[s] of
    *bits*, holds the identity: 1 at (R[s, i], C[s, i]), 0 across.

    Each column's ones are a bitmask over the rows in 64-bit words, so a
    member holds the identity when every column C[s, j] meets the
    member's rows in row R[s, j] alone: g word tests per member, not g*g
    entries.
    """
    K, N = bits.shape
    words = -(-K // 64)
    packed = np.zeros((N, 8 * words), dtype=np.uint8)
    packed[:, : -(-K // 8)] = np.packbits(bits, axis=0, bitorder="little").T
    column = packed.view("<u8")                                   # (N, words)
    bit = np.uint64(1) << (R % 64).astype(np.uint64)
    own = np.where((R // 64)[..., None] == np.arange(words), bit[..., None], np.uint64(0))
    rows = np.bitwise_or.reduce(own, axis=1)[:, None]             # each member's rows
    return ((column[C] & rows) == own).all(axis=(1, 2))


def verify_cover(m: BinaryComputingMatrix, c: IdentityCover) -> CoverReport:
    """Check member validity, full coverage, and non-overlap of one-entries.

    Coverage is counted over matched (row, column) pairs only; a column
    may appear in several members as long as the covered one-entries
    differ.  Malformed members are reported and excluded from counting;
    a member with wrong entries is named by its first one in row-major
    order.  The check reads the cover's index arrays over *m*, one group
    of equally sized members at a time, so a cover of one size is one
    array pass, with the reasons and lists a per-member check would give.
    """
    idx = c.index(m)
    malformed: list[tuple[int, str]] = []
    counts = np.zeros(m.K * m.N, dtype=np.int64)
    for ids, R, C in idx.groups:
        faults, sound = _member_faults(m, idx, R, C)
        malformed += [(int(ids[s]), reason) for s, reason in faults]
        if faults:
            R, C = R[sound], C[sound]
        counts += np.bincount((R * m.N + C).ravel(), minlength=m.K * m.N)
    malformed.sort()
    ones = np.flatnonzero(m.bits)       # row-major, as (row, column) = divmod(., N)
    n = counts[ones]
    missing = [(m.rows[i], m.cols[j]) for i, j in zip(*np.divmod(ones[n == 0], m.N))]
    overlapping = [(m.rows[i], m.cols[j]) for i, j in zip(*np.divmod(ones[n > 1], m.N))]
    ok = not malformed and not missing and not overlapping
    return CoverReport(ok=ok, malformed=malformed, missing=missing, overlapping=overlapping)


def count_identity_check(c: IdentityCover, m: BinaryComputingMatrix) -> bool:
    """True iff S * g = N * (K - r) for a uniform-size cover."""
    g = c.uniform_size
    if g is None:
        raise ValueError("cover has mixed member sizes; counting identity inapplicable")
    return c.size * g == m.N * (m.K - m.r)


def load_formula(K: int, r: int, g: int) -> Fraction:
    """Communication load 2/g * (1 - r/K) of the two-transmission scheme."""
    if g < 2:
        raise ValueError("identity submatrices of size < 2 admit no exchange round")
    if g > K:
        raise ValueError(f"g={g} exceeds the number of servers K={K}")
    if not 1 <= r < K:
        raise ValueError(f"computation load r={r} out of range [1, K-1]")
    return Fraction(2, g) * (1 - Fraction(r, K))


# ---------------------------------------------------------------------------
# Text formats.
#
# Matrix: header "K N r", one line of N column labels, one line of K row
# labels, then K lines of N space-separated 0/1 digits.
# Cover: header "S", then one line per member: "l  k1..kl  f1..fl".
# ---------------------------------------------------------------------------


def format_matrix(m: BinaryComputingMatrix) -> str:
    header = f"{m.K} {m.N} {m.r}\n{' '.join(m.cols)}\n{' '.join(m.rows)}\n"
    # Every bit row at once: the digits at even offsets, spaces between
    # them and a newline last (alone on a row of an empty matrix).
    text = np.full((m.K, max(2 * m.N, 1)), ord(" "), dtype=np.uint8)
    text[:, : 2 * m.N : 2] = m.bits + ord("0")
    text[:, -1] = ord("\n")
    return header + text.tobytes().decode("ascii")


_BITS = {"0": 0, "1": 1}


def parse_matrix(text: str) -> BinaryComputingMatrix:
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
    bits = np.empty((K, N), dtype=np.uint8)
    for i, ln in enumerate(lines[3:]):
        toks = ln.split()
        if len(toks) != N:
            raise FormatError(f"bit row {i} has {len(toks)} entries, expected {N}")
        # 0 and 1 for those tokens, 2 for any other
        bits[i] = np.fromiter(map(_BITS.get, toks, repeat(2)), np.uint8, N)
        if bits[i].max() > 1:
            tok = toks[int(np.argmax(bits[i] > 1))]
            raise FormatError(f"bit row {i} entry {tok!r} is not 0/1")
    return BinaryComputingMatrix(rows, cols, bits, r)


def format_cover(c: IdentityCover) -> str:
    lines = [str(c.size)]
    lines += [" ".join([str(len(rows)), *rows, *cols]) for rows, cols in c._labels()]
    lines.append("")   # the final newline, without a second copy of the text
    return "\n".join(lines)


def parse_cover(text: str) -> IdentityCover:
    """The cover a cover text describes, over its own labels: each
    distinct row and column label numbered in order of first use, the
    member lines grouped by size."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("cover file is empty")
    try:
        S = int(lines[0])
    except ValueError as exc:
        raise FormatError(f"cover header must be an integer, got {lines[0]!r}") from exc
    if len(lines) != 1 + S:
        raise FormatError(f"expected {S} member lines, got {len(lines) - 1}")
    sizes: list[int] = []
    # every member's labels in file order, each as the first string read
    # for it, so repeats are freed line by line; first use numbers them
    row_labels: list[str] = []
    col_labels: list[str] = []
    row_of: dict[str, str] = {}
    col_of: dict[str, str] = {}
    for ln in lines[1:]:
        toks = ln.split()
        try:
            l = int(toks[0])
        except ValueError as exc:
            raise FormatError(f"member line must start with its size: {ln!r}") from exc
        if len(toks) != 1 + 2 * l:
            raise FormatError(f"member line has {len(toks) - 1} labels, expected {2 * l}")
        sizes.append(l)
        rows, cols = toks[1 : 1 + l], toks[1 + l :]
        row_labels += map(row_of.setdefault, rows, rows)
        col_labels += map(col_of.setdefault, cols, cols)
    R = np.fromiter(map({k: i for i, k in enumerate(row_of)}.__getitem__, row_labels), np.intp)
    C = np.fromiter(map({f: j for j, f in enumerate(col_of)}.__getitem__, col_labels), np.intp)
    size = np.array(sizes, dtype=np.intp)
    start = np.cumsum(size) - size
    groups = []
    for l in dict.fromkeys(sizes):
        ids = np.flatnonzero(size == l)
        at = start[ids, None] + np.arange(l)
        groups.append(tuple(map(_read_only, (ids, R[at], C[at]))))
    return IdentityCover(tuple(row_of), tuple(col_of), tuple(groups))
