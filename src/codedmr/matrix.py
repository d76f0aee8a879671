"""Core types for binary computing matrices and identity submatrix covers.

A (K, N, r)-binary computing matrix describes the map phase of a coded
MapReduce job: rows are servers, columns are subfiles, and a 0 at (k, f)
means server k maps subfile f.  Every column carries the same number of
zeros r, the computation load.  The ones are exactly the intermediate
values the shuffle phase must deliver, and a non-overlapping identity
submatrix cover partitions them into units that a single two-transmission
exchange round can serve.

All types here are immutable after construction and safe to share across
concurrent tasks.  Validation operations are pure functions that report
violations rather than raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

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
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise ValueError("bits must be a rectangular 2-d array")
        if bits.shape != (len(self.rows), len(self.cols)):
            raise ValueError(
                f"bits shape {bits.shape} does not match "
                f"{len(self.rows)} row and {len(self.cols)} column labels"
            )
        if bits.size and not np.isin(bits, (0, 1)).all():
            raise ValueError("bits must contain only 0 and 1")
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("duplicate row labels")
        if len(set(self.cols)) != len(self.cols):
            raise ValueError("duplicate column labels")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        object.__setattr__(self, "_row_idx", {k: i for i, k in enumerate(self.rows)})
        object.__setattr__(self, "_col_idx", {f: j for j, f in enumerate(self.cols)})

    @classmethod
    def from_bits(cls, rows, cols, bits) -> "BinaryComputingMatrix":
        """Build a matrix inferring r from the first column's zero count."""
        arr = np.asarray(bits, dtype=np.uint8)
        r = int((arr[:, 0] == 0).sum()) if arr.size else 0
        return cls(tuple(rows), tuple(cols), arr, r)

    @property
    def K(self) -> int:
        return len(self.rows)

    @property
    def N(self) -> int:
        return len(self.cols)

    def row_index(self, k: str) -> int:
        return self._row_idx[k]  # type: ignore[attr-defined]

    def col_index(self, f: str) -> int:
        return self._col_idx[f]  # type: ignore[attr-defined]

    def entry(self, k: str, f: str) -> int:
        return int(self.bits[self.row_index(k), self.col_index(f)])

    def ones(self) -> Iterator[tuple[str, str]]:
        """Yield the (server, subfile) one-entries in row-major order."""
        for i, j in zip(*np.nonzero(self.bits)):
            yield self.rows[i], self.cols[j]

    def ones_count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def zeros_in_row(self, k: str) -> tuple[str, ...]:
        """Subfiles mapped by server k (zero entries of its row)."""
        i = self.row_index(k)
        return tuple(self.cols[j] for j in np.nonzero(self.bits[i] == 0)[0])


@dataclass(frozen=True)
class IdentitySubmatrix:
    """l rows and l columns whose selected entries form a permuted identity.

    Position i of ``rows`` is matched with position i of ``cols``: the
    entry (rows[i], cols[i]) must be 1 and every cross entry
    (rows[i], cols[j]), i != j, must be 0.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.rows, self.cols))


@dataclass(frozen=True)
class IdentityCover:
    """A family of identity submatrices meant to cover every one-entry."""

    members: tuple[IdentitySubmatrix, ...]

    @property
    def size(self) -> int:
        """Number of members S."""
        return len(self.members)

    @property
    def uniform_size(self) -> int | None:
        """Common member size g, or None when sizes are mixed or S = 0."""
        sizes = {m.size for m in self.members}
        if len(sizes) == 1:
            return next(iter(sizes))
        return None


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


def _check_member(m: BinaryComputingMatrix, sub: IdentitySubmatrix) -> str | None:
    """Reason why *sub*'s shape or labels disqualify it, else None.

    Its entries are checked against the identity by verify_cover, for all
    members of one size at once.
    """
    if len(sub.rows) != len(sub.cols):
        return "row and column counts differ"
    if sub.size < 2:
        return "size < 2 admits no exchange round"
    if len(set(sub.rows)) != sub.size:
        return "repeated row label"
    if len(set(sub.cols)) != sub.size:
        return "repeated column label"
    for k in sub.rows:
        if k not in m._row_idx:  # type: ignore[attr-defined]
            return f"unknown server label {k!r}"
    for f in sub.cols:
        if f not in m._col_idx:  # type: ignore[attr-defined]
            return f"unknown subfile label {f!r}"
    return None


def verify_cover(m: BinaryComputingMatrix, c: IdentityCover) -> CoverReport:
    """Check member validity, full coverage, and non-overlap of one-entries.

    Coverage is counted over matched (row, column) pairs only; a column
    may appear in several members as long as the covered one-entries
    differ.  Malformed members are reported and excluded from counting;
    a member with wrong entries is named by its first one in row-major
    order.
    """
    reasons: dict[int, str] = {}
    by_size: dict[int, list[int]] = {}
    for idx, sub in enumerate(c.members):
        reason = _check_member(m, sub)
        if reason is not None:
            reasons[idx] = reason
        else:
            by_size.setdefault(sub.size, []).append(idx)
    counts = np.zeros(m.bits.shape, dtype=np.int64)
    for g, idxs in by_size.items():
        ri = np.array([[m.row_index(k) for k in c.members[i].rows] for i in idxs])
        ci = np.array([[m.col_index(f) for f in c.members[i].cols] for i in idxs])
        # bad[n, i, j]: entry (rows[i], cols[j]) of member idxs[n] is not eye(g)[i, j]
        bad = m.bits[ri[:, :, None], ci[:, None, :]] != np.eye(g, dtype=np.uint8)
        flat = bad.reshape(len(idxs), g * g)
        wrong = flat.any(axis=1)
        for n in np.flatnonzero(wrong):
            i, j = divmod(int(np.argmax(flat[n])), g)
            sub = c.members[idxs[n]]
            want = int(i == j)
            reasons[idxs[n]] = (
                f"entry ({sub.rows[i]},{sub.cols[j]}) is {1 - want}, expected {want}"
            )
        np.add.at(counts, (ri[~wrong], ci[~wrong]), 1)
    malformed = sorted(reasons.items())
    oi, oj = np.nonzero(m.bits)
    n = counts[oi, oj]
    missing = [(m.rows[i], m.cols[j]) for i, j in zip(oi[n == 0], oj[n == 0])]
    overlapping = [(m.rows[i], m.cols[j]) for i, j in zip(oi[n > 1], oj[n > 1])]
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


def format_cover(c: IdentityCover) -> str:
    lines = [str(c.size)]
    for sub in c.members:
        lines.append(" ".join([str(sub.size), *sub.rows, *sub.cols]))
    return "\n".join(lines) + "\n"


def parse_cover(text: str) -> IdentityCover:
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
        members.append(IdentitySubmatrix(tuple(toks[1 : 1 + l]), tuple(toks[1 + l :])))
    return IdentityCover(tuple(members))
