"""Generators for binary computing matrices.

Covers the subset-indexed MAN placement, the t-subset scheme, the
built-in Fano plane, incidence matrices of ingested (v,k,1)-block
designs, and transversal designs built from prime-field lines.  Also
provides the closed-form communication load of the five design-based
scheme families (ids "I" to "V"), with and without full stragglers: one
formula over each family's own (K, r, g).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .matrix import BinaryComputingMatrix, FormatError


# Most cells K*N a generated matrix may have.  Larger ones are refused
# before a subset is listed or an array allocated; MAN(18,8) has 787,644.
MAX_CELLS = 1 << 24

# Most bytes Q*N*T a job's IVA table may take.  A job over it is refused
# before any value is hashed; a MAX_CELLS matrix at Q = K, T = 16 fits.
MAX_IVA_BYTES = 1 << 28


# Most point pairs a design validation names; the rest are one count.
MAX_NAMED_PAIRS = 20


class DesignError(ValueError):
    """Raised when a block design violates the declared parameters."""


def _check_cells(name: str, K: int, N: int) -> None:
    if K * N > MAX_CELLS:
        raise ValueError(
            f"{name} would have K={K} rows and N={N} columns, {K * N} cells, "
            f"over the limit of {MAX_CELLS}"
        )


def subset_label(elems) -> str:
    """Stable label for a set of point labels.

    Single-character points concatenate ('127'); anything longer joins
    with '-' so labels stay unambiguous.
    """
    elems = [str(e) for e in elems]
    if all(len(e) == 1 for e in elems):
        return "".join(elems)
    return "-".join(elems)


@functools.lru_cache(maxsize=8)
def _man_columns(K: int, r: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The columns of the subset placement MAN(K, r), built once per (K, r).

    Returns the (N, r) array of the colex r-subsets of [K], read-only,
    and the tuple of their labels; ``man_matrix`` and ``man_cover`` share
    both.  Colexicographic order makes subset-indexed columns
    deterministic.  The combinations of the points listed from K down
    are the subsets in descending colex order, each largest point first,
    so both are read reversed: no sort.
    """
    if not 1 <= r < K:
        raise ValueError(f"need 1 <= r < K, got r={r}, K={K}")
    N = comb(K, r)
    _check_cells(f"MAN({K},{r})", K, N)
    descending = itertools.chain.from_iterable(itertools.combinations(range(K, 0, -1), r))
    subsets = np.fromiter(descending, dtype=np.intp, count=N * r).reshape(N, r)[::-1, ::-1].copy()
    subsets.flags.writeable = False
    points = [str(k) for k in range(K, 0, -1)]
    ascending = list(itertools.combinations(points, r))[::-1]
    # subset_label's rule: the subsets of the one-character points 1-9,
    # which come first in colex order, concatenate; the rest join with '-'
    plain = comb(min(K, 9), r)
    labels = ["".join(a[::-1]) for a in ascending[:plain]]
    labels += ["-".join(a[::-1]) for a in ascending[plain:]]
    return subsets, tuple(labels)


def man_matrix(K: int, r: int) -> BinaryComputingMatrix:
    """All-r-subsets placement: column f_A has zeros exactly on A.

    Columns are indexed by the r-subsets A of [K] in colex order, so
    N = C(K, r) and every column has r zeros.
    """
    subsets, cols = _man_columns(K, r)
    bits = np.ones((K, len(cols)), dtype=np.uint8)
    bits[subsets.T - 1, np.arange(len(cols))] = 0
    return BinaryComputingMatrix(tuple(str(k) for k in range(1, K + 1)), cols, bits, r)


def _check_t_subset(v: int, t: int) -> None:
    if not 1 <= t < v:
        raise ValueError(f"need 1 <= t < v, got t={t}, v={v}")
    _check_cells(f"the t-subset scheme (v={v}, t={t})", v, comb(v, t))


def t_subset_matrix(v: int, t: int) -> BinaryComputingMatrix:
    """t-subset scheme: column A has ones exactly on A, so r = v - t.

    Column A is MAN(v, v - t)'s column of the complement of A, and
    complementing reverses colex order: the matrix is ``man_matrix(v,
    v - t)`` with its columns reversed, labelled as MAN(v, t)'s columns.
    """
    _check_t_subset(v, t)
    man = man_matrix(v, v - t)
    bits = np.ascontiguousarray(man.bits[:, ::-1])
    return BinaryComputingMatrix(man.rows, _man_columns(v, t)[1], bits, v - t)


FANO_BLOCKS = ("127", "145", "136", "467", "256", "357", "234")


def fano_design() -> "BlockDesign":
    """The 7-point plane as a block design (7 blocks of size 3)."""
    return BlockDesign(
        points=tuple(str(p) for p in range(1, 8)),
        blocks=tuple(tuple(b) for b in FANO_BLOCKS),
        block_size=3,
    )


def fano_matrix() -> BinaryComputingMatrix:
    """The built-in 7x7 incidence matrix of the Fano plane, r = 4."""
    return bibd_matrix(fano_design())


@dataclass(frozen=True)
class BlockDesign:
    """A set system: v points and b blocks, each block a tuple of points."""

    points: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    block_size: int

    @property
    def v(self) -> int:
        return len(self.points)

    @property
    def b(self) -> int:
        return len(self.blocks)

    def replication(self) -> dict[str, int]:
        """Block-membership count per point."""
        counts = {p: 0 for p in self.points}
        for block in self.blocks:
            for p in block:
                counts[p] += 1
        return counts


def validate_bibd(d: BlockDesign) -> list[str]:
    """Violations of the (v, k, 1)-design axioms, empty when valid."""
    k = d.block_size
    problems = [] if 2 <= k < d.v else [f"block size k={k} is outside 2 <= k < v={d.v}"]
    for block in d.blocks:
        if len(set(block)) != len(block):
            problems.append(f"block {subset_label(block)} repeats a point")
        elif len(block) != k:
            problems.append(f"block {subset_label(block)} has size {len(block)}, expected {k}")
    pair_counts = Counter(
        frozenset(pair) for block in d.blocks for pair in itertools.combinations(set(block), 2)
    )
    # Each of the C(v, 2) pairs of places in d.points is bad unless its two
    # points share exactly one block; points p and q that do fill
    # places[p] * places[q] of those pairs (one, when no point repeats).
    places = Counter(d.points)
    bad = comb(d.v, 2) - sum(
        places[p] * places[q] for pair, n in pair_counts.items() if n == 1 for p, q in [pair]
    )
    if bad:
        # name the first bad pairs in pair order, reading no further
        named = (
            f"pair ({p},{q}) occurs in {n} blocks, expected 1"
            for p, q in itertools.combinations(d.points, 2)
            if (n := pair_counts[frozenset((p, q))]) != 1
        )
        problems.extend(itertools.islice(named, MAX_NAMED_PAIRS))
    if bad > MAX_NAMED_PAIRS:
        problems.append(f"{bad - MAX_NAMED_PAIRS} more pairs do not occur in exactly 1 block")
    expected_b = d.v * (d.v - 1) // (k * (k - 1)) if k >= 2 else 0
    if k >= 2 and d.v * (d.v - 1) % (k * (k - 1)) == 0 and d.b != expected_b:
        problems.append(f"{d.b} blocks, but a (v={d.v}, k={k}, 1)-design has {expected_b}")
    reps = set(d.replication().values())
    if len(reps) > 1:
        problems.append(f"non-uniform replication counts {sorted(reps)}")
    return problems


def bibd_matrix(d: BlockDesign) -> BinaryComputingMatrix:
    """Incidence matrix of a (v, k, 1)-design: K = v, N = b, r = v - k."""
    # A valid design has b >= v blocks (Fisher's inequality), so at least
    # v*v cells: a larger one is refused before its v(v-1)/2 pairs are read.
    if d.v * max(d.v, d.b) > MAX_CELLS:
        raise ValueError(
            f"the design (v={d.v}, b={d.b}) would have at least {d.v * max(d.v, d.b)} "
            f"cells, as a valid design has b >= v blocks, over the limit of {MAX_CELLS}"
        )
    problems = validate_bibd(d)
    if problems:
        raise DesignError("; ".join(problems))
    rows = d.points
    cols = tuple(subset_label(block) for block in d.blocks)
    bits = np.zeros((d.v, d.b), dtype=np.uint8)
    point_idx = {p: i for i, p in enumerate(d.points)}
    for j, block in enumerate(d.blocks):
        for p in block:
            bits[point_idx[p], j] = 1
    return BinaryComputingMatrix(rows, cols, bits, d.v - d.block_size)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(n**0.5) + 1))


def transversal_point_label(group: int, value: int) -> str:
    return f"{group}:{value}"


def transversal_block_label(a: int, b: int) -> str:
    return f"{a},{b}"


def _transversal_layout(
    k: int, n: int
) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Row and column labels of TD(k, n) and the (n^2, k) array of the
    columns holding each row's ones; ``transversal_matrix`` and
    ``transversal_cover`` share them."""
    # before the trial division, which makes up to sqrt(n) divisions
    _check_cells(f"TD({k},{n})", n * n, k * n)
    if not _is_prime(n):
        raise ValueError(
            f"n={n} is not prime; the line construction needs Z_n arithmetic "
            "(composite n is unsupported)"
        )
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    cols = tuple(transversal_point_label(i, x) for i in range(1, k + 1) for x in range(n))
    rows = tuple(transversal_block_label(a, b) for a in range(n) for b in range(n))
    # block (a, b) is row a*n + b and meets group i at point a*(i-1) + b
    a, b = np.divmod(np.arange(n * n), n)
    group = np.arange(k)
    ones = group * n + (a[:, None] * group + b[:, None]) % n
    return rows, cols, ones


def transversal_matrix(k: int, n: int) -> BinaryComputingMatrix:
    """Transversal design TD(k, n) from lines over Z_n, n prime.

    Points (i, x) for groups i in [k] and values x in Z_n are the N = kn
    columns; the K = n^2 rows are the blocks {(i, a*(i-1)+b mod n)} for
    slopes a and intercepts b.  Each point lies in n blocks, so
    r = n(n-1).  Composite n would need mutually orthogonal Latin
    squares, which this generator does not build.
    """
    rows, cols, ones = _transversal_layout(k, n)
    bits = np.zeros((n * n, k * n), dtype=np.uint8)
    bits[np.arange(n * n)[:, None], ones] = 1
    return BinaryComputingMatrix(rows, cols, bits, n * (n - 1))


@dataclass(frozen=True)
class SchemeParameters:
    """Derived job parameters for one design-based scheme family.

    ``scheme`` is the family id "I".."V"; ``g`` is the identity size of
    the known cover, or None for family III where only the load formula
    is exposed.
    """

    scheme: str
    v: int | None = None
    k: int | None = None
    t: int | None = None
    n: int | None = None
    K: int = 0
    N: int = 0
    r: int = 0
    g: int | None = None

    @classmethod
    def bibd(cls, v: int, k: int) -> "SchemeParameters":
        """Family I: (v, k, 1)-design incidence matrix."""
        if not 2 <= k < v:
            raise ValueError(f"need 2 <= k < v, got k={k}, v={v}")
        if (v - 1) % (k - 1) or (v * (v - 1)) % (k * (k - 1)):
            raise ValueError(f"(v={v}, k={k}) violates the design divisibility conditions")
        return cls(
            "I", v=v, k=k,
            K=v, N=v * (v - 1) // (k * (k - 1)), r=v - k, g=(v - 1) // (k - 1),
        )

    @classmethod
    def symmetric_bibd(cls, v: int, k: int) -> "SchemeParameters":
        """Family II: symmetric design with two blocks per pair."""
        if not 3 <= k < v:
            raise ValueError(f"need 3 <= k < v, got k={k}, v={v}")
        return cls("II", v=v, k=k, K=v, N=k * v, r=v - k + 1, g=k - 1)

    @classmethod
    def t_design_1(cls, v: int, k: int, t: int) -> "SchemeParameters":
        """Family III: first t-design scheme; load formula only, g implied."""
        if not 2 <= t <= k < v:
            raise ValueError(f"need 2 <= t <= k < v, got t={t}, k={k}, v={v}")
        if (comb(v, t) * k) % comb(k, t):
            raise ValueError(f"(v={v}, k={k}, t={t}) gives a non-integral subfile count")
        return cls(
            "III", v=v, k=k, t=t,
            K=comb(v, t - 1), N=comb(v, t) * k // comb(k, t),
            r=comb(v, t - 1) - comb(k - 1, t - 1), g=None,
        )

    @classmethod
    def t_design_2(cls, v: int, t: int) -> "SchemeParameters":
        """Family IV: the t-subset scheme built by t_subset_matrix."""
        if not 1 <= t < v:
            raise ValueError(f"need 1 <= t < v, got t={t}, v={v}")
        return cls("IV", v=v, t=t, K=v, N=comb(v, t), r=v - t, g=v - t + 1)

    @classmethod
    def transversal(cls, k: int, n: int) -> "SchemeParameters":
        """Family V: transversal design TD(k, n)."""
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        return cls("V", k=k, n=n, K=n * n, N=k * n, r=n * (n - 1), g=n)


def scheme_load(p: SchemeParameters, survivors: int | None = None) -> Fraction:
    """Closed-form communication load of a scheme family.

    Every family is the paper's two-transmission scheme at its own
    (K, r, g): the load is (2/g)(K - r)/kappa, with kappa = K when no
    *survivors* (the count of non-straggling servers) are given.  Family
    III exposes no cover, so its g is the ratio C(v-1, t-1)/C(k-1, t-1)
    its formula implies, which need not be an integer.
    """
    if survivors is not None and not 1 <= survivors <= p.K:
        raise ValueError(f"survivors={survivors} out of range [1, K={p.K}]")
    kappa = p.K if survivors is None else survivors
    g = p.g if p.g is not None else Fraction(comb(p.v - 1, p.t - 1), comb(p.k - 1, p.t - 1))
    return 2 * Fraction(p.K - p.r) / (g * kappa)


def ingest_design(text: str) -> BlockDesign:
    """Parse the design file format.

    Line 1 is ``v b k``, line 2 the point labels, then b block lines of
    space-separated point labels.  Lines starting with '#' are comments.
    Structural errors raise; design-axiom validation is deferred to
    :func:`bibd_matrix` or the caller.
    """
    raw_lines = text.splitlines()
    lines: list[str] = []
    for raw in raw_lines:
        stripped = raw.strip()
        if stripped.startswith("#"):
            continue
        lines.append(stripped)
    # Drop trailing blank lines but keep interior ones: a blank where a
    # block should be is a malformed (empty) block line.
    while lines and not lines[-1]:
        lines.pop()
    if len(lines) < 2:
        raise FormatError("design file needs a header and a point-label line")
    header = lines[0].split()
    if len(header) != 3:
        raise FormatError(f"design header must be 'v b k', got {lines[0]!r}")
    try:
        v, b, k = (int(tok) for tok in header)
    except ValueError as exc:
        raise FormatError(f"non-integer design header: {lines[0]!r}") from exc
    points = tuple(lines[1].split())
    if len(points) != v:
        raise FormatError(f"expected {v} point labels, got {len(points)}")
    if len(set(points)) != v:
        raise FormatError("duplicate point labels")
    block_lines = lines[2:]
    if len(block_lines) != b:
        raise FormatError(f"expected {b} block lines, got {len(block_lines)}")
    point_set = set(points)
    blocks: list[tuple[str, ...]] = []
    seen: set[frozenset[str]] = set()
    for ln in block_lines:
        toks = tuple(ln.split())
        if not toks:
            raise FormatError("empty block line")
        for p in toks:
            if p not in point_set:
                raise FormatError(f"block point {p!r} is not a declared point")
        key = frozenset(toks)
        if key in seen:
            raise FormatError(f"duplicate block {subset_label(sorted(toks))}")
        seen.add(key)
        blocks.append(toks)
    return BlockDesign(points=points, blocks=tuple(blocks), block_size=k)
