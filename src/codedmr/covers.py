"""Non-overlapping identity submatrix covers.

Analytic covers exist for the three generated families (subset placement,
t-subset scheme, transversal design); arbitrary matrices, e.g. ingested
block designs, go through the exact backtracking search or the seeded
greedy search.  Both searches number the one-entries in row-major order
and read one table of int bitmasks: for each one-entry, the one-entries
that cannot share a member with it.  The exact search is a loop over an
explicit stack, so no search depth depends on the recursion limit.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .constructions import (
    _colex_subsets,
    man_matrix,
    subset_label,
    t_subset_matrix,
    transversal_block_label,
    transversal_matrix,
    transversal_point_label,
)
from .matrix import BinaryComputingMatrix, IdentityCover, IdentitySubmatrix


class CoverSearchError(Exception):
    """Base class for cover search failures."""


class CoverInfeasibleError(CoverSearchError):
    """No cover with the requested uniform size exists (or can exist)."""


class CoverBudgetError(CoverSearchError):
    """The search budget ran out before a cover was found or refuted."""


class MatrixShapeError(ValueError):
    """The matrix does not have the shape the analytic cover requires."""


def _matrices_equal(a: BinaryComputingMatrix, b: BinaryComputingMatrix) -> bool:
    return a.rows == b.rows and a.cols == b.cols and np.array_equal(a.bits, b.bits)


def man_cover(m: BinaryComputingMatrix) -> IdentityCover:
    """Analytic cover of a subset-placement matrix: one member per
    (r+1)-subset B, rows B, row k matched with column B minus k."""
    K, r = m.K, m.r
    if not _matrices_equal(m, man_matrix(K, r)):
        raise MatrixShapeError("matrix is not the subset placement for its (K, r)")
    label = dict(zip(_colex_subsets(range(1, K + 1), r), m.cols))
    members = []
    for B in itertools.combinations(range(1, K + 1), r + 1):
        rows = tuple(str(k) for k in B)
        cols = tuple(label[B[:i] + B[i + 1 :]] for i in range(len(B)))
        members.append(IdentitySubmatrix(rows, cols))
    return IdentityCover(tuple(members))


def t_subset_cover(m: BinaryComputingMatrix) -> IdentityCover:
    """Analytic cover of a t-subset matrix.

    One member per (t-1)-subset D: rows are the v-t+1 servers outside D,
    and row k is matched with the column D + {k}.
    """
    v = m.K
    t = v - m.r
    if not _matrices_equal(m, t_subset_matrix(v, t)):
        raise MatrixShapeError("matrix is not the t-subset scheme for its (v, t)")
    members = []
    for D in itertools.combinations(range(1, v + 1), t - 1):
        outside = [k for k in range(1, v + 1) if k not in D]
        rows = tuple(str(k) for k in outside)
        cols = tuple(subset_label(str(x) for x in sorted((*D, k))) for k in outside)
        members.append(IdentitySubmatrix(rows, cols))
    return IdentityCover(tuple(members))


def transversal_cover(m: BinaryComputingMatrix) -> IdentityCover:
    """Analytic cover of a transversal-design matrix, g = n.

    One member per (group, slope) pair: its rows are the n blocks of that
    slope and each block is matched with its own point of that group.
    """
    n = int(round(m.K**0.5))
    if n * n != m.K or m.N % n:
        raise MatrixShapeError("matrix dimensions do not fit a transversal design")
    k = m.N // n
    if not _matrices_equal(m, transversal_matrix(k, n)):
        raise MatrixShapeError("matrix is not the transversal design for its (k, n)")
    members = []
    for i in range(1, k + 1):
        for a in range(n):
            rows = tuple(transversal_block_label(a, b) for b in range(n))
            cols = tuple(
                transversal_point_label(i, (a * (i - 1) + b) % n) for b in range(n)
            )
            members.append(IdentitySubmatrix(rows, cols))
    return IdentityCover(tuple(members))


def search_cover(
    m: BinaryComputingMatrix,
    g: int,
    mode: str = "exact",
    seed: int = 0,
    restarts: int = 64,
    max_nodes: int | None = None,
) -> IdentityCover:
    """Find a non-overlapping cover with uniform member size g.

    Exact mode is a depth-first search on an explicit stack.  A node
    opens a member at the first uncovered one-entry in row-major order
    and counts toward *max_nodes*; the member then grows by the lowest
    remaining one-entry compatible with its picks so far.  At a dead end
    the search backs up to the last pick that has an untried
    alternative, reopening the previous member when a member's first
    entry fails.  It is complete, so a failure there means no such cover
    exists.  Greedy mode grows maximal members from the first uncovered
    entry, first in scan order, then over up to *restarts* - 1 seeded
    shuffles; it may fail on covers the exact mode would find.  Both
    modes are deterministic given (matrix, g, mode, seed).
    """
    if g < 2:
        raise CoverInfeasibleError("member size g must be at least 2")
    total_ones = m.ones_count()
    if total_ones % g:
        raise CoverInfeasibleError(
            f"{total_ones} one-entries are not divisible by g={g}"
        )
    ones = [(int(i), int(j)) for i, j in zip(*np.nonzero(m.bits))]
    conflict = _conflicts(m.bits, ones)
    if mode == "exact":
        member_idx = _exact_search(conflict, g, max_nodes)
        if member_idx is None:
            raise CoverInfeasibleError(
                f"exhaustive search: no non-overlapping size-{g} cover exists"
            )
    elif mode == "greedy":
        member_idx = _greedy_search(conflict, g, seed, restarts)
        if member_idx is None:
            raise CoverBudgetError(
                f"greedy search failed after {restarts} restarts (a cover may still exist)"
            )
    else:
        raise ValueError(f"unknown search mode {mode!r}")
    members = tuple(
        IdentitySubmatrix(
            tuple(m.rows[ones[t][0]] for t in member),
            tuple(m.cols[ones[t][1]] for t in member),
        )
        for member in member_idx
    )
    return IdentityCover(members)


def _conflicts(bits: np.ndarray, ones: list[tuple[int, int]]) -> list[int]:
    """For each one-entry t, an int bitmask of the one-entries that cannot
    share a member with t.

    One-entries t and u can share a member only if both cross positions
    (i_t, j_u) and (i_u, j_t) hold zeros.  A one-entry sharing t's row or
    column puts a one on a cross position, and so does t itself.
    """
    in_row = [0] * bits.shape[0]
    in_col = [0] * bits.shape[1]
    for t, (i, j) in enumerate(ones):
        in_row[i] |= 1 << t
        in_col[j] |= 1 << t
    # row_clash[i]: entries u with bits[i, j_u] = 1; col_clash[j]: bits[i_u, j] = 1
    row_clash = [0] * bits.shape[0]
    col_clash = [0] * bits.shape[1]
    for i, j in ones:
        row_clash[i] |= in_col[j]
        col_clash[j] |= in_row[i]
    return [row_clash[i] | col_clash[j] for i, j in ones]


def _exact_search(
    conflict: list[int], g: int, max_nodes: int | None
) -> list[list[int]] | None:
    uncovered = (1 << len(conflict)) - 1
    picks: list[int] = []    # chosen one-entries, g per member, members in order
    untried: list[int] = []  # untried[d]: alternatives to picks[d] not yet tried
    nodes = 0
    while uncovered:
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise CoverBudgetError(f"exact search exceeded {max_nodes} nodes")
        root = (uncovered & -uncovered).bit_length() - 1
        picks.append(root)
        untried.append(0)
        alternatives = uncovered & ~conflict[root]
        while len(picks) % g:
            if alternatives:
                low = alternatives & -alternatives
                t = low.bit_length() - 1
                alternatives ^= low
                picks.append(t)
                untried.append(alternatives)
                alternatives &= ~conflict[t]
                continue
            # dead end: back up to the last pick with an untried alternative
            while True:
                picks.pop()
                alternatives = untried.pop()
                if len(picks) % g:
                    if alternatives:
                        break
                elif not picks:
                    return None
                else:
                    # a member's root failed: reopen the member before it
                    for t in picks[-g:]:
                        uncovered |= 1 << t
        for t in picks[-g:]:
            uncovered &= ~(1 << t)
    return [picks[k : k + g] for k in range(0, len(picks), g)]


def _greedy_search(
    conflict: list[int], g: int, seed: int, restarts: int
) -> list[list[int]] | None:
    n_ones = len(conflict)
    width = (n_ones + 7) // 8

    def flags(mask: int) -> np.ndarray:
        """The bits of *mask* as a bool array, one entry per one-entry."""
        packed = np.frombuffer(mask.to_bytes(width, "little"), dtype=np.uint8)
        return np.unpackbits(packed, count=n_ones, bitorder="little").view(bool)

    # attempt 0 takes candidates in scan order; later ones shuffle them
    for run in range(max(restarts, 1)):
        rng = random.Random((seed << 20) ^ run) if run else None
        uncovered = (1 << n_ones) - 1
        chosen: list[list[int]] = []
        while uncovered:
            root = (uncovered & -uncovered).bit_length() - 1
            member = [root]
            blocked = conflict[root]
            if rng is None:
                # in scan order the next pick is the lowest open candidate
                open_ = uncovered & ~blocked
                while open_ and len(member) < g:
                    t = (open_ & -open_).bit_length() - 1
                    member.append(t)
                    open_ &= ~conflict[t]
            else:
                candidates = np.flatnonzero(flags(uncovered))[1:].tolist()
                rng.shuffle(candidates)
                order = np.array(candidates, dtype=np.intp)
                start = 0
                while len(member) < g:
                    # test the rest of the shuffled order against the blocked
                    # mask at once, not one shift of a big int per candidate
                    open_ = np.flatnonzero(~flags(blocked)[order[start:]])
                    if not open_.size:
                        break
                    start += int(open_[0]) + 1
                    t = int(order[start - 1])
                    member.append(t)
                    blocked |= conflict[t]
            if len(member) != g:
                break
            for t in member:
                uncovered &= ~(1 << t)
            chosen.append(member)
        else:
            return chosen
    return None
