"""Non-overlapping identity submatrix covers.

Analytic covers exist for the three generated families (subset placement,
t-subset scheme, transversal design); arbitrary matrices, e.g. ingested
block designs, go through the exact backtracking search or the seeded
greedy search.  Every cover is built with ``IdentityCover.from_index``:
the analytic covers work out their (S, g) row and column indices by rank
arithmetic (the t-subset cover is the MAN cover read through
complements), and check the matrix's shape arithmetically (its labels,
then ones or zeros exactly where the family puts them) rather than
against a rebuilt matrix; the searches gather theirs from the
one-entries they pick.

Both searches number the one-entries in row-major order and read one
table of int bitmasks: for each one-entry, the one-entries that cannot
share a member with it.  The exact search is a loop over an
explicit stack, so no search depth depends on the recursion limit.

The exact search also keeps a table of refuted states.  Below a member
boundary it depends only on the set of uncovered one-entries: the next
member opens at the lowest of them and grows in ascending order through
those it does not conflict with.  So a set that failed once fails again,
after the same number of nodes.  The table maps each such set to that
count; meeting it again adds the count and backs up at once, which
leaves every cover, node count and budget error as they were.  It keeps
only refutations that spent more than one node (a member whose root has
no completion is cheap to refute again) and at most ``_REFUTED_LIMIT``
of them, so an unbounded search cannot grow it without limit.

Inside a member the exact search counts the picks the member still
needs and cuts a partial member once fewer alternatives remain than it
needs: every further pick takes one of them, so that branch cannot
complete.  Nodes count member openings only, so the cut skips no
completion and leaves the first member that completes, and every count,
as they were.

A member opened at root t grows only through its alternative set, the
uncovered one-entries that do not conflict with t, so the completions
it tries, and their order, depend on that set alone.  The exact search
keeps a second table, from an alternative set to the masks of its
completions in the order the inner search finds them.  A set enters it
only once a member has tried every completion of it; a later member
with that set replays the masks with no inner search, and a member
meeting a set for the first time runs the inner search lazily, one
completion at a time.  Completions are only replayed, never skipped or
reordered, so every member, node count and budget error stays as it
was.  The table holds at most ``_COMPLETION_LIMIT`` ints (sets and
masks); a set whose list would pass that is not stored.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from math import comb

import numpy as np

from .constructions import _check_t_subset, _man_columns, _transversal_layout
from .matrix import BinaryComputingMatrix, IdentityCover

# Most refuted states one exact search remembers; once full it records no
# more.  A miss only repeats work, so the limit bounds memory, not results.
_REFUTED_LIMIT = 1 << 16
# Most ints (alternative sets and their completion masks) one exact search
# stores in its completion table; a set whose list would pass it is not
# stored.  A miss only repeats the inner search, so results do not change.
_COMPLETION_LIMIT = 1 << 16


class CoverSearchError(Exception):
    """Base class for cover search failures."""


class CoverInfeasibleError(CoverSearchError):
    """No cover with the requested uniform size exists (or can exist)."""


class CoverBudgetError(CoverSearchError):
    """The search budget ran out before a cover was found or refuted."""


class MatrixShapeError(ValueError):
    """The matrix does not have the shape the analytic cover requires."""


def man_cover(m: BinaryComputingMatrix) -> IdentityCover:
    """Analytic cover of a subset-placement matrix: one member per
    (r+1)-subset B, rows B, row k matched with column B minus k."""
    K, r = m.K, m.r
    subsets, labels = _man_columns(K, r)
    # the rows and labels of man_matrix(K, r), and zeros exactly on each
    # column's subset: r per column, all of them at the subset's rows
    if (
        m.rows != tuple(str(k) for k in range(1, K + 1))
        or m.cols != labels
        or m.bits[subsets.T - 1, np.arange(m.N)].any()
        or m.N * r != m.bits.size - np.count_nonzero(m.bits)
    ):
        raise MatrixShapeError("matrix is not the subset placement for its (K, r)")
    return IdentityCover.from_index(m, *_man_members(K, r))


def _man_members(K: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The (S, r+1) row and column indices of ``man_cover`` on MAN(K, r)."""
    # the (r+1)-subsets B of [K] in lex order, 0-based, and for each i the
    # colex rank of B minus B[i]: C(B[j], j+1) summed over j < i plus
    # C(B[j], j) over j > i, since the entries after i move down one place.
    # The sums run over places, so places are the first axis.
    S = comb(K, r + 1)
    B = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(K), r + 1)),
        dtype=np.intp, count=S * (r + 1),
    ).reshape(S, r + 1)
    binom = np.array([[comb(n, k) for k in range(r + 2)] for n in range(K)])
    place = np.arange(r + 1)[:, None]
    kept = binom[B.T, place + 1]    # B[j] keeps its place j
    moved = binom[B.T, place]       # B[j] moves down to place j-1
    before = np.cumsum(kept, axis=0) - kept
    after = np.cumsum(moved[::-1], axis=0)[::-1] - moved
    return B, (before + after).T


def t_subset_cover(m: BinaryComputingMatrix) -> IdentityCover:
    """Analytic cover of a t-subset matrix.

    One member per (t-1)-subset D: rows are the v-t+1 servers outside D,
    and row k is matched with the column D + {k}.  Complementing a subset
    reverses colex and lex order, so the matrix is MAN(v, v-t) with its
    columns reversed, and member D is ``man_cover``'s member [v] minus D,
    taken in reverse member order with column j read as N-1-j.
    ``man_cover`` on that reversed view checks the shape.
    """
    v, t = m.K, m.K - m.r
    _check_t_subset(v, t)
    try:
        if m.cols != _man_columns(v, t)[1]:
            raise MatrixShapeError
        view = BinaryComputingMatrix(m.rows, _man_columns(v, m.r)[1], m.bits[:, ::-1], m.r)
        ((_, R, C),) = man_cover(view).index(view).groups
    except MatrixShapeError:
        raise MatrixShapeError("matrix is not the t-subset scheme for its (v, t)") from None
    return IdentityCover.from_index(m, R[::-1], m.N - 1 - C[::-1])


def transversal_cover(m: BinaryComputingMatrix) -> IdentityCover:
    """Analytic cover of a transversal-design matrix, g = n.

    One member per (group, slope) pair: its rows are the n blocks of that
    slope and each block is matched with its own point of that group.
    """
    n = int(round(m.K**0.5))
    if n * n != m.K or m.N % n:
        raise MatrixShapeError("matrix dimensions do not fit a transversal design")
    k = m.N // n
    rows, cols, ones = _transversal_layout(k, n)
    # the labels of transversal_matrix(k, n), and ones exactly where it
    # puts them: k per row
    if (
        m.rows != rows
        or m.cols != cols
        or not m.bits[np.arange(m.K)[:, None], ones].all()
        or ones.size != np.count_nonzero(m.bits)
    ):
        raise MatrixShapeError("matrix is not the transversal design for its (k, n)")
    # member (i, a) lists the blocks a*n + b of slope a, each matched
    # with its point of group i
    R = np.tile(np.arange(n * n).reshape(n, n), (k, 1))
    C = ones[R, np.repeat(np.arange(k), n)[:, None]]
    return IdentityCover.from_index(m, R, C)


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
    entry fails.  A member counts the picks it still needs and is cut as
    soon as its alternatives are fewer, which skips only branches that
    cannot complete and opens no node.  The search remembers the
    uncovered sets whose members failed after more than one node, up to
    a fixed number of them; meeting one again counts the nodes it spent
    the first time and backs up.  It also remembers, up to a fixed size,
    every completion of each alternative set (the uncovered entries
    compatible with a member's first entry) that a member has tried in
    full, and a later member with that set takes them in the same order
    without growing them again.  So the cover and the node count at
    which *max_nodes* stops the search are those of the plain search,
    which grows every branch to its end.  It is complete, so a failure
    there means no such cover exists.  Greedy mode grows maximal members
    from the first uncovered entry, first in scan order, then over up to
    *restarts* - 1 seeded shuffles; it may fail on covers the exact mode
    would find.  Both modes are deterministic given (matrix, g, mode,
    seed).
    """
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes={max_nodes} must not be negative")
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
    picked = np.array(ones, dtype=np.intp).reshape(-1, 2)[
        np.array(member_idx, dtype=np.intp).reshape(-1, g)
    ]
    return IdentityCover.from_index(m, picked[..., 0], picked[..., 1])


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
    refuted: dict[int, int] = {}  # uncovered -> nodes its failed subtree spent
    limit = _REFUTED_LIMIT
    # alternative set -> its completion masks in search order, each set
    # stored once a member has tried all of them
    known: dict[int, tuple[int, ...]] = {}
    room = _COMPLETION_LIMIT     # ints (sets and masks) still to store

    def explore(alternatives: int) -> Iterator[int]:
        """The masks of the picks that complete a member from
        *alternatives*, lowest picks first, as the search meets them."""
        nonlocal room
        found: list[int] | None = []
        key = alternatives
        untried: list[tuple[int, int]] = []  # per pick: (mask before it, its untried alternatives)
        mask = 0
        need = g - 1                 # picks the member still needs
        while True:
            # grow only while enough alternatives remain to complete it
            if alternatives.bit_count() >= need:
                low = alternatives & -alternatives
                alternatives ^= low
                untried.append((mask, alternatives))
                mask |= low
                alternatives &= ~conflict[low.bit_length() - 1]
                need -= 1
                if need:
                    continue
                if found is not None:
                    found.append(mask)
                    if len(found) >= room:
                        found = None
                yield mask
            # back up to the last pick with enough untried alternatives
            while True:
                if not untried:
                    if found is not None and len(found) < room:
                        known[key] = tuple(found)
                        room -= len(found) + 1
                    return
                mask, alternatives = untried.pop()
                need += 1
                if alternatives.bit_count() >= need:
                    break

    uncovered = (1 << len(conflict)) - 1
    # per open member: (uncovered at its opening, nodes before it, its
    # completions not yet tried, the one-entries it holds)
    opened: list[tuple[int, int, Iterator[int], int]] = []
    nodes = 0
    while uncovered:
        state, before = uncovered, nodes
        root = uncovered & -uncovered
        spent = refuted.get(uncovered)
        nodes += spent or 1
        if max_nodes is not None and nodes > max_nodes:
            raise CoverBudgetError(f"exact search exceeded {max_nodes} nodes")
        # a refuted state fails again after the same nodes, so it gets no
        # completions and the search backs up at once
        if spent:
            completions: Iterator[int] = iter(())
        else:
            alternatives = uncovered & ~conflict[root.bit_length() - 1]
            stored = known.get(alternatives)
            completions = explore(alternatives) if stored is None else iter(stored)
        while (mask := next(completions, None)) is None:
            # a member's root failed: remember the refuted state, then
            # take the member before it to its next completion
            if nodes - before > 1 and len(refuted) < limit:
                refuted[state] = nodes - before
            if not opened:
                return None
            state, before, completions, _ = opened.pop()
            root = state & -state
        member = root | mask
        opened.append((state, before, completions, member))
        uncovered = state ^ member
    return [_bits(member) for *_, member in opened]


def _bits(mask: int) -> list[int]:
    """The set bits of *mask*, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
