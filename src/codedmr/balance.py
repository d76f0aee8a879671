"""Sender-plan balancing via two edge-disjoint perfect matchings.

One routine serves the full server set and a survivor set alike.  When
gamma = S/|servers| is an integer, every server of the set appears in
the same number of cover members, and every member has the same number
h >= 2 of rows in the set, the bipartite graph of servers vs. members is
biregular: each server lies in gamma*h members, each member holds h
servers.  A first matching gives every server gamma members, its coded
duties, and every member one server; it is the perfect matching of the
gamma*h-regular graph on gamma copies of each server, found by running
the copy search on the servers themselves as classes.  Removing each
matched (server, member) edge leaves degrees gamma*(h-1) and h-1, and a
second matching assigns the uncoded duties.  Every server of the set
then sends the same number of bytes, half coded and half uncoded.

The cover's listings of the set are read once per call into one
(servers, S) array: entry (p, i) counts the times member i lists the
server at place p of the set, 0 or 1 on a verified cover.  Its row and
column sums are the preconditions' server counts and member sizes, and
both matchings take it, the second after the first matching's entries
are set to 0.  Each matching is Kuhn's augmenting-path search on int
bitmasks over the members.  Per call it precomputes, for every (server,
member) edge, the members still unvisited once that server takes that
member, so a step of the search is one AND on the unvisited mask.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .matrix import BinaryComputingMatrix, FormatError, IdentityCover
from .shuffle import ShuffleTranscript


class BalanceError(Exception):
    """Balancing preconditions do not hold for this matrix and cover."""


@dataclass
class BalanceReport:
    gamma: Fraction
    gamma_integral: bool
    row_regular: bool
    counts: dict[str, int]
    member_rows: int | None      # rows of the set in every member, None if they differ


@dataclass(frozen=True)
class SenderPlan:
    """Per member, the (coded, uncoded) sender pair."""

    duties: tuple[tuple[str, str], ...]

    def as_mapping(self) -> dict[int, tuple[str, str]]:
        return dict(enumerate(self.duties))

    def to_json(self) -> str:
        payload = {
            str(i): {"coded": c, "uncoded": u} for i, (c, u) in enumerate(self.duties)
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SenderPlan":
        """Read ``to_json`` text: an object whose keys are the members "0"
        to "S-1", each with string ``coded`` and ``uncoded`` fields.
        Anything else raises FormatError."""
        try:
            payload = json.loads(text)
            duties = tuple(
                (payload[str(i)]["coded"], payload[str(i)]["uncoded"]) for i in range(len(payload))
            )
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise FormatError(f"malformed sender plan ({type(exc).__name__}: {exc})") from None
        if not isinstance(payload, dict) or any(
            type(label) is not str for pair in duties for label in pair
        ):
            raise FormatError("sender plan must map members to string server labels")
        return cls(duties)


def _incidence(
    m: BinaryComputingMatrix, c: IdentityCover, servers: Sequence[str] | None
) -> tuple[BalanceReport, tuple[str, ...], np.ndarray]:
    """The preconditions over the server set (default: every row of the
    matrix), the set, and the cover's listings of it as one (servers, S)
    array: entry (p, i) counts the times member i lists the server at
    place p of the set."""
    servers = m.rows if servers is None else tuple(servers)
    if not servers or len(set(servers)) != len(servers) or not set(servers) <= set(m.rows):
        raise ValueError(f"servers {servers} are not a non-empty set of matrix rows")
    index = c.index(m)
    # each row's place in the set; -1 outside it (labels m lacks too),
    # which indexes a spare last row of the array
    place = np.full(len(index.rows), -1)
    place[[m.row_index(k) for k in servers]] = np.arange(len(servers))
    cells = np.zeros((len(servers) + 1) * c.size, dtype=np.int32)
    for ids, R, _ in index.groups:
        for rows in R.T:        # one row of each member: no index repeats
            cells[place[rows] * c.size + ids] += 1
    incidence = cells.reshape(len(servers) + 1, c.size)[:-1]
    counts = dict(zip(servers, incidence.sum(axis=1).tolist()))
    member_rows = set(incidence.sum(axis=0).tolist())
    gamma = Fraction(c.size, len(servers))
    report = BalanceReport(
        gamma=gamma,
        gamma_integral=gamma.denominator == 1,
        row_regular=len(set(counts.values())) == 1,
        counts=counts,
        member_rows=member_rows.pop() if len(member_rows) == 1 else None,
    )
    return report, servers, incidence


def balance_preconditions(
    m: BinaryComputingMatrix, c: IdentityCover, servers: Sequence[str] | None = None
) -> BalanceReport:
    """Check gamma integrality, appearance regularity and member uniformity
    over *servers* (default: every row of the matrix)."""
    return _incidence(m, c, servers)[0]


def perfect_matching(incidence: np.ndarray) -> list[int]:
    """Match each row of a biregular (L, R) incidence array to R/L of its
    columns, returned as each column's row.

    A row's neighbours are the columns where it is nonzero; its degree is
    its row sum and a column's its column sum, so a member that lists a
    server twice counts twice.  The rows are server classes: the search
    is Kuhn's augmenting-path search on the graph holding R/L identical
    copies of each row, run on the classes themselves.  All it ever does
    with the copies of a class is walk through the columns the class
    already owns and, on success, shuffle those columns among the copies.
    So a step from class k takes the lowest unvisited neighbour that k
    does not own and marks it visited together with every neighbour of k
    below it (the owned columns the copy search would walk through).  A
    dead end marks all of k's neighbours visited, as the copy search
    would have, which spares later steps a detour back into k.  The
    result is the copy search's matching on consecutive copies, projected
    onto the classes.

    Each class's neighbours are held as a bitmask over the columns, and
    the search always takes the smallest unvisited neighbour first.  It
    runs on an explicit stack, so path depth is bounded by the graph size
    and not by the interpreter's recursion limit.  Rows are matched in
    order, R/L roots each, so the result is a pure function of the array.
    Biregularity guarantees the matching exists, so anything short of it
    is an internal error.

    The search keeps the columns it has not visited as an ``unseen``
    mask.  What a step marks visited depends only on the class and the
    column it takes, so before the first root each class gets one mask
    per neighbour r: all columns but the class's neighbours up to r.  A
    step is then one AND with that mask, and a dead end one AND with the
    complement of the class's neighbours.  The path is held as (class,
    column taken) steps and flipped with one XOR per step, from a table
    of single-bit masks.  These are the same choices as a search that
    ORs into a visited set, so the matching is unchanged.  The table
    holds R*h masks of R bits, h being the column degree: about 0.8 MB
    of Python ints on the MAN(12,5) balancing graph and 2.6 MB on
    MAN(13,5).  It is local to the call and freed when it returns.
    """
    n_left, n_right = incidence.shape
    if n_right < n_left or n_right % max(n_left, 1):
        raise BalanceError(
            f"sides differ: {n_right} right vertices are not a positive "
            f"multiple of {n_left} left"
        )
    left_degrees = set(incidence.sum(axis=1).tolist())
    right_degrees = set(incidence.sum(axis=0).tolist())
    if len(left_degrees) != 1 or len(right_degrees) != 1:
        raise BalanceError(
            f"graph is not biregular (left degrees {sorted(left_degrees)}, "
            f"right degrees {sorted(right_degrees)})"
        )

    bits = [1 << i for i in range(n_right)]
    full = (1 << n_right) - 1
    avail = []                      # neighbours a class does not own
    after = []                      # after[k][r]: columns still unseen once k takes r
    stuck = []                      # columns still unseen once k is a dead end
    for row in incidence:
        nbrs, masks = 0, {}
        for i in np.flatnonzero(row).tolist():
            nbrs |= bits[i]
            masks[i] = full ^ nbrs
        avail.append(nbrs)
        after.append(masks)
        stuck.append(full ^ nbrs)
    owner = [-1] * n_right          # column -> matched row
    share = n_right // n_left
    for root in (k for k in range(n_left) for _ in range(share)):
        unseen = full               # columns this search has not visited
        path: list[tuple[int, int]] = []   # (class, column it took) per step
        k = root
        while True:
            free = avail[k] & unseen
            if not free:            # dead end: back up to the previous class
                unseen &= stuck[k]
                if not path:
                    raise RuntimeError(
                        "no perfect matching found on a biregular bipartite graph; "
                        "this contradicts biregularity and indicates a bug"
                    )
                k = path.pop()[0]
                continue
            r = (free & -free).bit_length() - 1
            unseen &= after[k][r]
            path.append((k, r))
            k = owner[r]
            if k < 0:               # free column: flip the path
                # each class takes its column and gets back the column
                # that the class before it on the path took from it
                back = 0
                for l, rr in path:
                    avail[l] ^= back ^ bits[rr]
                    owner[rr] = l
                    back = bits[rr]
                break
    return owner


def build_sender_plan(
    m: BinaryComputingMatrix, c: IdentityCover, servers: Sequence[str] | None = None
) -> SenderPlan:
    """Two-matching construction of a balanced sender plan over *servers*.

    *servers* defaults to every row of the matrix; a survivor set gives a
    plan whose senders are all survivors.  Raises BalanceError when the
    preconditions of :func:`balance_preconditions` do not hold; raises
    RuntimeError on internal consistency violations (which would indicate
    a bug, not bad input).
    """
    report, servers, incidence = _incidence(m, c, servers)
    h = report.member_rows
    if h is None or h < 2:
        raise BalanceError(
            "balancing needs every member to hold the same number >= 2 of the servers"
        )
    if not report.gamma_integral:
        raise BalanceError(f"gamma = S/|servers| = {report.gamma} is not an integer")
    if not report.row_regular:
        raise BalanceError("servers appear in differing numbers of members")

    coded = perfect_matching(incidence)

    # Dropping each matched (server, member) edge leaves every server
    # gamma fewer members and every member h-1 servers, still biregular,
    # so a second matching exists.
    incidence[coded, np.arange(c.size)] = 0
    try:
        uncoded = perfect_matching(incidence)
    except BalanceError as exc:
        raise RuntimeError(f"residual graph after the first matching: {exc}") from exc

    duties = []
    for i, (k, j) in enumerate(zip(coded, uncoded)):
        if k == j:
            raise RuntimeError(f"member {i}: both duties landed on {servers[k]!r}")
        duties.append((servers[k], servers[j]))
    return SenderPlan(tuple(duties))


@dataclass
class AuditReport:
    """Per-server sent bytes split by kind, plus the balanced verdict."""

    per_server: dict[str, tuple[int, int]]   # server -> (coded bytes, uncoded bytes)
    expected_each: Fraction
    balanced: bool

    def to_csv(self) -> str:
        lines = ["server,coded_bytes,uncoded_bytes"]
        for k, (cb, ub) in self.per_server.items():
            lines.append(f"{k},{cb},{ub}")
        return "\n".join(lines) + "\n"


def audit_plan(plan: SenderPlan, transcript: ShuffleTranscript) -> AuditReport:
    """Check that every server sent exactly S*beta*T/K bytes of each kind."""
    sent = np.zeros((len(transcript.servers), 2), dtype=np.int64)
    np.add.at(sent, (transcript.senders, [0, 1]), transcript.payload_bytes)
    per_server = {k: (cb, ub) for k, (cb, ub) in zip(transcript.servers, sent.tolist())}
    expected = Fraction(len(plan.duties) * transcript.payload_bytes, len(transcript.servers))
    balanced = (
        transcript.senders.size == 2 * len(plan.duties)
        and all(cb == expected and ub == expected for cb, ub in per_server.values())
    )
    return AuditReport(per_server=per_server, expected_each=expected, balanced=balanced)
