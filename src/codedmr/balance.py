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

Each matching is Kuhn's augmenting-path search on int bitmasks over the
members.  Per call it precomputes, for every (server, member) edge, the
members still unvisited once that server takes that member, so a step
of the search is one AND on the unvisited mask.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

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


def balance_preconditions(
    m: BinaryComputingMatrix, c: IdentityCover, servers: Sequence[str] | None = None
) -> BalanceReport:
    """Check gamma integrality, appearance regularity and member uniformity
    over *servers* (default: every row of the matrix)."""
    servers = m.rows if servers is None else tuple(servers)
    if not servers or len(set(servers)) != len(servers) or not set(servers) <= set(m.rows):
        raise ValueError(f"servers {servers} are not a non-empty set of matrix rows")
    index = c.index(m)
    # rows of the set by index; labels the matrix lacks are in no set
    in_set = np.zeros(len(index.rows), dtype=bool)
    in_set[[m.row_index(k) for k in servers]] = True
    appearances = np.zeros(len(index.rows), dtype=np.int64)
    member_rows: set[int] = set()
    for _, R, _ in index.groups:
        hit = in_set[R]
        member_rows.update(hit.sum(axis=1).tolist())
        appearances += np.bincount(R[hit], minlength=len(index.rows))
    counts = {k: int(appearances[m.row_index(k)]) for k in servers}
    gamma = Fraction(c.size, len(servers))
    return BalanceReport(
        gamma=gamma,
        gamma_integral=gamma.denominator == 1,
        row_regular=len(set(counts.values())) == 1,
        counts=counts,
        member_rows=member_rows.pop() if len(member_rows) == 1 else None,
    )


def perfect_matching(
    adj: Mapping[Hashable, Sequence[Hashable]]
) -> dict[Hashable, Hashable]:
    """Match each left vertex of a biregular bipartite graph to |R|/|L|
    right vertices, returned as ``{right: left}``.

    The left vertices are server classes: the search is Kuhn's
    augmenting-path search on the graph holding |R|/|L| identical copies
    of each left vertex, run on the classes themselves.  All it ever does
    with the copies of a class is walk through the rights the class
    already owns and, on success, shuffle those rights among the copies.
    So a step from class k takes the lowest unvisited neighbour that k
    does not own and marks it visited together with every neighbour of k
    below it (the owned rights the copy search would walk through).  A
    dead end marks all of k's neighbours visited, as the copy search
    would have, which spares later steps a detour back into k.  The
    result is the copy search's matching on consecutive copies, projected
    onto the classes.

    Right vertices must be mutually orderable: each left vertex's
    neighbours are held as a bitmask over the sorted right vertices, and
    the search always takes the smallest unvisited neighbour first.  It
    runs on an explicit stack, so path depth is bounded by the graph size
    and not by the interpreter's recursion limit.  Left vertices are
    matched in the mapping's order, |R|/|L| roots each, so the result is
    a pure function of the graph and that order.  Biregularity guarantees
    the matching exists, so anything short of it is an internal error.

    The search keeps the rights it has not visited as an ``unseen`` mask.
    What a step marks visited depends only on the class and the right it
    takes, so before the first root each class gets one mask per
    neighbour r: all rights but the class's neighbours up to r.  A step
    is then one AND with that mask, and a dead end one AND with the
    complement of the class's neighbours.  The path is held as (class,
    right taken) steps and flipped with one XOR per step, from a table
    of single-bit masks.  These are the same choices as a search that
    ORs into a visited set, so the matching is unchanged.  The table
    holds |R|*h masks of |R| bits, h being the right degree: about
    0.8 MB of Python ints on the MAN(12,5) balancing graph and 2.6 MB on
    MAN(13,5).  It is local to the call and freed when it returns.
    """
    left = list(adj)
    rights = sorted({r for l in left for r in adj[l]})
    if len(rights) < len(left) or len(rights) % max(len(left), 1):
        raise BalanceError(
            f"sides differ: {len(rights)} right vertices are not a positive "
            f"multiple of {len(left)} left"
        )
    left_degrees = {len(adj[l]) for l in left}
    right_degrees = set(Counter(r for l in left for r in adj[l]).values())
    if len(left_degrees) != 1 or len(right_degrees) != 1:
        raise BalanceError(
            f"graph is not biregular (left degrees {sorted(left_degrees)}, "
            f"right degrees {sorted(right_degrees)})"
        )

    index = {r: i for i, r in enumerate(rights)}
    bits = [1 << i for i in range(len(rights))]
    full = (1 << len(rights)) - 1
    avail = []                      # neighbours a class does not own
    after = []                      # after[k][r]: rights still unseen once k takes r
    stuck = []                      # rights still unseen once k is a dead end
    for l in left:
        nbrs, masks = 0, {}
        for i in sorted({index[r] for r in adj[l]}):
            nbrs |= bits[i]
            masks[i] = full ^ nbrs
        avail.append(nbrs)
        after.append(masks)
        stuck.append(full ^ nbrs)
    owner = [-1] * len(rights)      # right index -> matched left index
    share = len(rights) // len(left)
    for root in (k for k in range(len(left)) for _ in range(share)):
        unseen = full               # rights this search has not visited
        path: list[tuple[int, int]] = []   # (class, right it took) per step
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
            if k < 0:               # free right: flip the path
                # each class takes its right and gets back the right that
                # the class before it on the path took from it
                back = 0
                for l, rr in path:
                    avail[l] ^= back ^ bits[rr]
                    owner[rr] = l
                    back = bits[rr]
                break
    return {r: left[owner[i]] for i, r in enumerate(rights)}


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
    report = balance_preconditions(m, c, servers)
    h = report.member_rows
    if h is None or h < 2:
        raise BalanceError(
            "balancing needs every member to hold the same number >= 2 of the servers"
        )
    if not report.gamma_integral:
        raise BalanceError(f"gamma = S/|servers| = {report.gamma} is not an integer")
    if not report.row_regular:
        raise BalanceError("servers appear in differing numbers of members")
    groups = c.index(m).groups
    membership: dict[str, list[int]] = {}
    for k in report.counts:
        i = m.row_index(k)
        # the members listing k, in member order, once per listing
        membership[k] = sorted(
            s for ids, R, _ in groups for s in ids[np.nonzero(R == i)[0]].tolist()
        )

    coded_by_member = perfect_matching(membership)

    # Dropping each matched (server, member) edge leaves every server
    # gamma fewer members and every member h-1 servers, still biregular,
    # so a second matching exists.
    residual = {
        k: [i for i in members if coded_by_member[i] != k]
        for k, members in membership.items()
    }
    try:
        uncoded_by_member = perfect_matching(residual)
    except BalanceError as exc:
        raise RuntimeError(f"residual graph after the first matching: {exc}") from exc

    duties = []
    for i in range(c.size):
        coded, uncoded = coded_by_member[i], uncoded_by_member[i]
        if coded == uncoded:
            raise RuntimeError(f"member {i}: both duties landed on {coded!r}")
        duties.append((coded, uncoded))
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
