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
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .matrix import BinaryComputingMatrix, IdentityCover
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

    @property
    def ok(self) -> bool:
        return (
            self.gamma_integral
            and self.row_regular
            and self.member_rows is not None
            and self.member_rows >= 2
        )


@dataclass(frozen=True)
class SenderPlan:
    """Per member, the (coded, uncoded) sender pair."""

    duties: tuple[tuple[str, str], ...]

    def as_mapping(self) -> dict[int, tuple[str, str]]:
        return dict(enumerate(self.duties))

    def coded_members(self, server: str) -> tuple[int, ...]:
        return tuple(i for i, (c, _) in enumerate(self.duties) if c == server)

    def uncoded_members(self, server: str) -> tuple[int, ...]:
        return tuple(i for i, (_, u) in enumerate(self.duties) if u == server)

    def to_json(self) -> str:
        payload = {
            str(i): {"coded": c, "uncoded": u} for i, (c, u) in enumerate(self.duties)
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SenderPlan":
        payload = json.loads(text)
        duties = [
            (payload[str(i)]["coded"], payload[str(i)]["uncoded"])
            for i in range(len(payload))
        ]
        return cls(tuple(duties))


def balance_preconditions(
    m: BinaryComputingMatrix, c: IdentityCover, servers: Sequence[str] | None = None
) -> BalanceReport:
    """Check gamma integrality, appearance regularity and member uniformity
    over *servers* (default: every row of the matrix)."""
    servers = m.rows if servers is None else tuple(servers)
    if not servers or len(set(servers)) != len(servers) or not set(servers) <= set(m.rows):
        raise ValueError(f"servers {servers} are not a non-empty set of matrix rows")
    counts = {k: 0 for k in servers}
    member_rows: set[int] = set()
    for member in c.members:
        in_set = [k for k in member.rows if k in counts]
        member_rows.add(len(in_set))
        for k in in_set:
            counts[k] += 1
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

    bit = {r: 1 << i for i, r in enumerate(rights)}
    nbrs = [sum(bit[r] for r in set(adj[l])) for l in left]
    avail = nbrs[:]                 # neighbours a class does not own
    owner = [-1] * len(rights)      # right index -> matched left index
    share = len(rights) // len(left)
    for root in (k for k in range(len(left)) for _ in range(share)):
        seen = 0                    # rights visited by this search
        path = [root]               # classes of the current path
        taken: list[int] = []       # right picked at each class of the path
        while path:
            k = path[-1]
            free = avail[k] & ~seen
            if not free:            # dead end: back up to the previous class
                seen |= nbrs[k]
                path.pop()
                if taken:
                    taken.pop()
                continue
            low = free & -free
            seen |= nbrs[k] & ((low << 1) - 1)
            r = low.bit_length() - 1
            taken.append(r)
            if owner[r] < 0:        # free right: flip the path
                for l, rr in zip(path, taken):
                    if owner[rr] >= 0:
                        avail[owner[rr]] |= 1 << rr
                    avail[l] &= ~(1 << rr)
                    owner[rr] = l
                break
            path.append(owner[r])
        else:
            raise RuntimeError(
                "no perfect matching found on a biregular bipartite graph; "
                "this contradicts biregularity and indicates a bug"
            )
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
    membership: dict[str, list[int]] = {k: [] for k in report.counts}
    for idx, member in enumerate(c.members):
        for k in member.rows:
            if k in membership:
                membership[k].append(idx)

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
    per_server = {k: [0, 0] for k in transcript.servers}
    for tx in transcript.transmissions:
        slot = 0 if tx.kind == "coded" else 1
        per_server[tx.sender][slot] += len(tx.payload)
    expected = Fraction(len(plan.duties) * transcript.payload_bytes, len(transcript.servers))
    balanced = (
        len(transcript.transmissions) == 2 * len(plan.duties)
        and all(cb == expected and ub == expected for cb, ub in per_server.values())
    )
    return AuditReport(
        per_server={k: (v[0], v[1]) for k, v in per_server.items()},
        expected_each=expected,
        balanced=balanced,
    )
