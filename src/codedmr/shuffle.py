"""Map / coded-shuffle / reduce pipeline with byte-exact accounting.

Subfiles are seeded pseudorandom byte strings and the map and reduce
functions are keyed digests, so every run is deterministic and decode
correctness can be checked byte-for-byte against a central oracle.

Every intermediate value (IVA) is a pure function of (q, f), so a job
computes each one exactly once: ``JobSpec.ivas`` is a read-only
``(Q, N, T)`` uint8 table, built on first use and shared by the map
phase, the oracle, the late map work of partial stragglers and every
scenario of a straggler sweep run on the same spec.  Likewise a
complete function's reduce output depends only on its row of that
table, so ``JobSpec.reduce_outputs`` digests each row once per spec.
The servers' store is three arrays (``ServerStore``): a ``(K, N)`` mask
of the subfiles each server mapped, and, since every function has one
reducer, a ``(Q, N, T)`` table of delivered values shaped like ``ivas``
with a ``(Q, N)`` mask of what was delivered.  Decoding cancels only
values whose column is in the receiver's own mask, and the reduce phase
is one comparison of the delivered table with ``ivas``.

``run_pipeline`` is the one routine that sequences a run (map, sender
plan, shuffle, late map, reduce, load), for the full server set, full
stragglers (which map nothing and whose functions the survivors split)
and partial stragglers (which never send and map, before the shuffle,
only what their own decodes need) alike.

Each identity submatrix of the cover drives one exchange round of two
broadcasts: a coded one (bytewise XOR of the intermediate values the
other member rows are missing) and an uncoded one (the values the coded
sender itself is missing).  Payloads are exactly beta*T bytes, where
beta is the number of reduce functions per participating server and T
the intermediate-value size in bytes.  All rounds of a shuffle run as
one array kernel: one gather of the missing values of every member
slot, one XOR reduce over the slots for every coded payload, prefix and
suffix XORs over the slots to decode, and one boolean gather of the
mapped masks to check every cancellation.  ``round_for_member`` is the
same kernel on one member.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .matrix import (
    BinaryComputingMatrix,
    FormatError,
    IdentityCover,
    format_cover,
    format_matrix,
    verify_cover,
)


class ShuffleError(Exception):
    """A shuffle-phase precondition or decode prerequisite failed."""


# ---------------------------------------------------------------------------
# Synthetic workload primitives.
# ---------------------------------------------------------------------------


def _digest_stream(tag: bytes, parts: Iterable[bytes], length: int) -> bytes:
    """Deterministic byte stream of *length* from length-prefixed parts."""
    material = b"".join(len(p).to_bytes(4, "big") + p for p in parts)
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(
            hashlib.blake2b(
                counter.to_bytes(4, "big") + material, digest_size=64, person=tag[:16]
            ).digest()
        )
        counter += 1
    return bytes(out[:length])


def make_subfile(file_seed: int, f: str, size: int) -> bytes:
    """Synthetic contents of subfile *f* under the given seed."""
    return _digest_stream(b"subfile", [str(file_seed).encode(), f.encode()], size)


def synth_map(q: int, f: str, subfile: bytes, iva_bytes: int) -> bytes:
    """Intermediate value of function q on subfile f, exactly T bytes.

    A pure keyed digest: identical inputs give identical values on every
    server.
    """
    return _digest_stream(b"iva", [q.to_bytes(8, "big"), f.encode(), subfile], iva_bytes)


def reduce_digest(q: int, ivas_in_col_order: Iterable[bytes]) -> bytes:
    """Synthetic reduce output over the N intermediate values of q."""
    return _digest_stream(b"reduce", [q.to_bytes(8, "big"), *ivas_in_col_order], 32)


# ---------------------------------------------------------------------------
# Job description.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """Everything one simulation run needs, immutable and reusable."""

    matrix: BinaryComputingMatrix
    cover: IdentityCover
    num_functions: int              # Q, a multiple of K
    iva_bytes: int                  # T
    file_seed: int = 0
    subfile_bytes: int = 64

    def __post_init__(self) -> None:
        g = self.cover.uniform_size
        if g is None or g < 2:
            raise ValueError("job needs a uniform cover with member size >= 2")
        if self.num_functions < self.matrix.K or self.num_functions % self.matrix.K:
            raise ValueError(
                f"Q={self.num_functions} must be a positive multiple of K={self.matrix.K}"
            )
        if self.iva_bytes < 1:
            raise ValueError("intermediate values need at least one byte")
        if self.subfile_bytes < 1:
            raise ValueError("subfiles need at least one byte")

    @property
    def g(self) -> int:
        return self.cover.uniform_size  # type: ignore[return-value]

    @property
    def beta(self) -> int:
        return self.num_functions // self.matrix.K

    @cached_property
    def ivas(self) -> np.ndarray:
        """Read-only (Q, N, T) table: ``ivas[q - 1, j]`` is IVA (q, cols[j])."""
        cols = self.matrix.cols
        subfiles = [make_subfile(self.file_seed, f, self.subfile_bytes) for f in cols]
        flat = b"".join(
            synth_map(q, f, sub, self.iva_bytes)
            for q in range(1, self.num_functions + 1)
            for f, sub in zip(cols, subfiles)
        )
        # an array over a bytes object is read-only
        return np.frombuffer(flat, dtype=np.uint8).reshape(
            self.num_functions, len(cols), self.iva_bytes
        )

    @cached_property
    def cover_fault(self) -> str | None:
        """What verify_cover found wrong with the cover, or None when it
        passes; worked out once per spec."""
        # Only the verdict is kept: the report's lists, allocated among
        # verify_cover's temporaries, would pin their heap pages for as
        # long as the spec lives.
        report = verify_cover(self.matrix, self.cover)
        if report.ok:
            return None
        return (
            f"{len(report.malformed)} malformed, {len(report.missing)} missing, "
            f"{len(report.overlapping)} overlapping"
        )

    @cached_property
    def reduce_outputs(self) -> tuple[bytes, ...]:
        """The Q reduce outputs: ``reduce_outputs[q - 1]`` is the
        ``reduce_digest`` of q over its ``ivas`` row, worked out once per
        spec."""
        return tuple(
            reduce_digest(q, [v.tobytes() for v in row]) for q, row in enumerate(self.ivas, 1)
        )

    @cached_property
    def cover_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, g) matrix row and column indices of the cover members'
        entries, in member order."""
        m = self.matrix
        shape = (self.cover.size, self.g)
        rows = [m.row_index(k) for member in self.cover.members for k in member.rows]
        cols = [m.col_index(f) for member in self.cover.members for f in member.cols]
        return np.reshape(rows, shape), np.reshape(cols, shape)


@dataclass(frozen=True)
class ReduceAssignment:
    """Partition of the function indices 1..Q over the reducing servers."""

    duties: dict[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        if not self.duties:
            raise ValueError("assignment needs at least one server")
        sizes = {len(v) for v in self.duties.values()}
        if len(sizes) != 1:
            raise ValueError("per-server duty sizes differ")
        total = sum(len(v) for v in self.duties.values())
        flat = [q for v in self.duties.values() for q in v]
        if sorted(flat) != list(range(1, total + 1)):
            raise ValueError("duties must partition 1..Q exactly")

    @classmethod
    def block_partition(cls, servers: Iterable[str], num_functions: int) -> "ReduceAssignment":
        """Contiguous blocks of Q/len(servers) functions in server order."""
        servers = list(servers)
        if num_functions % len(servers):
            raise ValueError(
                f"Q={num_functions} is not divisible by {len(servers)} servers"
            )
        beta = num_functions // len(servers)
        return cls(
            {
                k: tuple(range(i * beta + 1, (i + 1) * beta + 1))
                for i, k in enumerate(servers)
            }
        )

    @property
    def beta(self) -> int:
        return len(next(iter(self.duties.values())))

    @property
    def servers(self) -> tuple[str, ...]:
        return tuple(self.duties)


@dataclass
class ServerStore:
    """Every server's intermediate values, as arrays over the job's table.

    ``mapped[i, j]`` says server ``rows[i]`` mapped subfile ``cols[j]``,
    so it holds ``spec.ivas[:, j]``; decoding may only cancel against
    those.  Each function q has one reducer, so what the shuffle delivers
    fits one table shaped like ``ivas``: ``received[q - 1, j]`` is the
    value of (q, cols[j]) delivered to q's reducer, and ``have[q - 1, j]``
    says that it was delivered.
    """

    mapped: np.ndarray       # (K, N) bool
    received: np.ndarray     # (Q, N, T) uint8
    have: np.ndarray         # (Q, N) bool


@dataclass(frozen=True)
class Transmission:
    """One broadcast of a cover member's exchange round."""

    sender: str
    member: int
    kind: str                    # "coded" | "uncoded"
    payload: bytes


@dataclass
class ShuffleTranscript:
    """Ordered broadcasts with per-server bit counters."""

    transmissions: tuple[Transmission, ...]
    servers: tuple[str, ...]
    payload_bytes: int
    sent_bits: dict[str, int]
    received_bits: dict[str, int]

    @property
    def total_bits(self) -> int:
        return sum(len(t.payload) * 8 for t in self.transmissions)


# ---------------------------------------------------------------------------
# Pipeline phases.
# ---------------------------------------------------------------------------


def run_map_phase(
    spec: JobSpec, subfile_filter: Mapping[str, set[str]] | None = None
) -> ServerStore:
    """Mark, per server, the zero columns of its row as mapped.

    Servers listed in *subfile_filter* (stragglers) map only the listed
    subfiles out of their assigned ones.  The values are the job's
    ``ivas`` table, built here on first use.
    """
    m = spec.matrix
    spec.ivas  # the map work itself: builds the table once per spec
    mapped = m.bits == 0
    for i, k in enumerate(m.rows):
        if subfile_filter is not None and k in subfile_filter:
            mapped[i] &= np.isin(m.cols, list(subfile_filter[k]))
    Q, N, T = spec.ivas.shape
    return ServerStore(mapped, np.zeros((Q, N, T), dtype=np.uint8), np.zeros((Q, N), dtype=bool))


def _exchange(
    spec: JobSpec,
    assignment: ReduceAssignment,
    store: ServerStore,
    members: Sequence[int],
    senders: Sequence[tuple[str, str]],
    tamper: Callable[[Transmission], Transmission] | None,
) -> list[Transmission]:
    """The exchange rounds of *members*, ``senders[i]`` being the (coded,
    uncoded) pair of ``members[i]``: build, broadcast, decode.

    All rounds are one array kernel over the members' g slots, laid out
    slot-major so that every XOR runs over a contiguous (S, beta, T)
    block.  One gather fetches the value each slot's row is missing for
    each of its duty functions.  The coded sender's slot and the slots of
    rows that do not take part (full stragglers) are zeroed, so one XOR
    reduce over the slot axis gives every coded payload, and prefix and
    suffix XORs along that axis decode them.  One boolean gather of the
    mapped masks checks every value an encoder or decoder cancels.
    Faults are found for all members at once and raised for the first in
    member order, as one round at a time would meet them.
    """
    m = spec.matrix
    beta, T = assignment.beta, spec.iva_bytes
    size = beta * T
    row_of = {k: i for i, k in enumerate(m.rows)}
    duty = np.zeros((m.K, beta), dtype=np.intp)     # q - 1 of each row's duty functions
    active = np.zeros(m.K, dtype=bool)
    for k, duties in assignment.duties.items():
        duty[row_of[k]] = np.subtract(duties, 1)
        active[row_of[k]] = True
    R, C = (index[members] for index in spec.cover_index)       # (S, g)
    n, g = R.shape
    at = np.arange(n)
    part = active[R]
    cs_row = np.array([row_of.get(c, -1) for c, _ in senders], dtype=np.intp)
    us_row = np.array([row_of.get(u, -1) for _, u in senders], dtype=np.intp)
    cs = np.argmax(R == cs_row[:, None], axis=1)    # the senders' slots
    us = np.argmax(R == us_row[:, None], axis=1)
    distinct = np.array([c != u for c, u in senders], dtype=bool)
    takes_part = (R[at, cs] == cs_row) & part[at, cs] & (R[at, us] == us_row) & part[at, us]
    sound = distinct & takes_part

    # held[s, i, j]: the row of slot i mapped the column of slot j.  The
    # coded sender encodes from its own map-phase values, the uncoded
    # sender sends the coded sender's column, and every other row decodes
    # by cancelling the values of the rows besides itself and the sender.
    held = store.mapped[R[:, :, None], C[:, None, :]] | ~part[:, :, None] | ~part[:, None, :]
    held[:, np.arange(g), np.arange(g)] = True
    own = held[at, cs]
    early = np.flatnonzero(~sound | ~own.all(1) | ~held[at, us, cs])
    held[at, cs] = True
    held[at, :, cs] = True
    late = np.flatnonzero(sound & ~held.reshape(n, g * g).all(1))
    first_fault = int(early[0]) if early.size else n
    first_late = int(late[0]) if late.size else n

    def lacks(s: int, owner: int, j: int) -> ShuffleError:
        return ShuffleError(
            f"server {m.rows[R[s, owner]]!r} lacks mapped value "
            f"(q={duty[R[s, j], 0] + 1}, f={m.cols[C[s, j]]!r}); "
            "map phase is inconsistent with the schedule"
        )

    def fault(s: int) -> ShuffleError:
        if not distinct[s]:
            return ShuffleError("coded and uncoded sender must be distinct servers")
        if not takes_part[s]:
            return ShuffleError("senders must be participating rows of the member")
        if not own[s].all():
            return lacks(s, cs[s], int(np.argmin(own[s])))
        return lacks(s, us[s], cs[s])

    # values[i, s, b]: what slot i's row of member s misses for duty slot b
    values = spec.ivas[duty[R.T], C.T[:, :, None]]              # (g, S, beta, T)
    uncoded = values[cs, at]
    values[cs, at] = 0
    if not part.all():
        values[~part.T] = 0
    coded = np.bitwise_xor.reduce(values, axis=0)

    # Broadcast member by member, so that *tamper* sees one transmission at
    # a time and a fault surfaces where a round at a time would meet it.
    pc, pu = coded.tobytes(), uncoded.tobytes()
    txs: list[Transmission] = []
    for i, (c, u) in enumerate(senders):
        if i == first_fault:
            raise fault(i)
        pair = (
            Transmission(c, members[i], "coded", pc[i * size : (i + 1) * size]),
            Transmission(u, members[i], "uncoded", pu[i * size : (i + 1) * size]),
        )
        if tamper is not None:
            pair = (tamper(pair[0]), tamper(pair[1]))
        if i == first_late:
            raise lacks(i, *divmod(int(np.argmin(held[i])), g))
        for tx in pair:
            if len(tx.payload) != size:
                raise ShuffleError(
                    f"member {members[i]}: {tx.kind} broadcast has "
                    f"{len(tx.payload)} bytes, expected {size}"
                )
        txs.extend(pair)
    if tamper is not None:
        # decode what was broadcast: the tampered payloads
        sent = np.frombuffer(b"".join(tx.payload for tx in txs), dtype=np.uint8)
        coded, uncoded = sent.reshape(n, 2, beta, T).transpose(1, 0, 2, 3)

    # Slot i decodes the coded payload by XORing away the values of the
    # slots before it and after it; the uncoded payload serves the coded
    # sender directly.  (A slot loop: ufunc.accumulate over this axis is
    # some 20-40 times slower on these shapes.)
    decoded = np.empty_like(values)
    prefix = coded.copy()
    for i in range(g):
        decoded[i] = prefix
        prefix ^= values[i]
    suffix = np.zeros_like(coded)
    for i in range(g - 1, -1, -1):
        decoded[i] ^= suffix
        suffix ^= values[i]
    decoded[cs, at] = uncoded
    q = duty[R.T][part.T]                                       # (P, beta)
    cols = C.T[part.T][:, None]
    store.received[q, cols] = decoded[part.T]
    store.have[q, cols] = True
    return txs


def round_for_member(
    spec: JobSpec,
    member_index: int,
    assignment: ReduceAssignment,
    store: ServerStore,
    coded_sender: str,
    uncoded_sender: str,
    tamper: Callable[[Transmission], Transmission] | None = None,
) -> tuple[Transmission, Transmission]:
    """One exchange round for a cover member: build, broadcast, decode.

    The coded payload carries, for each duty slot b, the XOR over the
    participating rows other than the coded sender of the value that row
    is missing; the uncoded payload carries the coded sender's own
    missing values.  After the round every participating row holds the
    values for its matched column.  *tamper* is a fault-injection hook
    applied to each transmission before decoding.
    """
    tx_coded, tx_uncoded = _exchange(
        spec, assignment, store, [member_index], [(coded_sender, uncoded_sender)], tamper
    )
    return tx_coded, tx_uncoded


def default_plan(
    spec: JobSpec, assignment: ReduceAssignment, forbidden: frozenset[str] = frozenset()
) -> dict[int, tuple[str, str]]:
    """First-two-participating-rows sender plan (deliberately unbalanced)."""
    order = {k: i for i, k in enumerate(spec.matrix.rows)}
    plan: dict[int, tuple[str, str]] = {}
    for idx, member in enumerate(spec.cover.members):
        eligible = sorted(
            (k for k in member.rows if k in assignment.duties and k not in forbidden),
            key=order.__getitem__,
        )
        if len(eligible) < 2:
            raise ShuffleError(
                f"member {idx} has {len(eligible)} eligible senders, needs 2"
            )
        plan[idx] = (eligible[0], eligible[1])
    return plan


def run_shuffle(
    spec: JobSpec,
    assignment: ReduceAssignment,
    store: ServerStore,
    plan: Mapping[int, tuple[str, str]] | None = None,
    tamper: Callable[[Transmission], Transmission] | None = None,
) -> ShuffleTranscript:
    """Run the two broadcasts of every cover member and decode them.

    The cover's verification is checked first; a broken cover is rejected
    before any transmission.  A verified cover puts every one-entry in
    exactly one member, so after the shuffle every reducing server holds
    the values for all subfiles of its duty functions.
    """
    if spec.cover_fault is not None:
        raise ShuffleError(f"cover failed verification: {spec.cover_fault}")
    if plan is None:
        plan = default_plan(spec, assignment)
    senders = [plan[idx] for idx in range(spec.cover.size)]
    transmissions = _exchange(spec, assignment, store, range(spec.cover.size), senders, tamper)
    # Every broadcast has beta*T bytes, and a reducing server receives both
    # broadcasts of each of its members except the ones it sends.
    m = spec.matrix
    payload_bytes = assignment.beta * spec.iva_bytes
    sent = Counter(k for pair in senders for k in pair)
    rounds = dict(zip(m.rows, np.bincount(spec.cover_index[0].ravel(), minlength=m.K).tolist()))
    return ShuffleTranscript(
        transmissions=tuple(transmissions),
        servers=m.rows,
        payload_bytes=payload_bytes,
        sent_bits={k: payload_bytes * 8 * sent[k] for k in m.rows},
        received_bits={
            k: payload_bytes * 8 * (2 * rounds[k] - sent[k]) if k in assignment.duties else 0
            for k in m.rows
        },
    )


@dataclass
class ReduceResult:
    """Per-function outputs plus the byte-exact verdict against the oracle."""

    ok: bool
    outputs: dict[tuple[str, int], bytes]
    mismatches: list[tuple[str, int, str]]   # (server, q, f)


def run_reduce(
    spec: JobSpec, assignment: ReduceAssignment, store: ServerStore
) -> ReduceResult:
    """Reduce every duty function and compare against a central oracle.

    The oracle is the job's ``ivas`` table: the received values are
    compared with it in one array comparison, so any decoding error shows
    up as a named (server, q, f) mismatch.  A function whose values all
    match has the spec's ``reduce_outputs`` entry as its output.
    """
    m = spec.matrix
    servers = assignment.servers
    qs = np.array([assignment.duties[k] for k in servers]) - 1      # (kappa, beta)
    mapped = store.mapped[[m.row_index(k) for k in servers]][:, None]
    wrong = (store.received != spec.ivas).any(axis=2) | ~store.have  # (Q, N)
    bad = wrong[qs] & ~mapped                                        # (kappa, beta, N)
    mismatches = [
        (servers[s], assignment.duties[servers[s]][b], m.cols[j])
        for s, b, j in zip(*np.nonzero(bad))
    ]
    complete = (~bad.any(axis=2)).tolist()
    outputs = {
        (k, q): spec.reduce_outputs[q - 1]
        for k, row in zip(servers, complete)
        for q, ok in zip(assignment.duties[k], row)
        if ok
    }
    return ReduceResult(ok=not mismatches, outputs=outputs, mismatches=mismatches)


def measured_load(transcript: ShuffleTranscript, spec: JobSpec) -> Fraction:
    """Total payload bits normalized by Q*N*T bits, as an exact rational."""
    denom = spec.num_functions * spec.matrix.N * spec.iva_bytes * 8
    return Fraction(transcript.total_bits, denom)


@dataclass
class PipelineResult:
    transcript: ShuffleTranscript
    reduce_result: ReduceResult
    load: Fraction
    plan_mode: str        # "default" or "explicit"; straggler_run may set others


def partial_straggler_needs(
    spec: JobSpec, plan: Mapping[int, tuple[str, str]], partial: frozenset[str]
) -> dict[str, set[str]]:
    """Subfiles each partial straggler must map to decode its own values.

    A partial straggler cancels, per member it belongs to, the values of
    the other participating rows except the coded sender's own column.
    """
    needs: dict[str, set[str]] = {k: set() for k in partial}
    if not partial:
        return needs
    for idx, member in enumerate(spec.cover.members):
        coded_sender = plan[idx][0]
        for k in member.rows:
            if k not in partial:
                continue
            for k_j, f_j in zip(member.rows, member.cols):
                if k_j not in (k, coded_sender):
                    needs[k].add(f_j)
    return needs


def run_pipeline(
    spec: JobSpec,
    plan: Mapping[int, tuple[str, str]] | None = None,
    tamper: Callable[[Transmission], Transmission] | None = None,
    stragglers: Iterable[str] = (),
    partial: frozenset[str] = frozenset(),
) -> PipelineResult:
    """Map, shuffle, reduce and measure one job.

    Full *stragglers* map nothing, never send and reduce nothing: the
    survivors split the Q functions in contiguous blocks in row order.
    *partial* stragglers never send and map, before the shuffle, only
    what their decodes need; they finish their map work after the
    shuffle and reduce their share, so the load is that of the run
    without them.  Without a *plan*, each member's first two eligible
    rows send.
    """
    stragglers = set(stragglers)
    unknown = (stragglers | partial) - set(spec.matrix.rows)
    if unknown:
        raise ValueError(f"unknown server labels {sorted(unknown)}")
    survivors = [k for k in spec.matrix.rows if k not in stragglers]
    assignment = ReduceAssignment.block_partition(survivors, spec.num_functions)
    plan_mode = "default" if plan is None else "explicit"
    if plan is None:
        plan = default_plan(spec, assignment, forbidden=partial)
    for idx, (cs, us) in plan.items():
        if cs in partial or us in partial:
            raise ShuffleError(f"member {idx}: sender plan uses a partial straggler")
    needs = partial_straggler_needs(spec, plan, partial)
    store = run_map_phase(spec, subfile_filter={**{k: set() for k in stragglers}, **needs})
    transcript = run_shuffle(spec, assignment, store, plan, tamper)
    # Partial stragglers finish the rest of their map work after the
    # shuffle window has closed; the transcript and load are already fixed.
    for k in partial:
        i = spec.matrix.row_index(k)
        store.mapped[i] = spec.matrix.bits[i] == 0
    reduce_result = run_reduce(spec, assignment, store)
    return PipelineResult(transcript, reduce_result, measured_load(transcript, spec), plan_mode)


# ---------------------------------------------------------------------------
# Transcript persistence: binary log plus a JSON-friendly summary.
# ---------------------------------------------------------------------------

_MAGIC = b"CMRT"
_KIND_CODE = {"coded": 0, "uncoded": 1}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}


def job_digest(spec: JobSpec) -> bytes:
    """32-byte digest identifying (matrix, cover, Q, T, seed)."""
    h = hashlib.sha256()
    h.update(format_matrix(spec.matrix).encode())
    h.update(format_cover(spec.cover).encode())
    h.update(
        f"Q={spec.num_functions} T={spec.iva_bytes} seed={spec.file_seed} "
        f"subfile={spec.subfile_bytes}".encode()
    )
    return h.digest()


def save_transcript(path, spec: JobSpec, transcript: ShuffleTranscript) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(">B", 1))
        fh.write(job_digest(spec))
        fh.write(
            struct.pack(
                ">7I",
                spec.matrix.K,
                spec.matrix.N,
                spec.matrix.r,
                spec.g,
                spec.cover.size,
                spec.num_functions,
                spec.iva_bytes,
            )
        )
        fh.write(struct.pack(">I", len(transcript.transmissions)))
        for tx in transcript.transmissions:
            sender = tx.sender.encode()
            fh.write(struct.pack(">H", len(sender)))
            fh.write(sender)
            fh.write(struct.pack(">IB", tx.member, _KIND_CODE[tx.kind]))
            fh.write(struct.pack(">I", len(tx.payload)))
            fh.write(tx.payload)


def load_transcript(path) -> tuple[dict, tuple[Transmission, ...]]:
    """Read a transcript log back into its header and transmissions.

    Raises FormatError on a wrong magic or version byte, an unknown kind
    byte, a truncated record or trailing bytes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise FormatError("not a transcript log")
    if data[4:5] != b"\x01":
        raise FormatError(f"unknown transcript version {data[4:5].hex() or 'missing'}")
    off = 37
    transmissions = []
    try:
        K, N, r, g, S, Q, T, count = struct.unpack_from(">8I", data, off)
        off += 32
        for i in range(count):
            (slen,) = struct.unpack_from(">H", data, off)
            sender = data[off + 2 : off + 2 + slen]
            member, kind, plen = struct.unpack_from(">IBI", data, off + 2 + slen)
            payload = data[off + 11 + slen : off + 11 + slen + plen]
            off += 11 + slen + plen
            if kind not in _KIND_NAME:
                raise FormatError(f"record {i}: unknown kind byte {kind}")
            transmissions.append(Transmission(sender.decode(), member, _KIND_NAME[kind], payload))
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(f"malformed transcript record: {exc}") from exc
    if off != len(data):
        raise FormatError(
            f"transcript truncated, {off - len(data)} bytes short" if off > len(data)
            else f"{len(data) - off} trailing bytes after {count} records"
        )
    header = {
        "version": 1,
        "job_digest": data[5:37].hex(),
        "K": K, "N": N, "r": r, "g": g, "S": S, "Q": Q, "T": T,
    }
    return header, tuple(transmissions)
