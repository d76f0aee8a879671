"""Map / coded-shuffle / reduce pipeline with byte-exact accounting.

Subfiles are seeded pseudorandom byte strings and the map and reduce
functions are keyed digests, so every run is deterministic and decode
correctness can be checked byte-for-byte against a central oracle.

Every intermediate value (IVA) is a pure function of (q, f), so a job
computes each one exactly once: ``JobSpec.ivas`` is a read-only
``(Q, N, T)`` uint8 table, built on first use and shared by the map
phase, the oracle, the late map work of partial stragglers and every
scenario of a straggler sweep run on the same spec.  A server's store
is a column mask over that table (the subfiles it mapped, for all Q
functions) plus, per received column, a ``(beta, T)`` array of the
values of its duty functions.  Decoding cancels only values whose
column is in the receiver's own mask.

Each identity submatrix of the cover drives one exchange round of two
broadcasts: a coded one (bytewise XOR of the intermediate values the
other member rows are missing) and an uncoded one (the values the coded
sender itself is missing).  Payloads are exactly beta*T bytes, where
beta is the number of reduce functions per participating server and T
the intermediate-value size in bytes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping

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
class ServerState:
    """One server's intermediate values, map-phase and received kept apart.

    ``mapped[j]`` says the server mapped subfile ``cols[j]``, so it holds
    ``spec.ivas[:, j]``; decoding may only cancel against those.
    ``received[j]`` holds what the shuffle delivered for column j: one
    row per duty function, in duty order.
    """

    label: str
    mapped: np.ndarray                                   # (N,) bool
    received: dict[int, np.ndarray] = field(default_factory=dict)


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
    spec: JobSpec,
    skip: frozenset[str] | set[str] = frozenset(),
    subfile_filter: Mapping[str, set[str]] | None = None,
) -> dict[str, ServerState]:
    """Mark, per server, the zero columns of its row as mapped.

    Servers in *skip* (full stragglers) map nothing.  Servers listed in
    *subfile_filter* (partial stragglers) map only the listed subfiles
    out of their assigned ones.  The values are the job's ``ivas``
    table, built here on first use.
    """
    m = spec.matrix
    spec.ivas  # the map work itself: builds the table once per spec
    zeros = m.bits == 0
    states: dict[str, ServerState] = {}
    for i, k in enumerate(m.rows):
        mapped = zeros[i] & (k not in skip)
        if subfile_filter is not None and k in subfile_filter:
            mapped &= np.isin(m.cols, list(subfile_filter[k]))
        states[k] = ServerState(label=k, mapped=mapped)
    return states


def round_for_member(
    spec: JobSpec,
    member_index: int,
    assignment: ReduceAssignment,
    states: dict[str, ServerState],
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
    member = spec.cover.members[member_index]
    col_of = dict(zip(member.rows, member.cols))
    active = [k for k in member.rows if k in assignment.duties]
    if coded_sender == uncoded_sender:
        raise ShuffleError("coded and uncoded sender must be distinct servers")
    if coded_sender not in active or uncoded_sender not in active:
        raise ShuffleError("senders must be participating rows of the member")
    beta = assignment.beta
    T = spec.iva_bytes
    m = spec.matrix

    def require(owners: list[str], held: np.ndarray, rows: list[str]) -> None:
        """*held[i, j]* says owners[i] mapped the matched column of rows[j]."""
        if not held.all():
            i, j = divmod(int(np.argmin(held)), held.shape[1])
            raise ShuffleError(
                f"server {owners[i]!r} lacks mapped value "
                f"(q={assignment.duties[rows[j]][0]}, f={col_of[rows[j]]!r}); "
                "map phase is inconsistent with the schedule"
            )

    def unpack(tx: Transmission) -> np.ndarray:
        if len(tx.payload) != beta * T:
            raise ShuffleError(
                f"member {member_index}: {tx.kind} broadcast has "
                f"{len(tx.payload)} bytes, expected {beta * T}"
            )
        return np.frombuffer(tx.payload, dtype=np.uint8).reshape(beta, T)

    # values[i, b] is the value others[i] is missing for its duty slot b.
    others = [k for k in active if k != coded_sender]
    cols = np.array([m.col_index(col_of[k]) for k in others])
    values = spec.ivas[np.array([assignment.duties[k] for k in others]) - 1, cols[:, None]]
    f_p = m.col_index(col_of[coded_sender])
    require([coded_sender], states[coded_sender].mapped[cols][None], others)
    require([uncoded_sender], states[uncoded_sender].mapped[[[f_p]]], [coded_sender])
    payload = np.bitwise_xor.reduce(values, axis=0).tobytes()
    tx_coded = Transmission(coded_sender, member_index, "coded", payload)
    q_p = np.subtract(assignment.duties[coded_sender], 1)
    tx_uncoded = Transmission(uncoded_sender, member_index, "uncoded", spec.ivas[q_p, f_p].tobytes())
    if tamper is not None:
        tx_coded = tamper(tx_coded)
        tx_uncoded = tamper(tx_uncoded)

    # Decode the coded broadcast at every participating row but the sender,
    # cancelling only against the receiver's own map-phase store: receiver
    # i XORs away values[:i] and values[i + 1:], the prefix and suffix XORs.
    held = np.array([states[k].mapped[cols] for k in others])
    np.fill_diagonal(held, True)
    require(others, held, others)
    zero = np.zeros((1, beta, T), dtype=np.uint8)
    before = np.concatenate([zero, np.bitwise_xor.accumulate(values, axis=0)[:-1]])
    after = np.concatenate([np.bitwise_xor.accumulate(values[::-1], axis=0)[-2::-1], zero])
    decoded = unpack(tx_coded) ^ before ^ after
    for i, k_i in enumerate(others):
        states[k_i].received[int(cols[i])] = decoded[i]
    # The uncoded broadcast serves the coded sender directly.
    states[coded_sender].received[f_p] = unpack(tx_uncoded)
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
    states: dict[str, ServerState],
    plan: Mapping[int, tuple[str, str]] | None = None,
    tamper: Callable[[Transmission], Transmission] | None = None,
) -> ShuffleTranscript:
    """Run the two broadcasts of every cover member and decode them.

    The cover's verification is checked first; a broken cover is rejected
    before any transmission.  After the shuffle every reducing server
    holds the values for all subfiles of its duty functions.
    """
    if spec.cover_fault is not None:
        raise ShuffleError(f"cover failed verification: {spec.cover_fault}")
    if plan is None:
        plan = default_plan(spec, assignment)
    transmissions: list[Transmission] = []
    sent_bits = {k: 0 for k in spec.matrix.rows}
    received_bits = {k: 0 for k in spec.matrix.rows}
    for idx in range(spec.cover.size):
        coded_sender, uncoded_sender = plan[idx]
        tx_c, tx_u = round_for_member(
            spec, idx, assignment, states, coded_sender, uncoded_sender, tamper
        )
        member = spec.cover.members[idx]
        active = [k for k in member.rows if k in assignment.duties]
        for tx in (tx_c, tx_u):
            transmissions.append(tx)
            sent_bits[tx.sender] += len(tx.payload) * 8
            for k in active:
                if k != tx.sender:
                    received_bits[k] += len(tx.payload) * 8
    # Completeness: the shuffle must have delivered every value a reducing
    # server could not map itself, i.e. the ones of its row.
    m = spec.matrix
    for k, duties in assignment.duties.items():
        lacking = m.bits[m.row_index(k)].astype(bool)
        lacking[list(states[k].received)] = False
        if lacking.any():
            f = m.cols[int(np.argmax(lacking))]
            raise ShuffleError(
                f"server {k!r} is still missing (q={duties[0]}, f={f!r}) after shuffle"
            )
    return ShuffleTranscript(
        transmissions=tuple(transmissions),
        servers=spec.matrix.rows,
        payload_bytes=assignment.beta * spec.iva_bytes,
        sent_bits=sent_bits,
        received_bits=received_bits,
    )


@dataclass
class ReduceResult:
    """Per-function outputs plus the byte-exact verdict against the oracle."""

    ok: bool
    outputs: dict[tuple[str, int], bytes]
    mismatches: list[tuple[str, int, str]]   # (server, q, f)


def run_reduce(
    spec: JobSpec, assignment: ReduceAssignment, states: dict[str, ServerState]
) -> ReduceResult:
    """Reduce every duty function and compare against a central oracle.

    The oracle is the job's ``ivas`` table: each server's held values
    are compared with it in one array comparison, so any decoding error
    shows up as a named (server, q, f) mismatch.
    """
    m = spec.matrix
    outputs: dict[tuple[str, int], bytes] = {}
    mismatches: list[tuple[str, int, str]] = []
    for k, duties in assignment.duties.items():
        state = states[k]
        expected = spec.ivas[np.subtract(duties, 1)]             # (beta, N, T)
        held = expected.copy()                                   # mapped columns
        got = [j for j in state.received if not state.mapped[j]]
        if got:
            held[:, got] = np.stack([state.received[j] for j in got], axis=1)
        have = state.mapped.copy()
        have[got] = True
        bad = (held != expected).any(axis=2) | ~have             # (beta, N)
        mismatches.extend((k, duties[b], m.cols[j]) for b, j in zip(*np.nonzero(bad)))
        for b in np.flatnonzero(~bad.any(axis=1)):
            outputs[(k, duties[b])] = reduce_digest(duties[b], [v.tobytes() for v in held[b]])
    return ReduceResult(ok=not mismatches, outputs=outputs, mismatches=mismatches)


def measured_load(transcript: ShuffleTranscript, spec: JobSpec) -> Fraction:
    """Total payload bits normalized by Q*N*T bits, as an exact rational."""
    denom = spec.num_functions * spec.matrix.N * spec.iva_bytes * 8
    return Fraction(transcript.total_bits, denom)


@dataclass
class PipelineResult:
    states: dict[str, ServerState]
    transcript: ShuffleTranscript
    reduce_result: ReduceResult
    load: Fraction


def run_pipeline(
    spec: JobSpec,
    plan: Mapping[int, tuple[str, str]] | None = None,
    tamper: Callable[[Transmission], Transmission] | None = None,
) -> PipelineResult:
    """Map, shuffle, reduce, and measure one no-straggler job."""
    assignment = ReduceAssignment.block_partition(spec.matrix.rows, spec.num_functions)
    states = run_map_phase(spec)
    transcript = run_shuffle(spec, assignment, states, plan, tamper)
    reduce_result = run_reduce(spec, assignment, states)
    return PipelineResult(states, transcript, reduce_result, measured_load(transcript, spec))


def partial_straggler_needs(
    spec: JobSpec, plan: Mapping[int, tuple[str, str]], partial: frozenset[str]
) -> dict[str, set[str]]:
    """Subfiles each partial straggler must map to decode its own values.

    A partial straggler cancels, per member it belongs to, the values of
    the other participating rows except the coded sender's own column.
    """
    needs: dict[str, set[str]] = {k: set() for k in partial}
    for idx, member in enumerate(spec.cover.members):
        coded_sender = plan[idx][0]
        for k in member.rows:
            if k not in partial:
                continue
            for k_j, f_j in zip(member.rows, member.cols):
                if k_j not in (k, coded_sender):
                    needs[k].add(f_j)
    return needs


def run_partial_straggler_pipeline(
    spec: JobSpec,
    partial: frozenset[str],
    plan: Mapping[int, tuple[str, str]] | None = None,
) -> PipelineResult:
    """Run mode where *partial* servers map only what their decodes need.

    Partial stragglers never transmit but still reduce their share; the
    communication load is unchanged from the no-straggler run.
    """
    assignment = ReduceAssignment.block_partition(spec.matrix.rows, spec.num_functions)
    if plan is None:
        plan = default_plan(spec, assignment, forbidden=partial)
    for idx, (cs, us) in plan.items():
        if cs in partial or us in partial:
            raise ShuffleError(f"member {idx}: sender plan uses a partial straggler")
    needs = partial_straggler_needs(spec, plan, partial)
    states = run_map_phase(spec, subfile_filter=needs)
    transcript = run_shuffle(spec, assignment, states, plan)
    # Slow servers finish the rest of their map work after the shuffle
    # window has closed; the transcript and load are already fixed.
    for k in partial:
        states[k].mapped |= spec.matrix.bits[spec.matrix.row_index(k)] == 0
    reduce_result = run_reduce(spec, assignment, states)
    return PipelineResult(states, transcript, reduce_result, measured_load(transcript, spec))


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
