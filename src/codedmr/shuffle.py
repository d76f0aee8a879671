"""Map / coded-shuffle / reduce pipeline with byte-exact accounting.

Subfiles are seeded pseudorandom byte strings and the map and reduce
functions are keyed digests, so every run is deterministic and decode
correctness can be checked byte-for-byte against a central oracle.
Each digest stream hashes a counter and its length-prefixed parts.
Framing is concatenative, so ``_digest_streams`` absorbs a shared head
of parts once per output block and finishes every output from a
``copy()`` of that blake2b state, straight into one (tails, length)
uint8 array.  The job tables below share heads across whole rows, and
``synth_map``, one IVA alone, is a one-tail call with the same bytes.

Every intermediate value (IVA) is a pure function of (q, f), so a job
computes each one exactly once: ``JobSpec.ivas`` is a read-only
``(Q, N, T)`` uint8 table, built on first use, one kernel call per row
written in place, and shared by the map
phase, the oracle, the late map work of partial stragglers and every
scenario of a straggler sweep run on the same spec.  Likewise a
complete function's reduce output depends only on its row of that
table, so ``JobSpec.reduce_outputs`` digests each row once per spec, on
first read.  The servers' store (``ServerStore``) is a ``(K, N)`` mask
of the subfiles each server mapped, plus what the shuffle delivered,
kept by cover slot: the row and column of each participating slot and
the (beta, T) values it decoded.  Decoding cancels only values whose
column is in the receiver's own mask.  The reduce phase checks each
delivered value against ``ivas`` where it lands, with one gather of the
oracle and one array comparison; the per-value verdict, and the named
mismatches and outputs over it, are built only when that comparison
fails or they are read, so a sweep, which reads only the verdict, builds
none of them on a run that decodes.

``run_pipeline`` is the one routine that sequences a run (map, sender
plan, shuffle, late map, reduce, load), for the full server set, full
stragglers (which map nothing and whose functions the survivors split)
and partial stragglers (which never send and map, before the shuffle,
only what their own decodes need) alike.

The shuffle reads the cover as ``JobSpec.cover_index``, its (S, g) row
and column index arrays over the matrix: an analytic or searched cover's
own arrays, or a parsed cover's relabelled over the matrix's labels.
That read is a run's one cover check: the first read of a spec runs
``verify_cover``, and any malformed member or missing or overlapping
one-entry is the one ``ShuffleError`` a run raises for its cover.
``run_pipeline`` reads it first, so a broken cover fails before any
plan or map work, and every later read is a cached attribute.
``run_pipeline`` is the one place a run turns server labels into row
indices.  Below it the reducers are one (K, beta) duty array
(``block_duties``): row i holds q - 1 for each of its beta duty
functions, the survivors taking contiguous blocks in row order, and -1
on a row that reduces nothing.  The sender plan is an (S, 2) array of
coded and uncoded sender rows, and what each server maps before the
shuffle is a (K, N) mask; labels come back only in the transcript's
records, the reduce outputs and error texts.  The default plan and the partial
stragglers' needs are array passes over the verified cover's arrays, so
a malformed member is that ``ShuffleError``, never a failed label lookup.
A sender plan has one form, ``SenderPlan``: the (S, 2) coded and
uncoded sender indices over its label tuple, as ``IdentityCover`` holds
a cover.  A balanced plan is built over the matrix's rows, so a run
takes its array as it is; any other plan is relabelled once, and a
member -> label-pair mapping is read into a plan once, by
``SenderPlan.from_mapping``, which names the first member it misses or
maps to anything but two labels.  Both happen before any map work; a
default plan is never read.

Each identity submatrix of the cover drives one exchange round of two
broadcasts: a coded one (bytewise XOR of the intermediate values the
other member rows are missing) and an uncoded one (the values the coded
sender itself is missing).  Payloads are exactly beta*T bytes, where
beta is the number of reduce functions per participating server and T
the intermediate-value size in bytes.  All rounds of a shuffle run as
one array kernel: one gather of the missing values of every member
slot, one XOR reduce over the slots for every coded payload, one XOR to
decode, and one boolean gather of the mapped masks to check every
cancellation of the members that hold a row mapping short of its zero
set.  A verified member's cross entries are 0, so in any other member
every value a decode cancels is held.

So the transcript is two read-only arrays (``ShuffleTranscript``): the
(S, 2) sender rows and the (S, 2, beta*T) payloads, member s's coded
broadcast at ``[s, 0]`` and its uncoded one at ``[s, 1]``.  Member and
kind are positions, not data.  The ``Transmission`` records of the
broadcasts are a view built on first read, for a ``tamper`` hook and
for readers that want records; the transcript log is written from the
arrays.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .constructions import MAX_IVA_BYTES
from .matrix import (
    BinaryComputingMatrix,
    FormatError,
    IdentityCover,
    _read_only,
    _translate,
    format_cover,
    format_matrix,
    verify_cover,
)


class ShuffleError(Exception):
    """A shuffle-phase precondition or decode prerequisite failed."""


# ---------------------------------------------------------------------------
# Synthetic workload primitives.
# ---------------------------------------------------------------------------


def _frame(parts: Iterable[bytes]) -> bytes:
    """Each part with a 4-byte big-endian length prefix, concatenated.

    Framing is concatenative: ``_frame(a + b) == _frame(a) + _frame(b)``.
    """
    return b"".join([len(p).to_bytes(4, "big") + p for p in parts])


# Tails finished per join: bounds the transient digests of a block at
# 64 KiB, however many tails a call has.
_CHUNK = 1024


def _digest_streams(
    tag: bytes, head: Iterable[bytes], tails: Sequence[bytes], length: int
) -> np.ndarray:
    """The (len(tails), length) uint8 array whose row i is the stream of
    the parts ``[*head, *tail]`` for the already framed ``tails[i]``.

    Block c of the stream of parts P is the 64-byte blake2b digest,
    personalised by *tag*, of ``c (4 bytes) + _frame(P)``.  Framing is
    concatenative, so each block's state absorbs ``c + _frame(head)``
    once, and each tail costs a ``copy()``, an update and a digest.  The
    digests of one block are joined a chunk of tails at a time and land
    in their 64 columns of the array in one assignment.
    """
    framed = _frame(head)
    streams = np.empty((len(tails), length), dtype=np.uint8)
    for c, start in enumerate(range(0, length, 64)):
        copy = hashlib.blake2b(c.to_bytes(4, "big") + framed, digest_size=64, person=tag[:16]).copy
        width = min(64, length - start)
        for i in range(0, len(tails), _CHUNK):
            chunk = tails[i : i + _CHUNK]
            blocks = b"".join([(h := copy()).update(t) or h.digest() for t in chunk])
            streams[i : i + _CHUNK, start : start + width] = (
                np.frombuffer(blocks, dtype=np.uint8).reshape(-1, 64)[:, :width]
            )
    return streams


def synth_map(q: int, f: str, subfile: bytes, iva_bytes: int) -> bytes:
    """Intermediate value of function q on subfile f, exactly T bytes.

    A pure keyed digest: identical inputs give identical values on every
    server.
    """
    parts = [q.to_bytes(8, "big"), f.encode(), subfile]
    return _digest_streams(b"iva", parts, [b""], iva_bytes)[0].tobytes()


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
        size = self.num_functions * self.matrix.N * self.iva_bytes
        if size > MAX_IVA_BYTES:
            raise ValueError(
                f"the IVA table would take Q*N*T = {size} bytes, over the limit of {MAX_IVA_BYTES}"
            )

    @property
    def g(self) -> int:
        return self.cover.uniform_size  # type: ignore[return-value]

    @cached_property
    def ivas(self) -> np.ndarray:
        """Read-only (Q, N, T) table: ``ivas[q - 1, j]`` is IVA (q, cols[j]).

        IVA (q, f) is ``synth_map`` of q on f's subfile, which hashes the
        parts ``[q, f, subfile]``: a head shared by the row of q and a tail
        shared by the column of f.  Each column label is framed once.  It
        is the tail of the subfile's parts ``[seed, f]``, so the N subfiles
        are one ``_digest_streams`` call with the seed as head; and framing
        is concatenative, so f's IVA tail is the framed label followed by
        the framed subfile.  Each row is one call with q as head, written
        into the table in place.
        """
        Q, B, T = self.num_functions, self.subfile_bytes, self.iva_bytes
        labels = [_frame([f.encode()]) for f in self.matrix.cols]
        subfiles = _digest_streams(b"subfile", [str(self.file_seed).encode()], labels, B).tobytes()
        size = B.to_bytes(4, "big")
        tails = [f + size + subfiles[j * B : (j + 1) * B] for j, f in enumerate(labels)]
        table = np.empty((Q, len(tails), T), dtype=np.uint8)
        for q in range(1, Q + 1):
            table[q - 1] = _digest_streams(b"iva", [q.to_bytes(8, "big")], tails, T)
        table.flags.writeable = False
        return table

    @cached_property
    def reduce_outputs(self) -> tuple[bytes, ...]:
        """The Q reduce outputs: ``reduce_outputs[q - 1]`` is the 32-byte
        digest stream, tagged ``reduce``, of the parts ``[q, *row]`` for
        q's ``ivas`` row, worked out on first read.  The tail after the
        head q is the row's N values, each framed by a 4-byte big-endian
        T: one ``tobytes()`` of an (N, 4 + T) array.
        """
        _, N, T = self.ivas.shape
        framed = np.empty((N, 4 + T), dtype=np.uint8)
        framed[:, :4] = np.frombuffer(T.to_bytes(4, "big"), dtype=np.uint8)
        outputs = []
        for q, row in enumerate(self.ivas, 1):
            framed[:, 4:] = row
            stream = _digest_streams(b"reduce", [q.to_bytes(8, "big")], [framed.tobytes()], 32)
            outputs.append(stream[0].tobytes())
        return tuple(outputs)

    @cached_property
    def cover_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, g) matrix row and column indices of the cover members'
        entries, in member order: the cover's own arrays when it was built
        over this matrix's labels.

        The one place a run verifies its cover, once per spec: raises
        ShuffleError when ``verify_cover`` finds any member malformed or
        any one-entry missing or overlapping, before any sender plan,
        map work or broadcast reads the arrays.
        """
        report = verify_cover(self.matrix, self.cover)
        faults = len(report.malformed), len(report.missing), len(report.overlapping)
        if any(faults):
            raise ShuffleError(
                "cover failed verification: {} malformed, {} missing, {} overlapping".format(*faults)
            )
        # a verified cover's members are one group of every member, in order
        ((_, R, C),) = self.cover.index(self.matrix).groups
        return R, C


def block_duties(K: int, reducer_rows: Sequence[int], num_functions: int) -> np.ndarray:
    """The (K, beta) duty array of a run: row ``reducer_rows[i]`` reduces
    the i-th contiguous block of beta = Q/len(reducer_rows) functions, held
    as q - 1, and every other row holds -1 (it reduces nothing)."""
    if not len(reducer_rows):
        raise ValueError("assignment needs at least one server")
    if num_functions % len(reducer_rows):
        raise ValueError(
            f"Q={num_functions} is not divisible by {len(reducer_rows)} servers"
        )
    beta = num_functions // len(reducer_rows)
    duty = np.full((K, beta), -1, dtype=np.intp)
    duty[list(reducer_rows)] = np.arange(num_functions).reshape(-1, beta)
    return duty


@dataclass
class ServerStore:
    """Every server's intermediate values, as arrays over the job's table.

    ``mapped[i, j]`` says the server of matrix row i mapped the subfile
    of column j, so it holds ``spec.ivas[:, j]``; decoding may only
    cancel against those.  What the shuffle delivers is kept by cover
    slot: slot p is the one-entry (``rows[p]``, ``cols[p]``) of a
    participating row, and ``values[p, b]`` the value of that column it
    decoded for the row's duty function b.  Until a shuffle sets them,
    the three are None: nothing was delivered.
    """

    mapped: np.ndarray                  # (K, N) bool
    rows: np.ndarray | None = None      # (P,) intp
    cols: np.ndarray | None = None      # (P,) intp
    values: np.ndarray | None = None    # (P, beta, T) uint8


@dataclass(frozen=True)
class Transmission:
    """One broadcast of a cover member's exchange round."""

    sender: str
    member: int
    kind: str                    # "coded" | "uncoded"
    payload: bytes


_KINDS = ("coded", "uncoded")   # a broadcast's kind is its place in its round


@dataclass(eq=False)
class ShuffleTranscript:
    """The broadcasts of a shuffle as two read-only arrays: ``senders[s]``
    holds the (coded, uncoded) sender rows of member s, and
    ``payloads[s, i]`` the payload of its broadcast of kind ``_KINDS[i]``.
    ``servers`` names the rows."""

    servers: tuple[str, ...]
    senders: np.ndarray          # (S, 2) intp
    payloads: np.ndarray         # (S, 2, beta*T) uint8

    def __post_init__(self) -> None:
        for name in ("senders", "payloads"):
            setattr(self, name, _read_only(np.asarray(getattr(self, name)).view()))

    @property
    def payload_bytes(self) -> int:
        return self.payloads.shape[2]

    @property
    def total_bits(self) -> int:
        return self.payloads.size * 8

    @cached_property
    def transmissions(self) -> tuple[Transmission, ...]:
        """The 2S broadcasts as records in send order, built on first read."""
        flat, size = self.payloads.tobytes(), self.payload_bytes
        return tuple(
            Transmission(self.servers[k], i // 2, _KINDS[i % 2], flat[i * size : (i + 1) * size])
            for i, k in enumerate(self.senders.ravel().tolist())
        )


# ---------------------------------------------------------------------------
# Pipeline phases.
# ---------------------------------------------------------------------------


def run_map_phase(spec: JobSpec, mapped: np.ndarray | None = None) -> ServerStore:
    """Mark what each server maps before the shuffle: the (K, N) bool mask
    *mapped*, copied, or else the zero columns of every row.

    The values are the job's ``ivas`` table, built here on first use.
    """
    spec.ivas  # the map work itself: builds the table once per spec
    return ServerStore(spec.matrix.bits == 0 if mapped is None else np.array(mapped, dtype=bool))


def _exchange(
    spec: JobSpec,
    duty: np.ndarray,
    store: ServerStore,
    senders: np.ndarray,
    tamper: Callable[[Transmission], Transmission] | None,
) -> np.ndarray:
    """The exchange rounds of every cover member, ``senders[s]`` being the
    (coded, uncoded) sender rows of member s and *duty* the run's (K, beta)
    duty array: build, broadcast, decode.  Returns the (S, 2, beta*T)
    payloads broadcast, and sets the store's ``rows``, ``cols`` and
    ``values`` to the slots of participating rows and what they decoded.

    All rounds are one array kernel over the members' g slots, laid out
    slot-major so that every XOR runs over a contiguous (S, beta, T)
    block.  One gather fetches the value each slot's row is missing for
    each of its duty functions.  The coded sender's slot and the slots of
    rows that do not take part (full stragglers) are zeroed, so one XOR
    reduce over the slot axis gives every coded payload.  That payload is
    the XOR of every slot, so slot i decodes the broadcast one as
    ``values[i] ^ broadcast ^ coded``.  What makes that XOR a decode is
    that every value an encoder or decoder cancels is mapped.  A verified
    member's cross entries are 0, so a row whose map mask holds its whole
    zero set holds every value it cancels.  So one boolean gather of the
    mapped masks checks only the members with a participating row that
    maps short (a partial straggler, or a row of a mask the caller passed
    in); at every other member the only fault is a sender fault.

    *tamper* maps the ``Transmission`` records of the broadcasts of every
    member before the first sender fault, in send order, and the payloads
    it returns are what is decoded.  Faults are found for all members at
    once and raised for the first in member order, as one round at a
    time would meet them: at one member a sender fault, then a value a
    decoder lacks, then a broadcast of the wrong length.
    """
    m = spec.matrix
    beta, T = duty.shape[1], spec.iva_bytes
    size = beta * T
    active = duty[:, 0] >= 0
    R, C = spec.cover_index                                     # (S, g)
    n, g = R.shape
    at = np.arange(n)
    part = active[R]
    cs_row, us_row = senders.T
    cs = np.argmax(R == cs_row[:, None], axis=1)    # the senders' slots
    us = np.argmax(R == us_row[:, None], axis=1)
    distinct = cs_row != us_row
    takes_part = (R[at, cs] == cs_row) & part[at, cs] & (R[at, us] == us_row) & part[at, us]
    sound = distinct & takes_part

    # A verified member's cross entries are 0, so a row that mapped its
    # whole zero set holds every other slot's column.  Only the members
    # with a participating row that maps short of it (a partial straggler,
    # or a mask the caller passed in) can lack a value: the checked ones.
    short = ((m.bits == 0) & ~store.mapped).any(axis=1)
    checked = np.flatnonzero((short[R] & part).any(axis=1))
    lacking, late = ~sound, checked     # with no member checked, no late fault
    if checked.size:
        pos = np.arange(checked.size)
        cc, cu, pc = cs[checked], us[checked], part[checked]
        # held[k, i, j]: in member checked[k], the row of slot i mapped
        # the column of slot j.  The coded sender encodes from its own
        # map-phase values, the uncoded sender sends the coded sender's
        # column, and every other row decodes by cancelling the values of
        # the rows besides itself and the sender.
        held = (
            store.mapped[R[checked, :, None], C[checked, None, :]]
            | ~pc[:, :, None] | ~pc[:, None, :]
        )
        held[:, np.arange(g), np.arange(g)] = True
        own = held[pos, cc]
        lacking[checked] |= ~own.all(1) | ~held[pos, cu, cc]
        held[pos, cc] = True
        held[pos, :, cc] = True
        late = checked[sound[checked] & ~held.reshape(-1, g * g).all(1)]
    early = np.flatnonzero(lacking)
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
        k = np.searchsorted(checked, s)   # a sound member at fault is checked
        if not own[k].all():
            return lacks(s, cs[s], int(np.argmin(own[k])))
        return lacks(s, us[s], cs[s])

    # values[i, s, b]: what slot i's row of member s misses for duty slot b
    values = spec.ivas[duty[R.T], C.T[:, :, None]]              # (g, S, beta, T)
    uncoded = values[cs, at]
    values[cs, at] = 0
    if not part.all():
        values[~part.T] = 0
    coded = np.bitwise_xor.reduce(values, axis=0)
    payloads = np.stack((coded, uncoded), axis=1).reshape(n, 2, size)

    wrong = 2 * n   # the first broadcast *tamper* gave a wrong length
    if tamper is not None:
        view = ShuffleTranscript(m.rows, senders[:first_fault], payloads[:first_fault])
        sent = [tamper(tx).payload for tx in view.transmissions]
        wrong = next((i for i, p in enumerate(sent) if len(p) != size), wrong)
    s = min(first_fault, first_late, wrong // 2)
    if s == first_fault < n:
        raise fault(s)
    if s == first_late < n:
        k = np.searchsorted(checked, s)
        raise lacks(s, *divmod(int(np.argmin(held[k])), g))
    if s < n:
        raise ShuffleError(
            f"member {s}: {_KINDS[wrong % 2]} broadcast has {len(sent[wrong])} bytes, expected {size}"
        )
    if tamper is not None:
        # decode what was broadcast: the tampered payloads
        payloads = np.frombuffer(b"".join(sent), dtype=np.uint8).reshape(n, 2, size)
        got_coded, uncoded = payloads.reshape(n, 2, beta, T).transpose(1, 0, 2, 3)
        values ^= got_coded ^ coded
    values[cs, at] = uncoded
    rows, cols, values = R.T.ravel(), C.T.ravel(), values.reshape(g * n, beta, T)   # a view
    if not part.all():   # keep the slots of the participating rows
        keep = part.T.ravel()
        rows, cols, values = rows[keep], cols[keep], values[keep]
    store.rows, store.cols, store.values = rows, cols, values
    return payloads


def default_plan(spec: JobSpec, duty: np.ndarray, forbidden: Sequence[int] = ()) -> np.ndarray:
    """First-two-participating-rows sender plan (deliberately unbalanced):
    the (S, 2) coded and uncoded sender rows, each a reducing row of the
    (K, beta) *duty* array and none of them in *forbidden*.

    Reads ``spec.cover_index``, so a cover that fails verification raises
    ShuffleError.
    """
    m = spec.matrix
    R, _ = spec.cover_index
    eligible = duty[:, 0] >= 0
    eligible[list(forbidden)] = False
    # the two lowest eligible rows of each member, K standing for none
    # (a verified cover has distinct rows in each member)
    ranked = np.where(eligible[R], R, m.K)
    first = ranked.min(axis=1)
    second = np.where(ranked == first[:, None], m.K, ranked).min(axis=1)
    short = np.flatnonzero(second == m.K)
    if short.size:
        idx = int(short[0])
        raise ShuffleError(
            f"member {idx} has {int(eligible[R[idx]].sum())} eligible senders, needs 2"
        )
    return np.stack([first, second], axis=1)


@dataclass(frozen=True, eq=False)
class SenderPlan:
    """Each cover member's coded and uncoded sender: ``senders[s]`` holds
    member s's two indices into the label tuple ``servers``, in one
    read-only (S, 2) intp array.

    ``build_sender_plan`` builds a plan over a matrix's own rows, which a
    run takes as it is; ``from_json`` and ``from_mapping`` number their
    labels in order of first use.  Any other shape, or an index outside
    ``[0, len(servers))``, raises ValueError.
    """

    servers: tuple[str, ...]
    senders: np.ndarray          # (S, 2) intp

    def __post_init__(self) -> None:
        senders = np.array(self.senders, dtype=np.intp)
        if senders.ndim != 2 or senders.shape[1] != 2:
            raise ValueError(f"senders must be an (S, 2) array, not {senders.shape}")
        if senders.size and not 0 <= senders.min() <= senders.max() < len(self.servers):
            raise ValueError(f"sender indices must lie in [0, {len(self.servers)})")
        object.__setattr__(self, "senders", _read_only(senders))

    @classmethod
    def _numbered(cls, labels: list[str]) -> "SenderPlan":
        """The plan whose members send, in turn, the coded and uncoded
        *labels*, numbered in order of first use."""
        number: dict[str, int] = {}
        rows = [number.setdefault(k, len(number)) for k in labels]
        return cls(tuple(number), np.array(rows, dtype=np.intp).reshape(-1, 2))

    @classmethod
    def from_mapping(cls, plan: Mapping[int, tuple[str, str]], S: int) -> "SenderPlan":
        """The plan that *plan* gives, mapping members 0 to S-1 to two
        server labels each.

        Raises ShuffleError naming the first member the plan misses or maps
        to anything else, or else a key that is no member.
        """
        for idx in range(S):   # the first fault in member order
            if idx not in plan:
                raise ShuffleError(f"sender plan misses member {idx}")
            try:
                c, u = plan[idx]
            except (TypeError, ValueError):
                c = u = None
            if not type(c) is type(u) is str:
                raise ShuffleError(
                    f"member {idx}: sender plan gives {plan[idx]!r}, not two server labels"
                )
        if len(plan) != S:
            extra = next(key for key in plan if key not in range(S))
            raise ShuffleError(f"sender plan names member {extra!r}; the cover has {S} members")
        return cls._numbered([k for idx in range(S) for k in plan[idx]])

    def as_mapping(self) -> dict[int, tuple[str, str]]:
        """Member -> (coded, uncoded) labels, for callers that still pass
        a label mapping to ``run_pipeline``; no run path reads it."""
        return dict(enumerate(map(tuple, np.array(self.servers, dtype=object)[self.senders].tolist())))

    def to_json(self) -> str:
        pairs = np.array(self.servers, dtype=object)[self.senders].tolist()
        payload = {str(i): {"coded": c, "uncoded": u} for i, (c, u) in enumerate(pairs)}
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SenderPlan":
        """Read ``to_json`` text: an object whose keys are the members "0"
        to "S-1", each with string ``coded`` and ``uncoded`` fields.
        Anything else raises FormatError."""
        try:
            payload = json.loads(text)
            labels = [payload[str(i)][kind] for i in range(len(payload)) for kind in _KINDS]
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise FormatError(f"malformed sender plan ({type(exc).__name__}: {exc})") from None
        if not isinstance(payload, dict) or any(type(k) is not str for k in labels):
            raise FormatError("sender plan must map members to string server labels")
        return cls._numbered(labels)


def run_shuffle(
    spec: JobSpec,
    duty: np.ndarray,
    store: ServerStore,
    senders: np.ndarray | None = None,
    tamper: Callable[[Transmission], Transmission] | None = None,
) -> ShuffleTranscript:
    """Run the two broadcasts of every cover member and decode them, sent
    by the (S, 2) sender rows *senders* or else by the default plan's, for
    the reducers of the (K, beta) *duty* array.

    The first read of ``spec.cover_index`` rejects a broken cover before
    any transmission.  A verified cover puts every one-entry in exactly
    one member, so after the shuffle every reducing server holds the
    values for all subfiles of its duty functions.
    """
    if senders is None:
        senders = default_plan(spec, duty)
    return ShuffleTranscript(spec.matrix.rows, senders, _exchange(spec, duty, store, senders, tamper))


@dataclass(eq=False)
class ReduceResult:
    """The byte-exact verdict of a run's reduce phase against the oracle.

    ``bad[i, b, j]`` says the i-th reducing row of the run's (K, beta)
    *duty* array lacks a correct value of its duty function b on matrix
    column j; a run that is ``ok`` has none, and builds the array only
    when it is read.
    The named mismatches and the per-function outputs are views over it,
    built on first read.
    """

    ok: bool
    spec: JobSpec
    duty: np.ndarray            # (K, beta) intp
    failed: np.ndarray | None   # bad, when the run is not ok

    @cached_property
    def bad(self) -> np.ndarray:
        """(kappa, beta, N) bool."""
        if self.failed is not None:
            return self.failed
        kappa = np.count_nonzero(self.duty[:, 0] >= 0)
        return np.zeros((kappa, self.duty.shape[1], self.spec.matrix.N), dtype=bool)

    def _reducers(self) -> tuple[list[str], list[list[int]]]:
        reducers = np.flatnonzero(self.duty[:, 0] >= 0)
        rows = self.spec.matrix.rows
        return [rows[i] for i in reducers.tolist()], (self.duty[reducers] + 1).tolist()

    @cached_property
    def mismatches(self) -> list[tuple[str, int, str]]:
        """Each (server, q, f) whose value is missing or wrong, in order of
        reducing row, duty function and column."""
        servers, qs = self._reducers()
        cols = self.spec.matrix.cols
        return [(servers[s], qs[s][b], cols[j]) for s, b, j in np.argwhere(self.bad).tolist()]

    @cached_property
    def outputs(self) -> dict[tuple[str, int], bytes]:
        """(server, q) -> reduce output of every function whose values all
        match: the spec's ``reduce_outputs`` entry."""
        servers, qs = self._reducers()
        complete = (~self.bad.any(axis=2)).tolist()
        return {
            (k, q): self.spec.reduce_outputs[q - 1]
            for k, row, oks in zip(servers, qs, complete)
            for q, ok in zip(row, oks)
            if ok
        }


def run_reduce(spec: JobSpec, duty: np.ndarray, store: ServerStore) -> ReduceResult:
    """Reduce every duty function of the (K, beta) *duty* array and
    compare against a central oracle.

    The oracle is the job's ``ivas`` table: each delivered slot value is
    compared with its entry where it lands, and a value no slot delivered
    counts as wrong, so any decoding error shows up as a named (server, q,
    f) mismatch.  The run is ``ok`` at once when every reducing row mapped
    or was delivered every column and all delivered values equal the
    oracle's; otherwise the per-value check decides, in which a wrong
    value at a cell the row mapped does not count.  The mismatches and
    outputs are worked out only when read.
    """
    reducers = duty[:, 0] >= 0
    held = store.mapped.copy()      # (K, N): mapped or delivered
    oracle = None
    if store.rows is not None:
        # (P, beta, T); one take over the flat (Q * N, T) table gathers
        # faster than a two-axis fancy index
        N, T = spec.ivas.shape[1:]
        oracle = np.take(spec.ivas.reshape(-1, T), duty[store.rows] * N + store.cols[:, None], axis=0)
        held[store.rows, store.cols] = True
    if held[reducers].all() and (oracle is None or np.array_equal(store.values, oracle)):
        return ReduceResult(True, spec, duty, None)
    wrong = np.ones((*store.mapped.shape, duty.shape[1]), dtype=bool)   # (K, N, beta)
    if oracle is not None:
        wrong[store.rows, store.cols] = (store.values != oracle).any(axis=2)
    bad = (wrong[reducers] & ~store.mapped[reducers][:, :, None]).transpose(0, 2, 1)
    return ReduceResult(not bad.any(), spec, duty, bad)


def measured_load(transcript: ShuffleTranscript, spec: JobSpec) -> Fraction:
    """Total payload bits normalized by Q*N*T bits, as an exact rational."""
    denom = spec.num_functions * spec.matrix.N * spec.iva_bytes * 8
    return Fraction(transcript.total_bits, denom)


@dataclass
class PipelineResult:
    transcript: ShuffleTranscript
    reduce_result: ReduceResult
    load: Fraction
    # "default" or "explicit"; for plan "balanced", straggler_run sets "balanced" and
    # plan, or "default (balanced unavailable)" and plan_fallback (the BalanceError text)
    plan_mode: str
    plan: SenderPlan | None = None
    plan_fallback: str | None = None


def partial_straggler_needs(
    spec: JobSpec, senders: np.ndarray, partial: Sequence[int]
) -> np.ndarray:
    """(K, N) mask of the subfiles each partial straggler row in *partial*
    must map to decode its own values, under the (S, 2) sender rows
    *senders*.

    A partial straggler cancels, per member it belongs to, the values of
    the other participating rows except the coded sender's own column.
    Raises ShuffleError naming the first member in which a partial
    straggler sends, or else, reading ``spec.cover_index``, on a cover
    that fails verification.
    """
    sends = np.isin(senders, partial).any(axis=1)
    if sends.any():
        raise ShuffleError(f"member {int(np.argmax(sends))}: sender plan uses a partial straggler")
    R, C = spec.cover_index
    needs = np.zeros(spec.matrix.bits.shape, dtype=bool)
    for i in partial:
        # in the members holding i, the columns of the rows besides i and the coded sender
        own = (R == i).any(axis=1)
        cancel = (R[own] != i) & (R[own] != senders[own, :1])
        needs[i, C[own][cancel]] = True
    return needs


def run_pipeline(
    spec: JobSpec,
    plan: SenderPlan | Mapping[int, tuple[str, str]] | None = None,
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
    rows send; a ``SenderPlan`` is relabelled over the matrix's rows
    unless it is over them already, and a member -> (coded, uncoded)
    label mapping is read by ``SenderPlan.from_mapping``.  A plan that
    does not give every member exactly once raises ShuffleError.
    *tamper* maps each broadcast's record before it is decoded (see
    ``_exchange``).
    """
    m = spec.matrix
    stragglers = set(stragglers)
    unknown = (stragglers | partial) - set(m.rows)
    if unknown:
        raise ValueError(f"unknown server labels {sorted(unknown)}")
    # the one place a run turns server labels into row indices
    duty = block_duties(
        m.K, [i for i, k in enumerate(m.rows) if k not in stragglers], spec.num_functions
    )
    partial_rows = [i for i, k in enumerate(m.rows) if k in partial]
    spec.cover_index   # a broken cover fails here, before any plan or map work
    plan_mode = "default" if plan is None else "explicit"
    if plan is None:
        senders = default_plan(spec, duty, forbidden=partial_rows)
    else:
        S = spec.cover.size
        if not isinstance(plan, SenderPlan):
            plan = SenderPlan.from_mapping(plan, S)
        elif len(plan.senders) < S:
            raise ShuffleError(f"sender plan misses member {len(plan.senders)}")
        elif len(plan.senders) > S:
            raise ShuffleError(f"sender plan names member {S}; the cover has {S} members")
        # relabelled unless over m's rows; labels m lacks get rows from K on
        senders = plan.senders if plan.servers == m.rows else (
            _translate(plan.servers, m._row_idx)[0][plan.senders])   # type: ignore[attr-defined]
    mapped = m.bits == 0
    mapped[duty[:, 0] < 0] = False      # full stragglers map nothing
    if partial_rows:
        mapped[partial_rows] = partial_straggler_needs(spec, senders, partial_rows)[partial_rows]
    store = run_map_phase(spec, mapped)
    transcript = run_shuffle(spec, duty, store, senders, tamper)
    # Partial stragglers finish the rest of their map work after the
    # shuffle window has closed; the transcript and load are already fixed.
    store.mapped[partial_rows] = m.bits[partial_rows] == 0
    reduce_result = run_reduce(spec, duty, store)
    return PipelineResult(transcript, reduce_result, measured_load(transcript, spec), plan_mode)


# ---------------------------------------------------------------------------
# Transcript persistence: binary log plus a JSON-friendly summary.
# ---------------------------------------------------------------------------

_MAGIC = b"CMRT"


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


def transcript_log(spec: JobSpec, transcript: ShuffleTranscript) -> bytes:
    """The transcript log: a header, then one record per broadcast in
    send order, its sender's label (a 2-byte length, then UTF-8), and its
    member, kind byte, payload length and payload.

    Raises FormatError on a server label of more UTF-8 bytes than its
    2-byte length can hold.
    """
    m = spec.matrix
    S, _, size = transcript.payloads.shape
    encoded = [k.encode() for k in transcript.servers]
    longest = max(map(len, encoded), default=0)
    if longest > 0xFFFF:
        raise FormatError(
            f"a server label of {longest} UTF-8 bytes is over the transcript log's limit of {0xFFFF}"
        )
    labels = [struct.pack(">H", len(b)) + b for b in encoded]
    # what follows a record's label, of one width in every record
    tail = np.dtype([("member", ">u4"), ("kind", "u1"), ("length", ">u4"), ("payload", "u1", size)])
    tails = np.empty((S, 2), dtype=tail)
    tails["member"] = np.arange(S)[:, None]
    tails["kind"] = range(len(_KINDS))
    tails["length"] = size
    tails["payload"] = transcript.payloads
    flat, width = tails.tobytes(), tail.itemsize
    parts = [
        _MAGIC,
        struct.pack(">B", 1),
        job_digest(spec),
        struct.pack(">7I", m.K, m.N, m.r, spec.g, spec.cover.size, spec.num_functions,
                    spec.iva_bytes),
        struct.pack(">I", 2 * S),
    ]
    for i, k in enumerate(transcript.senders.ravel().tolist()):
        parts += (labels[k], flat[i * width : (i + 1) * width])
    return b"".join(parts)


def save_transcript(path, spec: JobSpec, transcript: ShuffleTranscript) -> None:
    """Write ``transcript_log`` to *path*; a log it refuses opens no file."""
    log = transcript_log(spec, transcript)
    with open(path, "wb") as fh:
        fh.write(log)


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
            if kind >= len(_KINDS):
                raise FormatError(f"record {i}: unknown kind byte {kind}")
            transmissions.append(Transmission(sender.decode(), member, _KINDS[kind], payload))
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
