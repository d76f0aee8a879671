"""Span recorder for the traced benchmark run.

Tracing wraps public functions of the codedmr layers by swapping module
attributes, so the program itself carries no instrumentation.  Spans
(name, start, end, parent, op id) stay in memory and are written out
when the run ends.  Leaf functions called hundreds of thousands of times
(``synth_map``, ``perfect_matching``) are counted, not spanned, so their
time stays inside the span of their caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def _matrix_cells(rec: "Recorder", result) -> None:
    rec.counts["constructions.cells"] += result.K * result.N


def _cover_members(rec: "Recorder", result) -> None:
    rec.counts["covers.members"] += result.size


def _broadcasts(rec: "Recorder", result) -> None:
    rec.counts["shuffle.broadcasts"] += len(result.transmissions)
    rec.counts["shuffle.payload_bytes"] += sum(len(tx.payload) for tx in result.transmissions)


# (module, attribute, span name, result hook).  The pipeline modules bind
# several of these names separately, so each binding is swapped on its own.
SPANNED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("constructions", "man_matrix", "constructions.build", _matrix_cells),
    ("constructions", "ingest_design", "constructions.build", None),
    ("constructions", "bibd_matrix", "constructions.build", _matrix_cells),
    ("covers", "man_cover", "covers.cover", _cover_members),
    ("covers", "search_cover", "covers.cover", _cover_members),
    ("balance", "build_sender_plan", "balance.plan", None),
    ("shuffle", "default_plan", "balance.plan", None),
    ("straggler", "default_plan", "balance.plan", None),
    ("shuffle", "run_pipeline", "shuffle.pipeline", None),
    ("shuffle", "run_map_phase", "shuffle.map", None),
    ("straggler", "run_map_phase", "shuffle.map", None),
    ("shuffle", "run_shuffle", "shuffle.exchange", _broadcasts),
    ("straggler", "run_shuffle", "shuffle.exchange", _broadcasts),
    ("shuffle", "verify_cover", "matrix.verify", None),
    ("shuffle", "run_reduce", "shuffle.reduce", None),
    ("straggler", "run_reduce", "shuffle.reduce", None),
    ("shuffle", "save_transcript", "shuffle.save", None),
    ("shuffle", "load_transcript", "shuffle.load", None),
    ("straggler", "worst_case_sweep", "straggler.sweep", None),
    ("straggler", "straggler_run", "straggler.run", None),
)

# (module, attribute, counter name): call counts only.
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("shuffle", "synth_map", "shuffle.digests"),
    ("balance", "perfect_matching", "balance.matching_calls"),
    ("straggler", "perfect_matching", "balance.matching_calls"),
)


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()   # "span name: exception class"
        self._stack: list[int] = []
        self._op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark op; its descendants share its id."""
        self._op += 1
        with self.span(f"op:{name}"):
            yield

    def spanned(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    self.errors[f"{name}: {type(exc).__name__}"] += 1
                    raise
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the duration of child spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, children in zip(self.spans, child_time):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - children
        return out

    def span_counts(self) -> Counter[str]:
        return Counter(s.name for s in self.spans)


def write_spans(path, recorders: list[Recorder]) -> None:
    """One JSON line per span; ``pass`` numbers the traced passes."""
    with open(path, "w") as fh:
        for n, rec in enumerate(recorders):
            for s in rec.spans:
                fh.write(json.dumps({"pass": n, **s.__dict__}) + "\n")


@contextlib.contextmanager
def installed(rec: Recorder):
    """Swap the traced module attributes for wrappers; restore on exit."""
    saved = []
    try:
        for mod_name, attr, span_name, hook in SPANNED:
            mod = importlib.import_module(f"codedmr.{mod_name}")
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, rec.spanned(fn, span_name, hook))
        for mod_name, attr, counter in COUNTED:
            mod = importlib.import_module(f"codedmr.{mod_name}")
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, rec.counted(fn, counter))
        yield rec
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
