"""Shared pieces of the benchmark: paths, clocks, order statistics, spans, memory.

Every workload module builds on what is defined here:

* :func:`quantile` — the one order statistic every timing goes through
  (nearest rank, so a reported p90 is a sample that was really observed);
* :class:`SpanRecorder` — the benchmark's own tracer.  It records spans
  around the public calls the benchmark makes into each layer, with a
  per-request id and a parent span, keeps them in memory and writes them
  out once when the run ends;
* :func:`rss_bytes` / :func:`peak_rss_bytes` / :func:`reset_peak_rss` — memory
  as the kernel sees it;
* :class:`Checker` — counts attempted and failed answers, so every mismatch
  against an independent reference lowers ``ok_frac``;
* :class:`Workload` — the interface the runner drives, round by round.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave span dumps and pool table stores (listed in .gitignore).
WORK_DIR = ROOT / ".perfbench"

_PAGE = os.sysconf("SC_PAGE_SIZE")


# --------------------------------------------------------------------- stats
def quantile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of ``values`` (an observed sample)."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The median, averaging the middle pair of an even-sized sample."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def counter_delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` for counters, nested dicts of counters included.

    Values that are not counters (a list of per-round readings) are taken
    from ``after``.
    """
    delta: Dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            delta[key] = counter_delta(value, before.get(key, {}))
        elif isinstance(value, int):
            delta[key] = value - before.get(key, 0)
        else:
            delta[key] = value
    return delta


def add_counts(total: Dict[str, Any], delta: Dict[str, Any]) -> Dict[str, Any]:
    """``total + delta`` for counters and nested counters; lists concatenate."""
    out = dict(total)
    for key, value in delta.items():
        if isinstance(value, dict):
            out[key] = add_counts(total.get(key, {}), value)
        elif key in total:
            out[key] = total[key] + value
        else:
            out[key] = value
    return out


# -------------------------------------------------------------------- memory
def rss_bytes(pid: Optional[int] = None) -> int:
    """Current resident set size of ``pid`` (default: this process)."""
    path = "/proc/{}/statm".format(pid if pid is not None else "self")
    with open(path) as handle:
        return int(handle.read().split()[1]) * _PAGE


def peak_rss_bytes(pid: Optional[int] = None) -> int:
    """Peak resident set size of ``pid`` (default: this process).

    For this process, the peak since the last :func:`reset_peak_rss`.
    """
    path = "/proc/{}/status".format(pid if pid is not None else "self")
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in {}".format(path))


def reset_peak_rss() -> None:
    """Restart this process's peak RSS from its current RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


# ------------------------------------------------------------------- answers
class Checker:
    """Tallies answers against references; keeps the first few mismatches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        """Count one answer; ``ok`` says whether it matched its reference."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(what)


# --------------------------------------------------------------------- spans
class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("recorder", "name", "span_id", "parent", "start")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        self.span_id = recorder.next_id()
        self.parent = recorder.stack[-1] if recorder.stack else None
        recorder.stack.append(self.span_id)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        end = perf_counter_ns()
        recorder = self.recorder
        recorder.stack.pop()
        recorder.spans.append(
            (recorder.request_id, self.span_id, self.parent, self.name, self.start, end)
        )
        return False


class SpanRecorder:
    """In-memory spans ``(request, id, parent, name, start_ns, end_ns)``.

    ``request(name)`` opens the root span of one request under a fresh
    request id; ``span(name)`` opens a child of the innermost open span.
    While ``active`` is False both return a shared no-op, so the untraced
    run pays one attribute read per call.  ``adopt`` files spans measured
    elsewhere — the stages of the program's own request trace — as children
    of a span the benchmark recorded.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Tuple[int, int, Optional[int], str, int, int]] = []
        self.stack: List[int] = []
        self.request_id = 0
        self._ids = 0

    def next_id(self) -> int:
        """A fresh span id."""
        self._ids += 1
        return self._ids

    def request(self, name: str) -> Any:
        """Open the root span of a new request (a no-op while inactive)."""
        if not self.active:
            return _NO_SPAN
        self.request_id += 1
        return _Span(self, name)

    def span(self, name: str) -> Any:
        """Open a child of the innermost open span (a no-op while inactive)."""
        if not self.active:
            return _NO_SPAN
        return _Span(self, name)

    def adopt(self, parent: int, stages: Iterable[Tuple[str, int, int]]) -> None:
        """File ``(name, start_ns, duration_ns)`` stages under span ``parent``.

        A stage lying inside another adopted stage (``rewind`` inside
        ``session_edit``) becomes that stage's child, so self times do not
        count it twice.
        """
        open_stages: List[Tuple[int, int]] = []  # (span id, end ns)
        for name, start, duration in sorted(stages, key=lambda s: (s[1], -s[2])):
            end = start + duration
            while open_stages and open_stages[-1][1] < end:
                open_stages.pop()
            span_id = self.next_id()
            owner = open_stages[-1][0] if open_stages else parent
            self.spans.append((self.request_id, span_id, owner, name, start, end))
            open_stages.append((span_id, end))

    def durations(self, name: str) -> List[int]:
        """Durations (ns) of every span called ``name``."""
        return [end - start for _r, _i, _p, span, start, end in self.spans if span == name]

    def self_times(self) -> Dict[str, int]:
        """Total self time (ns) per span name: duration minus covered children.

        Children of one parent may overlap (a pool batch's chunks run on two
        workers at once), so the covered part is the union of their
        intervals, clipped to the parent.
        """
        children: Dict[int, List[Tuple[int, int]]] = {}
        for _r, _i, parent, _n, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: Dict[str, int] = {}
        for _r, span_id, _p, name, start, end in self.spans:
            covered = 0
            cursor = start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[name] = totals.get(name, 0) + (end - start) - covered
        return totals

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (the end-of-run trace file)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for request, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "request": request, "span": span_id, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


def program_stages(tracer: Any) -> List[Tuple[str, int, int]]:
    """The stage spans of the program tracer's most recent request trace."""
    traces = tracer.traces()
    return list(traces[-1].spans) if traces else []


# ----------------------------------------------------------------- workloads
class Workload:
    """One named input set and the closed loop that serves it.

    A subclass builds, in ``__init__`` and outside every timed span, its
    ``plan`` — ``rounds`` lists of requests, one list per round — together with
    every request's reference answer, and implements:

    * ``setup()`` — one cold set-up from fresh grammar objects; returns the
      work counts that must repeat exactly on every set-up of the run;
    * ``run_op(op, spans)`` — send request ``op``; returns
      ``(answer, op_ns, tokens)`` where ``op_ns`` times only the request's
      public calls;
    * ``check(checker, op, answer)`` — compares one answer to its reference;
    * ``snapshot()`` — counters read before and after each round;
    * ``layer_metrics(...)`` / ``peak_rss()``.

    One client, closed loop: the next request is sent when the previous
    one has returned.
    """

    name = ""
    #: Rounds per run: each is cold set-ups followed by that round's requests.
    rounds = 5
    #: Fresh-grammar factories, by label, for ``compile.build_ms``.
    grammar_factories: Dict[str, Any] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Whether this is the traced run (set by the runner).
        self.traced_run = False
        #: The requests of each round.
        self.plan: List[List[Any]] = []
        #: The set-up's ``ParseService`` or ``PooledParseService``.
        self.service: Any = None

    def setup(self) -> Dict[str, Any]:
        """One cold set-up from fresh grammar objects; returns its work counts."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Close the current set-up's service (idempotent)."""
        if self.service is not None:
            self.service.close()
            self.service = None

    def set_traced(self, traced: bool) -> None:
        """Switch the program's own request tracer for the next request."""
        self.service.obs.tracer.enabled = traced

    def run_op(self, op: Any, spans: SpanRecorder) -> Tuple[Any, int, int]:
        """Send request ``op``; return ``(answer, op_ns, tokens)``."""
        raise NotImplementedError

    def check(self, checker: Checker, op: Any, answer: Any) -> None:
        """Compare the answer to request ``op`` with its reference."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """Counters read before and after each round."""
        raise NotImplementedError

    def layer_metrics(self, delta: Dict[str, Any], spans: SpanRecorder,
                      tokens: int) -> Dict[str, float]:
        """The workload's own per-layer metrics over the timed requests."""
        return {}

    def peak_rss(self) -> int:
        """Peak resident bytes of the processes serving the workload."""
        return peak_rss_bytes()

