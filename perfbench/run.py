"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload heldout-docs --seed 1 --seconds 15 --trace 0

A run is the workload's ``rounds`` rounds.  Each round sets up cold from
fresh grammar objects, after collecting garbage (several times when set-up
is short), collects garbage again and then sends the round's requests, one
at a time; the round's service is torn down at its end.  Every round
starts from the same heap state, so every set-up does the same work in the
same surroundings; the rounds carry different seeded inputs, so a run
covers more content than one round could.  Between requests the runner
samples the machine's speed (speed.py), and every timing is scaled to the
reference speed by its round's samples.  Set-up and latency are order
statistics over every sample of the run; throughput is the median over the
rounds of each round's tokens per second.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a traced run, in which a seeded half of the requests
is traced (the benchmark's spans plus the program's own request tracer) and
the untraced half gives ``obs.trace_overhead_frac``.  The spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl`` when the run ends.  Every
answer is checked against an independent reference; any mismatch, or a
set-up whose work counts differ from the first set-up's (a set-up that was
not cold), makes the run exit non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

from common import (
    WORK_DIR, Checker, SpanRecorder, add_counts, counter_delta, median, quantile, ratio,
    reset_peak_rss, rss_bytes,
)
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Within a round, set-up repeats until it has taken ROUND_MIN_S, so a short
#: set-up gets many samples; ``setup_s`` is the median over every set-up of
#: the run, each scaled by its round's speed factor.
ROUND_MIN_S = 0.3
#: String hashes are salted per process unless PYTHONHASHSEED is set, so set
#: and dict layouts, and with them the timings, differ between runs of the
#: same work.  Run as a script, the runner restarts itself with this one
#: unless it already has it (the self-tests call ``main`` under other values).
HASH_SEED = "0"

#: Span name -> layer, for the per-layer self times.
SPAN_LAYERS = {
    "table_for": "serve", "fingerprint": "serve", "table": "serve",
    "recognize_many": "serve", "enumerate_many": "serve", "sample_many": "serve",
    "recognize": "compile", "recognize_with_stats": "compile",
    "pool_recognize_many": "pool", "prepare": "pool", "dispatch": "pool", "worker": "pool",
    "apply_edit": "incremental", "session_edit": "incremental", "rewind": "incremental",
    "replay": "incremental", "splice": "incremental", "accepts": "incremental",
    "tree": "incremental",
    "forest": "forest", "rank": "forest", "sample": "forest", "parse_forest": "forest",
    "count": "forest",
}
SELF_TIME_LAYERS = ("serve", "compile", "pool", "incremental", "forest")
#: Units of the metrics that are timings, and so are scaled to the reference speed.
TIME_UNITS = ("s", "ms", "us")


def workloads() -> Dict[str, Any]:
    """The workload classes, by name."""
    from edits import EditSession
    from forests import AmbiguousForests
    from heldout import HeldoutDocs
    from replay import ReplayPool

    return {cls.name: cls for cls in (HeldoutDocs, ReplayPool, EditSession, AmbiguousForests)}


def declared(kind: str) -> Dict[str, str]:
    """The ``kind`` metrics ``BENCHMARK.json`` declares, name -> unit, in order."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class Run:
    """One run: rounds of cold set-ups and timed requests."""

    def __init__(self, workload: Any, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        workload.traced_run = trace
        self.counts: List[Any] = []
        self.spans = SpanRecorder()
        #: Picks the traced half of the requests.  A fixed pattern such as
        #: every other request would line up with the workloads' own
        #: patterns (an edit block's splice, a corrupted document).
        self.coin = random.Random(0)
        self.answers: List[Any] = []
        #: Per round: set-up times (s), request latencies (ns) and tokens.
        self.setup_s: List[List[float]] = []
        self.latencies: List[List[int]] = []
        self.tokens: List[int] = []
        self.traced_ns: List[int] = []
        self.untraced_ns: List[int] = []
        self.delta: Dict[str, Any] = {}
        self.retained = 0
        self.peaks: List[int] = []
        self.speed = SpeedProbe()

    def cold_setups(self) -> None:
        """Cold set-ups until ROUND_MIN_S has passed; the last one stays live."""
        workload = self.workload
        setups = self.setup_s[-1]
        while True:
            workload.teardown()
            gc.collect()
            started = perf_counter()
            self.counts.append(workload.setup())
            setups.append(perf_counter() - started)
            self.speed.tick()
            if self.counts[-1] != self.counts[0]:
                raise RuntimeError("set-up is not cold: the first set-up did {}, a later "
                                   "one {}".format(self.counts[0], self.counts[-1]))
            if sum(setups) >= ROUND_MIN_S:
                return

    def execute(self) -> None:
        """Every round: cold set-ups, then the round's requests."""
        workload, spans, speed = self.workload, self.spans, self.speed
        for round_ops in workload.plan:
            speed.start_round()
            self.setup_s.append([])
            self.latencies.append([])
            self.tokens.append(0)
            reset_peak_rss()
            self.cold_setups()
            before = workload.snapshot()
            gc.collect()
            rss_before = rss_bytes()
            for op in round_ops:
                traced = self.trace and self.coin.random() < 0.5
                spans.active = traced
                workload.set_traced(traced)
                answer, op_ns, op_tokens = workload.run_op(op, spans)
                speed.tick()
                self.answers.append((op, answer))
                self.latencies[-1].append(op_ns)
                (self.traced_ns if traced else self.untraced_ns).append(op_ns)
                self.tokens[-1] += op_tokens
            spans.active = False
            workload.set_traced(False)
            gc.collect()
            self.retained += rss_bytes() - rss_before
            self.delta = add_counts(self.delta, counter_delta(workload.snapshot(), before))
            self.peaks.append(workload.peak_rss())
            workload.teardown()

    def end_to_end(self, checker: Checker) -> Dict[str, Any]:
        """The end-to-end metrics of an untraced run.

        Every timing is scaled by its round's speed factor (speed.py).  Set-up
        and latency quantiles are then taken over every sample of the run, so
        every seed's quantiles cover the same mix of requests; throughput is
        taken per round and the median over the rounds reported, so a stall
        in a few rounds does not move it.
        """
        scales = [self.speed.scale(i) for i in range(len(self.tokens))]
        latencies = [ns * scale for ops, scale in zip(self.latencies, scales) for ns in ops]
        return {
            "setup_s": median([s * scale for setups, scale in zip(self.setup_s, scales)
                               for s in setups]),
            "tok_per_s": median([tokens / (sum(ops) * scale / 1e9) for tokens, ops, scale
                                 in zip(self.tokens, self.latencies, scales)]),
            "op_ms_p50": quantile(latencies, 0.5) / 1e6,
            "op_ms_p90": quantile(latencies, 0.9) / 1e6,
            "peak_rss_mb": median(self.peaks) / 2**20,
            "ok_frac": ratio(checker.attempted - checker.failed, checker.attempted),
        }

    def per_layer(self, units: Dict[str, str]) -> Dict[str, Any]:
        """The per-layer metrics of a traced run; writes the span dump.

        Timings (the metrics in ``units`` whose unit is a time) are scaled by
        the run's speed factor; ``machine.ref_loop_ms`` is the factor's
        unscaled reading.
        """
        workload, spans = self.workload, self.spans
        tokens = sum(self.tokens)
        layers = counter_metrics(self.delta, tokens)
        layers.update(workload.layer_metrics(self.delta, spans, tokens))
        layers["serve.retained_b_per_tok"] = self.retained / tokens
        layers["compile.build_ms"] = build_ms(workload)
        layers["obs.trace_overhead_frac"] = (
            quantile(self.traced_ns, 0.5) / quantile(self.untraced_ns, 0.5) - 1)
        self_ns = dict.fromkeys(SELF_TIME_LAYERS, 0)
        for name, total in spans.self_times().items():
            if name in SPAN_LAYERS:
                self_ns[SPAN_LAYERS[name]] += total
        for layer, total in self_ns.items():
            layers[layer + ".self_ms_per_op"] = total / 1e6 / len(self.traced_ns)
        scale = self.speed.run_scale()
        for name, value in layers.items():
            if units.get(name) in TIME_UNITS:
                layers[name] = value * scale
        layers["machine.ref_loop_ms"] = self.speed.loop_ms()
        spans.dump(WORK_DIR / "spans-{}-{}.jsonl".format(workload.name, workload.seed))
        return layers


def counter_metrics(delta: Dict[str, Any], tokens: int) -> Dict[str, float]:
    """Per-token engine work, table growth and routing over the timed requests."""
    metrics: Dict[str, float] = {}
    if "states" in delta:
        metrics["compile.states_per_ktok"] = delta["states"] / tokens * 1e3
        metrics["compile.memo_entries_per_ktok"] = delta["memo_entries"] / tokens * 1e3
    metrics["compile.dense_hit_frac"] = ratio(
        delta["dense_hits"], delta["dense_hits"] + delta["dense_fallbacks"])
    metrics["serve.table_hit_rate"] = ratio(
        delta["table_hits"], delta["table_hits"] + delta["table_misses"])
    engine = delta["engine"]
    metrics.update({
        "core.derive_uncached_per_tok": engine["derive_uncached"] / tokens,
        "core.derive_hit_frac": ratio(engine["derive_cache_hits"], engine["derive_calls"]),
        "core.nodes_created_per_tok": engine["nodes_created"] / tokens,
        "core.fixpoint_evals_per_tok": engine["fixpoint_node_evaluations"] / tokens,
        "core.compaction_rewrites_per_tok": engine["compaction_rewrites"] / tokens,
        "core.hash_cons_hit_frac": ratio(
            engine["hash_cons_hits"], engine["hash_cons_hits"] + engine["hash_cons_misses"]),
    })
    return metrics


def build_ms(workload: Any, repeats: int = 5) -> float:
    """Median time to compile the workload's grammars from fresh objects."""
    from repro.compile import compile_grammar

    samples = []
    for _ in range(repeats):
        grammars = [factory() for factory in workload.grammar_factories.values()]
        gc.collect()
        started = perf_counter()
        for grammar in grammars:
            compile_grammar(grammar)
        samples.append((perf_counter() - started) * 1e3)
    return median(samples)


def main(argv: List[str]) -> int:
    """Parse the arguments, run one workload and print its report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at {}".format(SRC), file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    known = workloads()
    if args.workload not in known:
        print("perfbench: unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(sorted(known))), file=sys.stderr)
        return 2
    workload = known[args.workload](args.seed, args.seconds)
    run = Run(workload, bool(args.trace))
    checker = Checker()
    try:
        run.execute()
    finally:
        workload.teardown()
    for op, answer in run.answers:
        workload.check(checker, op, answer)
    units = declared("per_layer" if run.trace else "end_to_end")
    metrics = run.per_layer(units) if run.trace else run.end_to_end(checker)
    for line in checker.mismatches:
        print("mismatch: " + line, file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main(sys.argv[1:]))
