"""``replay-pool``: fixed batches replayed through a two-process pool.

Each round's set-up spawns ``PooledParseService(workers=2)`` over a table
store of its own and sends every batch once, so the workers' tables have
seen each stream.  The round then replays the same batches — PL/0 and JSON
batches in an order ``--seed`` shuffles, each a ``PreparedBatch`` (the
batches themselves are fixed) — so every token should ride a dense
transition row, and the time goes to the dispatcher's encoding, the pipes
and the workers' dispatch.  One stream per batch is corrupted, so answers
are not all True; each is checked against the GLR parser.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from time import perf_counter_ns
from typing import Any, Dict, List, Tuple

from common import (
    WORK_DIR, Checker, SpanRecorder, Workload, median, peak_rss_bytes,
    program_stages, quantile,
)
from heldout import GRAMMARS, LANGUAGES, corrupt
from repro.glr import GLRParser
from repro.obs import Observer
from repro.serve import PooledParseService

WORKERS = 2
#: The batches' languages: PL/0, the main language, carries three in four.
BATCH_LANGUAGES = ("pl0", "pl0", "pl0", "json")
#: Each batch holds COPIES copies of DISTINCT streams of LENGTH tokens, so a
#: request carries enough tokens to average out scheduling jitter while
#: set-up only derives the distinct streams.
DISTINCT = 3
COPIES = 32
LENGTH = 80
#: Timed requests per second of ``--seconds``.
OPS_PER_SECOND = 300
BATCH_SEED = 0


class ReplayPool(Workload):
    """The ``replay-pool`` workload."""
    name = "replay-pool"
    grammar_factories = GRAMMARS
    #: A round's fresh pool lands on the CPUs well or badly (round medians of
    #: 0.85 to 1.56 ms in one run), so a run averages over ten placements.
    rounds = 10

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed)
        # The batches are fixed; ``--seed`` picks the order they are replayed in.
        rng = random.Random(BATCH_SEED)
        oracles = {language: GLRParser(factory()) for language, factory in GRAMMARS.items()}
        self.batches: List[Tuple[str, List[Any]]] = []
        self.expected: List[List[bool]] = []
        for language in BATCH_LANGUAGES:
            generate = LANGUAGES[language][0]
            streams = [generate(LENGTH, seed=rng.randrange(1 << 30)) for _ in range(DISTINCT)]
            streams[0] = corrupt(streams[0], language, rng)
            self.batches.append((language, streams * COPIES))
            self.expected.append([oracles[language].recognize(s) for s in streams] * COPIES)
        # Every round replays each batch equally often, in its own order.
        order_rng = random.Random(seed)
        per_round = max(1, OPS_PER_SECOND * seconds // self.rounds // len(self.batches))
        for _ in range(self.rounds):
            order = list(range(len(self.batches))) * per_round
            order_rng.shuffle(order)
            self.plan.append(order)
        self.store = ""

    def setup(self) -> Dict[str, Any]:
        """A fresh pool over a fresh table store, sent every batch once."""
        # A fresh store per set-up: a store left by an earlier set-up would
        # warm-start the workers and the set-up would not be cold.
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.store = tempfile.mkdtemp(prefix="store-", dir=str(WORK_DIR))
        self.service = PooledParseService(
            workers=WORKERS, replication=WORKERS, store=self.store,
            observer=Observer(tracing=False))
        self.grammars = {language: factory() for language, factory in GRAMMARS.items()}
        self.prepared = []
        for language, streams in self.batches:
            prepared = self.service.prepare(self.grammars[language], streams)
            self.service.recognize_many(self.grammars[language], prepared)
            self.prepared.append(prepared)
        # A round trip to every worker: set-up ends only after the workers
        # have finished persisting the tables the warm-up built.
        stats = self.service.stats()
        return {"derive_uncached": stats["engine"]["derive_uncached"],
                "dense_fallbacks": stats["service"]["dense_fallbacks"]}

    def teardown(self) -> None:
        """Close the pool and remove its table store."""
        if self.service is not None:
            super().teardown()
            shutil.rmtree(self.store, ignore_errors=True)

    def run_op(self, batch: int, spans: SpanRecorder) -> Tuple[Any, int, int]:
        """Replay batch number ``batch`` through the pool."""
        language, streams = self.batches[batch]
        grammar = self.grammars[language]
        with spans.request("request"):
            with spans.span("prepare"):
                if spans.active:
                    self.service.prepare(grammar, streams)
            with spans.span("pool_recognize_many") as op:
                started = perf_counter_ns()
                answer = self.service.recognize_many(grammar, self.prepared[batch])
                elapsed = perf_counter_ns() - started
            if op is not None:
                spans.adopt(op.span_id, program_stages(self.service.obs.tracer))
        return answer, elapsed, sum(len(stream) for stream in streams)

    def check(self, checker: Checker, batch: int, answer: Any) -> None:
        """Compare a batch's verdicts with GLR's."""
        checker.check(answer == self.expected[batch], "batch {}: got {}, GLR says {}".format(
            batch, answer, self.expected[batch]))

    def snapshot(self) -> Dict[str, Any]:
        """Fleet-wide engine and service counters, and the worker latency p50."""
        stats = self.service.stats()
        snapshot = {key: stats["service"][key] for key in (
            "table_hits", "table_misses", "dense_hits", "dense_fallbacks", "pool_retries")}
        worker = stats["latency"].get("worker_request_latency_ns", {})
        snapshot.update(engine=stats["engine"], worker_p50_ns=[worker.get("p50", 0)])
        return snapshot

    def layer_metrics(self, delta: Dict[str, Any], spans: SpanRecorder,
                      tokens: int) -> Dict[str, float]:
        """Prepare, worker and IPC times and retries of the traced requests."""
        worker_ns: Dict[int, int] = {}
        for _r, _i, parent, name, start, end in spans.spans:
            if name == "worker":
                worker_ns[parent] = max(worker_ns.get(parent, 0), end - start)
        ipc = [(end - start) - worker_ns.get(span_id, 0)
               for _r, span_id, _p, name, start, end in spans.spans
               if name == "pool_recognize_many"]
        return {
            "pool.prepare_ms_p50": median(spans.durations("prepare")) / 1e6,
            "pool.worker_ms_p50": median(delta["worker_p50_ns"]) / 1e6,
            "pool.ipc_ms_p50": quantile(ipc, 0.5) / 1e6,
            "pool.retries": delta["pool_retries"],
        }

    def peak_rss(self) -> int:
        """Dispatcher plus every live worker."""
        return peak_rss_bytes() + sum(
            peak_rss_bytes(pid) for pid in self.service.worker_pids() if pid is not None)
