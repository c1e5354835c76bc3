"""``ambiguous-forests``: top-k, samples and exact counts over ambiguous forests.

Each round's ``ParseService(workers=1)`` answers ``enumerate_many`` (top-k under the
``"size"`` ranking, which also returns the forest's exact derivation
count) and ``sample_many`` requests over the Catalan grammar
``S → S S | a`` and the dangling-else grammar at a few fixed sizes.
Recognition is trivial here; the time is forest construction and the
forest queries.  References: the closed-form counts, a non-decreasing
ranking score and a correct yield for every ranked tree, and for samples a
byte-for-byte replay of the same seed through ``ForestQuery`` directly.
"""

from __future__ import annotations

import pickle
import random
from time import perf_counter_ns
from typing import Any, Dict, List, NamedTuple, Tuple

from common import Checker, SpanRecorder, Workload, median, program_stages
from heldout import service_snapshot
from edits import leaves
from repro import DerivativeParser
from repro.core.forest import ForestAmb, ForestMap, ForestPair, ForestRef
from repro.core.forest_query import ForestQuery
from repro.grammars import catalan_grammar, dangling_else_grammar
from repro.obs import Observer
from repro.serve import ParseService
from repro.workloads import (
    catalan_count,
    catalan_tokens,
    dangling_else_count,
    dangling_else_tokens,
)

GRAMMARS = {"catalan": catalan_grammar, "dangling": dangling_else_grammar}
#: (grammar, size, request kind, weight): the request mix, by weight.
MIX = (
    ("catalan", 8, "enumerate", 2),
    ("catalan", 8, "sample", 2),
    ("catalan", 12, "enumerate", 3),
    ("catalan", 12, "sample", 3),
    ("dangling", 8, "enumerate", 2),
    ("dangling", 8, "sample", 2),
    ("dangling", 24, "enumerate", 3),
    ("dangling", 24, "sample", 3),
)
TOP_K = 8
SAMPLES = 8
#: Distinct sample seeds per run (sample references are computed per seed).
SAMPLE_SEEDS = 4
#: Requests per second of ``--seconds``.
OPS_PER_SECOND = 90
#: Input size of the set-up's warm-up requests.
WARM_SIZE = 4

INPUTS = {
    "catalan": (catalan_tokens, catalan_count),
    "dangling": (dangling_else_tokens, dangling_else_count),
}


def tree_size(tree: Any) -> int:
    """Node count of a ``(label, children)`` tree."""
    size, stack = 0, [tree]
    while stack:
        node = stack.pop()
        size += 1
        if isinstance(node, tuple) and len(node) == 2 and isinstance(node[1], tuple):
            stack.extend(node[1])
    return size


def forest_nodes(root: Any) -> int:
    """Distinct nodes of a shared parse forest."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ForestPair):
            stack.extend((node.left, node.right))
        elif isinstance(node, ForestMap):
            stack.append(node.child)
        elif isinstance(node, ForestAmb):
            stack.extend(node.alternatives)
        elif isinstance(node, ForestRef) and node.target is not None:
            stack.append(node.target)
    return len(seen)


class Request(NamedTuple):
    """One top-k (``enumerate``) or ``sample`` request."""

    grammar: str
    size: int
    kind: str
    sample_seed: int


class AmbiguousForests(Workload):
    """The ``ambiguous-forests`` workload."""
    name = "ambiguous-forests"
    grammar_factories = GRAMMARS

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        seeds = [rng.randrange(1 << 30) for _ in range(SAMPLE_SEEDS)]
        cycle = [entry[:3] for entry in MIX for _ in range(entry[3])]
        # Each round is whole shuffled blocks of the weighted mix, so every
        # round serves the same mix.
        blocks = max(1, OPS_PER_SECOND * seconds // self.rounds // len(cycle))
        for _ in range(self.rounds):
            requests: List[Request] = []
            for _ in range(blocks):
                block = list(cycle)
                rng.shuffle(block)
                requests.extend(Request(grammar, size, kind, rng.choice(seeds))
                                for grammar, size, kind in block)
            self.plan.append(requests)
        # Sample references: the same seed replayed through ForestQuery on a
        # forest from a separate parser, outside every timed span.
        self.samples: Dict[Tuple[str, int, int], bytes] = {}
        parsers = {grammar: DerivativeParser(factory()) for grammar, factory in GRAMMARS.items()}
        for grammar, size, kind, sample_seed in (op for ops in self.plan for op in ops):
            key = (grammar, size, sample_seed)
            if kind == "sample" and key not in self.samples:
                forest = parsers[grammar].parse_forest(INPUTS[grammar][0](size))
                trees = ForestQuery(forest).sample_n(sample_seed, SAMPLES)
                self.samples[key] = pickle.dumps(trees)
                parsers[grammar].reset()
        # Core-API parsers for the forest layer's own spans (traced requests).
        self.parsers: Dict[str, Any] = {}
        self.forest_nodes = self.forest_tokens = 0

    def setup(self) -> Dict[str, Any]:
        """A fresh service and grammars, warmed with one request of each kind."""
        self.service = ParseService(workers=1, observer=Observer(tracing=False))
        self.grammars = {grammar: factory() for grammar, factory in GRAMMARS.items()}
        for name, grammar in self.grammars.items():
            tokens = INPUTS[name][0](WARM_SIZE)
            self.service.enumerate_many(grammar, [tokens], k=TOP_K, ranking="size")
            self.service.sample_many(grammar, [tokens], n=SAMPLES)
        engine = self.service.stats()["engine"]
        return {"derive_uncached": engine["derive_uncached"],
                "nodes_created": engine["nodes_created"]}

    def run_op(self, op: Request, spans: SpanRecorder) -> Tuple[Any, int, int]:
        """Send one top-k or sampling request for one input."""
        grammar_name, size, kind, sample_seed = op
        tokens = INPUTS[grammar_name][0](size)
        grammar = self.grammars[grammar_name]
        with spans.request("request"):
            if spans.active:
                self.measure_forest(grammar_name, tokens, spans)
            name = "enumerate_many" if kind == "enumerate" else "sample_many"
            with spans.span(name) as op:
                started = perf_counter_ns()
                if kind == "enumerate":
                    outcome = self.service.enumerate_many(
                        grammar, [tokens], k=TOP_K, ranking="size")[0]
                else:
                    outcome = self.service.sample_many(
                        grammar, [tokens], n=SAMPLES, seed=sample_seed)[0]
                elapsed = perf_counter_ns() - started
            if op is not None:
                spans.adopt(op.span_id, program_stages(self.service.obs.tracer))
        return outcome, elapsed, len(tokens)

    def measure_forest(self, grammar: str, tokens: List[Any], spans: SpanRecorder) -> None:
        """Forest build and exact count through the core API (traced requests)."""
        parser = self.parsers.get(grammar)
        if parser is None:
            parser = self.parsers[grammar] = DerivativeParser(GRAMMARS[grammar]())
        with spans.span("parse_forest"):
            forest = parser.parse_forest(tokens)
        with spans.span("count"):
            ForestQuery(forest).count
        self.forest_nodes += forest_nodes(forest)
        self.forest_tokens += len(tokens)
        parser.reset()

    def check(self, checker: Checker, op: Request, outcome: Any) -> None:
        """Compare count, ranking, yields and samples with the references."""
        grammar, size, kind, sample_seed = op
        generate, closed_form = INPUTS[grammar]
        tokens = [token.value for token in generate(size)]
        count = closed_form(size)
        ok = outcome.ok and outcome.count == count
        if kind == "enumerate":
            sizes = [tree_size(tree) for tree in outcome.trees]
            ok = (ok and len(outcome.trees) == min(TOP_K, count)
                  and sizes == sorted(sizes)
                  and len({pickle.dumps(tree) for tree in outcome.trees}) == len(sizes)
                  and all(leaves(tree) == tokens for tree in outcome.trees))
        else:
            replay = self.samples[(grammar, size, sample_seed)]
            ok = (ok and pickle.dumps(outcome.trees) == replay
                  and all(leaves(tree) == tokens for tree in outcome.trees))
        checker.check(ok, "{} {} {}: count {} vs {}".format(
            kind, grammar, size, outcome.count, count))

    def snapshot(self) -> Dict[str, Any]:
        """Engine, table-cache and table counters of the service."""
        return service_snapshot(self.service, self.grammars.values())

    def layer_metrics(self, delta: Dict[str, Any], spans: SpanRecorder,
                      tokens: int) -> Dict[str, float]:
        """Forest size per token and the forest stages' times."""
        def p50_ms(name: str) -> float:
            """Median duration of the spans called ``name``, in ms."""
            samples = spans.durations(name)
            return median(samples) / 1e6 if samples else 0.0

        return {
            "forest.nodes_per_tok": self.forest_nodes / self.forest_tokens,
            "forest.build_ms_p50": p50_ms("forest"),
            "forest.count_ms_p50": p50_ms("count"),
            "forest.topk_ms_p50": p50_ms("rank"),
            "forest.sample_ms_p50": p50_ms("sample"),
        }
