"""``heldout-docs``: documents the table has never seen, one request each.

Each round sets up a fresh ``ParseService(workers=1)``, warms it on fixed
PL/0 and JSON documents whose generator seeds are disjoint from the timed
ones (odd seeds warm, even ones are timed), and then sends it one
``recognize_many`` request per timed document of the round.  The timed
documents are fixed, so every seed serves the same content (per-document
cost spans about 3x with content, and a seed's own documents moved
``op_ms_p90`` by 18% from seed to seed); ``--seed`` deals them to the
rounds, so each round's table sees its own documents in its own order, and
picks the corrupted tokens.  A round interleaves PL/0 and JSON in a seeded
order, so both tables stay cached, with the same counts per language and
length in every round; one document in eight has one token replaced by a
token of another kind.  Every answer is checked against the
GLR parser, whose verdicts are computed before anything is timed.

In the traced run each round also feeds every document, after its request,
to a ``CompiledParser`` of its own that was warmed the same way, so the
compile layer's ``recognize_with_stats`` is timed through its public call
on the same sequence of tables the service walks.
"""

from __future__ import annotations

import random
from time import perf_counter_ns
from typing import Any, Dict, Iterable, List, NamedTuple, Tuple

from common import (
    Checker, SpanRecorder, Workload, median, program_stages, quantile,
)
from repro.cfg.bnf import parse_bnf
from repro.compile import CompiledParser
from repro.glr import GLRParser
from repro.grammars import PL0_GRAMMAR_TEXT, json_grammar
from repro.lexer.tokens import Tok
from repro.obs import Observer
from repro.serve import ParseService
from repro.workloads import json_document_tokens, pl0_tokens


def fresh_pl0() -> Any:
    """A new PL/0 grammar object (``pl0_grammar()`` returns a shared one)."""
    return parse_bnf(PL0_GRAMMAR_TEXT)


#: Per language: document generator and the kinds a corruption may insert.
LANGUAGES = {
    "pl0": (pl0_tokens, ("begin", "end", ";", ":=", "(", ")", ".", "NUMBER", "if", "do")),
    "json": (json_document_tokens, ("{", "}", "[", "]", ",", ":", "STRING", "NUMBER")),
}
GRAMMARS = {"pl0": fresh_pl0, "json": json_grammar}

#: Timed documents per second of ``--seconds``, and their target lengths.
DOCS_PER_SECOND = 11
LENGTHS = (80, 100, 120, 140, 160)
#: Every CORRUPT_EVERY-th timed document of a round carries one corrupted token.
CORRUPT_EVERY = 8
#: Warm-up documents per language (each set-up recognizes these cold).
WARM_DOCS = 2
WARM_LENGTH = 120


class Doc(NamedTuple):
    """One timed document and GLR's verdict on it."""

    language: str
    tokens: List[Tok]
    expected: bool


def corrupt(tokens: List[Tok], language: str, rng: random.Random) -> List[Tok]:
    """Replace one token by a token of a different kind (seeded)."""
    kinds = LANGUAGES[language][1]
    position = rng.randrange(len(tokens))
    original = tokens[position].kind
    kind = rng.choice([kind for kind in kinds if kind != original])
    value = {"NUMBER": "7", "STRING": '"x"'}.get(kind, kind)
    return tokens[:position] + [Tok(kind, value)] + tokens[position + 1:]


class HeldoutDocs(Workload):
    """The ``heldout-docs`` workload."""
    name = "heldout-docs"
    grammar_factories = GRAMMARS
    rounds = 8

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        oracles = {language: GLRParser(factory()) for language, factory in GRAMMARS.items()}
        # Every round serves one document per slot: the same counts per
        # language and length.  The documents are fixed, so every seed serves
        # the same content; ``--seed`` deals each slot's documents to the
        # rounds, orders every round and picks the corrupted tokens.
        per_round = max(2, DOCS_PER_SECOND * seconds // self.rounds // 2 * 2)
        slots = [(language, LENGTHS[i % len(LENGTHS)])
                 for i, language in enumerate(["pl0", "json"] * (per_round // 2))]
        dealt = []
        for slot, (language, length) in enumerate(slots):
            docs = [LANGUAGES[language][0](length, seed=2 * (slot * self.rounds + r))
                    for r in range(self.rounds)]
            rng.shuffle(docs)
            dealt.append(docs)
        for round_index in range(self.rounds):
            order = list(range(len(slots)))
            rng.shuffle(order)
            docs = []
            for index, slot in enumerate(order):
                language = slots[slot][0]
                tokens = dealt[slot][round_index]
                if index % CORRUPT_EVERY == CORRUPT_EVERY // 2:
                    tokens = corrupt(tokens, language, rng)
                docs.append(Doc(language, tokens, oracles[language].recognize(tokens)))
            self.plan.append(docs)
        self.warm = {
            language: [generate(WARM_LENGTH, seed=2 * index + 1) for index in range(WARM_DOCS)]
            for language, (generate, _kinds) in LANGUAGES.items()
        }
        self.mirror: Dict[str, CompiledParser] = {}

    def setup(self) -> Dict[str, Any]:
        """A fresh service and grammars, warmed on the fixed warm-up documents."""
        self.service = ParseService(workers=1, observer=Observer(tracing=False))
        self.grammars = {language: factory() for language, factory in GRAMMARS.items()}
        for language, grammar in self.grammars.items():
            self.service.recognize_many(grammar, self.warm[language])
        if self.traced_run:
            self.mirror = {language: CompiledParser(factory())
                           for language, factory in GRAMMARS.items()}
            for language, parser in self.mirror.items():
                for tokens in self.warm[language]:
                    parser.recognize_with_stats(tokens)
        return {
            "derive_uncached": self.service.stats()["engine"]["derive_uncached"],
            "states": {language: self.service.table_for(grammar).table.stats()["states"]
                       for language, grammar in self.grammars.items()},
        }

    def teardown(self) -> None:
        """Close the service and drop the compile-layer parsers."""
        super().teardown()
        self.mirror = {}

    def run_op(self, op: Doc, spans: SpanRecorder) -> Tuple[Any, int, int]:
        """Recognize one document in one ``recognize_many`` request."""
        grammar = self.grammars[op.language]
        mirrored = None
        with spans.request("request"):
            with spans.span("table_for"):
                self.service.table_for(grammar)
            with spans.span("recognize_many") as span:
                started = perf_counter_ns()
                answer = self.service.recognize_many(grammar, [op.tokens])
                elapsed = perf_counter_ns() - started
            if span is not None:
                spans.adopt(span.span_id, program_stages(self.service.obs.tracer))
            if self.mirror:
                with spans.span("recognize_with_stats"):
                    mirrored = self.mirror[op.language].recognize_with_stats(op.tokens)[0]
        return (answer, mirrored), elapsed, len(op.tokens)

    def check(self, checker: Checker, op: Doc, answer: Any) -> None:
        """Compare the service's (and the compile layer's) verdict with GLR's."""
        served, mirrored = answer
        ok = served == [op.expected] and mirrored in (None, op.expected)
        checker.check(ok, "{} document of {} tokens: got {}, GLR says {}".format(
            op.language, len(op.tokens), answer, op.expected))

    def snapshot(self) -> Dict[str, Any]:
        """Engine, table-cache and table counters of the service."""
        return service_snapshot(self.service, self.grammars.values())

    def layer_metrics(self, delta: Dict[str, Any], spans: SpanRecorder,
                      tokens: int) -> Dict[str, float]:
        """Compile-layer recognition, serve overhead and table lookup times.

        The serve overhead is a traced request's time minus the program's
        own ``recognize`` stage inside it (the engine's share).
        """
        engine_ns = {parent: end - start for _r, _i, parent, name, start, end in spans.spans
                     if name == "recognize"}
        overheads = [(end - start) - engine_ns[span_id]
                     for _r, span_id, _p, name, start, end in spans.spans
                     if name == "recognize_many"]
        return {
            "compile.recognize_ms_p50": median(spans.durations("recognize_with_stats")) / 1e6,
            "serve.overhead_ms_p50": quantile(overheads, 0.5) / 1e6,
            "serve.table_for_us": median(spans.durations("table_for")) / 1e3,
        }


def service_snapshot(service: ParseService, grammars: Iterable[Any]) -> Dict[str, Any]:
    """Engine counters, table-cache counters and the tables' size and routing."""
    stats = service.stats()
    tables = [service.table_for(grammar).table.stats() for grammar in grammars]
    snapshot = {"engine": stats["engine"],
                "table_hits": stats["service"]["table_hits"],
                "table_misses": stats["service"]["table_misses"]}
    for key in ("states", "memo_entries", "dense_hits", "dense_fallbacks"):
        snapshot[key] = sum(table[key] for table in tables)
    return snapshot
