"""``edit-session``: a seeded edit script against one open PL/0 session.

Each round's set-up opens a ``ParseService`` session over a long PL/0
document and feeds it.  The round then replays an edit script of its own,
made of

* same-kind value edits (a new NUMBER, a renamed IDENT), which splice back
  into the old parse at once, and
* structural splices — a short span replaced by tokens drawn from the
  document itself, chosen so that the parse breaks — each undone two
  edits later.

Every edit is followed by ``accepts()``; every ``TREE_EVERY``-th also by
``tree()``.  References come from applying the script to a plain list
(``apply_edits``) and asking the GLR parser about each buffer; the Earley
parser locates the failure in each buffer GLR rejects.
"""

from __future__ import annotations

import random
from time import perf_counter_ns
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from common import Checker, SpanRecorder, Workload, median, program_stages, quantile
from heldout import fresh_pl0, service_snapshot
from repro.core.errors import ParseError
from repro.earley import EarleyParser
from repro.glr import GLRParser
from repro.obs import Observer
from repro.serve import ParseService
from repro.workloads import Edit, apply_edits, pl0_tokens, value_edit_at

DOC_LENGTH = 300
DOC_SEED = 0
#: Edits per second of ``--seconds``.
EDITS_PER_SECOND = 120
#: The script is made of blocks of BLOCK edits: a structural splice first,
#: its undo at UNDO_AT, value edits in between and after.  A splice costs
#: 0.5-3 ms, an undo about 0.15 ms and a value edit about 0.05 ms, so with
#: one splice in six ``op_ms_p90`` falls inside the splices and ``op_ms_p50``
#: inside the value edits, not on a boundary between two kinds of edit.
BLOCK = 6
UNDO_AT = 2
#: Splice positions cycle through this many slices of the document.
STRATA = 8
#: Every TREE_EVERY-th edit (the last of a block: the buffer parses) is
#: also followed by ``tree()``.  A ``tree()`` after an edit re-parses the
#: whole buffer (about 0.9 s), so it is kept rare.
TREE_EVERY = 120


class Step(NamedTuple):
    """One scripted edit, the buffer it leaves and the reference verdict on it."""

    edit: Edit
    buffer: Tuple[Any, ...]
    expected: Tuple[bool, Optional[int]]
    want_tree: bool


def leaves(tree: Any) -> List[Any]:
    """The leaf values of a ``(label, children)`` tree, left to right."""
    out: List[Any] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple) and len(node) == 2 and isinstance(node[1], tuple):
            stack.extend(reversed(node[1]))
        else:
            out.append(node)
    return out


def reference_verdict(
    glr: GLRParser, earley: EarleyParser, tokens: List[Any]
) -> Tuple[bool, Optional[int]]:
    """``(accepted, failure position)``: GLR decides, Earley locates the failure."""
    if glr.recognize(tokens):
        return True, None
    try:
        earley.parse(tokens)
    except ParseError as error:
        return False, error.position
    raise RuntimeError("GLR rejects a buffer that Earley parses")


class EditSession(Workload):
    """The ``edit-session`` workload."""
    name = "edit-session"
    grammar_factories = {"pl0": fresh_pl0}
    rounds = 15

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed)
        # The document is fixed; ``--seed`` picks the edit scripts, one per
        # round, each starting from the document.
        rng = random.Random(seed)
        self.document = pl0_tokens(DOC_LENGTH, seed=DOC_SEED)
        grammar = fresh_pl0()
        glr, earley = GLRParser(grammar), EarleyParser(grammar)
        # Reference verdicts, memoized by kind sequence (both parsers read
        # only kinds).
        verdicts: Dict[Tuple[str, ...], Tuple[bool, Optional[int]]] = {}
        #: Per timed edit: tokens re-fed, and whether it spliced back in.
        self.refed: List[int] = []
        self.spliced: List[bool] = []
        blocks = max(1, EDITS_PER_SECOND * seconds // self.rounds // BLOCK)
        for _ in range(self.rounds):
            buffer = list(self.document)
            steps: List[Step] = []
            for block in range(blocks):
                splice = self.splice(buffer, rng, glr, stratum=block % STRATA)
                undo = Edit(splice.start, splice.start + len(splice.tokens),
                            buffer[splice.start:splice.end])
                for position in range(BLOCK):
                    if position == 0:
                        edit = splice
                    elif position == UNDO_AT:
                        edit = undo
                    else:
                        edit = value_edit_at(buffer, rng.randrange(len(buffer)),
                                             seed=rng.randrange(1 << 30))
                    buffer = apply_edits(buffer, [edit])
                    kinds = tuple(token.kind for token in buffer)
                    if kinds not in verdicts:
                        verdicts[kinds] = reference_verdict(glr, earley, buffer)
                    want_tree = len(steps) % TREE_EVERY == TREE_EVERY - 1
                    steps.append(Step(edit, tuple(buffer), verdicts[kinds], want_tree))
            self.plan.append(steps)

    def splice(self, buffer: List[Any], rng: random.Random, glr: GLRParser,
               stratum: int) -> Edit:
        """A seeded structural splice that breaks the parse.

        It starts inside the ``stratum``-th of STRATA equal slices of the
        buffer: the cost of a splice depends on where it lands, and cycling
        through the slices gives every script the same spread of positions.
        """
        width = (len(buffer) - 4) // STRATA
        while True:
            start = stratum * width + rng.randrange(width)
            end = start + rng.randrange(4)
            inserted = [rng.choice(self.document) for _ in range(rng.randrange(1, 4))]
            edit = Edit(start, end, inserted)
            if not glr.recognize(apply_edits(buffer, [edit])):
                return edit

    def setup(self) -> Dict[str, Any]:
        """Open a session over the document on a fresh service and feed it."""
        self.service = ParseService(workers=1, observer=Observer(tracing=False))
        self.grammar = fresh_pl0()
        self.session = self.service.open_session(self.grammar)
        self.session.feed_all(self.document)
        if not self.session.accepts():
            raise RuntimeError("edit-session document is not accepted")
        return {"derive_uncached": self.service.stats()["engine"]["derive_uncached"],
                "states": self.service.table_for(self.grammar).table.stats()["states"]}

    def run_op(self, op: Step, spans: SpanRecorder) -> Tuple[Any, int, int]:
        """Apply one edit, then ``accepts()`` (and ``tree()`` when the step asks)."""
        edit = op.edit
        session = self.session
        tracer = self.service.obs.tracer
        tree: Any = None
        with spans.request("request"):
            started = perf_counter_ns()
            with spans.span("apply_edit") as span, tracer.request("edit"):
                result = session.apply_edit(edit.start, edit.end, edit.tokens)
            with spans.span("accepts"):
                accepted = session.accepts()
            if op.want_tree:
                with spans.span("tree"):
                    try:
                        tree = session.tree()
                    except ParseError as error:
                        tree = error
            elapsed = perf_counter_ns() - started
            if span is not None:
                spans.adopt(span.span_id, program_stages(tracer))
        if tree is not None and not isinstance(tree, ParseError):
            tree = leaves(tree)
        self.refed.append(result.refed_tokens)
        self.spliced.append(result.converged_at is not None)
        return (accepted, session.failure_position, session.tokens, tree), elapsed, len(op.buffer)

    def check(self, checker: Checker, op: Step, answer: Any) -> None:
        """Compare verdict, failure position, buffer and tree with the references."""
        accepted, failure, tokens, tree = answer
        ok = (accepted, failure) == op.expected and tokens == op.buffer
        if op.want_tree:
            if op.expected[0]:
                ok = ok and tree == [token.value for token in op.buffer]
            else:
                ok = ok and isinstance(tree, ParseError)
        checker.check(ok, "edit {}: got {}, reference {}".format(
            op.edit, (accepted, failure), op.expected))

    def layer_metrics(self, delta: Dict[str, Any], spans: SpanRecorder,
                      tokens: int) -> Dict[str, float]:
        """Re-fed tokens, splice share and the edit and query times."""
        edits = spans.durations("apply_edit")
        queries = spans.durations("accepts")
        return {
            "incremental.refed_tok_per_edit": sum(self.refed) / len(self.refed),
            "incremental.splice_frac": sum(self.spliced) / len(self.spliced),
            "incremental.edit_ms_p50": quantile(edits, 0.5) / 1e6,
            "incremental.edit_ms_p90": quantile(edits, 0.9) / 1e6,
            "incremental.query_ms_p50": median(queries) / 1e6,
        }

    def snapshot(self) -> Dict[str, Any]:
        """Engine, table-cache and table counters of the service."""
        return service_snapshot(self.service, [self.grammar])
