"""Spans around the calls into each layer of mgumt, recorded from outside.

`Tracer.install` replaces a public function at the module attribute where
its caller looks it up (`mgumt.learner.complete_derivations`,
`mgumt.grammar.merge`, ...) with a wrapper that records a span: name, start,
end and parent.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover.

Hot leaf calls (merge, render_term, alpha_canonical, beta_step,
assign_child_indices: about 200,000 per teaching session) are not kept one
by one.  Each is folded into the span that encloses it as a count, a count
of calls that returned and a total time, which keeps memory bounded while
still subtracting their time from their parent's self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import mgumt.grammar
import mgumt.learner
import mgumt.mcfg
import mgumt.teacher
import mgumt.terms
import mgumt.transducer

_LS = mgumt.learner.LearnerState

# (owner, attribute, span name, measure of the result or None)
SPANS = (
    (mgumt.learner, "complete_derivations", "grammar.closure",
     lambda search: len(search.trees)),
    (mgumt.transducer, "complete_derivations", "grammar.closure",
     lambda search: len(search.trees)),
    (mgumt.mcfg, "compile_grammar", "mcfg.compile",
     lambda compiled: len(compiled.rules)),
    (mgumt.transducer, "understand", "transducer.understand", None),
    (mgumt.transducer, "recognize", "transducer.recognize", None),
    (mgumt.transducer, "produce", "transducer.produce", None),
    (mgumt.learner, "produce", "transducer.produce", None),
    (mgumt.teacher, "all_meanings", "transducer.all_meanings", None),
    (mgumt.teacher, "judge", "teacher.judge", None),
    (mgumt.teacher, "ingest", "learner.ingest", None),
    (mgumt.teacher, "express", "learner.express", None),
    (mgumt.teacher, "repair", "learner.repair", None),
    (_LS, "covers_endorsed", "learner.gate", None),
    (_LS, "derivable", "learner.derivable", None),
)

LEAVES = (
    (mgumt.grammar, "merge", "grammar.merge"),
    (mgumt.grammar, "render_term", "grammar.render"),
    (mgumt.grammar, "alpha_canonical", "terms.alpha_canonical"),
    (mgumt.learner, "alpha_canonical", "terms.alpha_canonical"),
    (mgumt.terms, "alpha_canonical", "terms.alpha_canonical"),
    (mgumt.grammar, "beta_step", "terms.beta_step"),
    (mgumt.transducer, "beta_step", "terms.beta_step"),
    (mgumt.transducer, "assign_child_indices", "transducer.expansion"),
)


class Tracer:
    def __init__(self):
        self.active = False
        # span: [name, start, end, parent, self seconds, measure, leaf totals]
        self.spans: list[list] = []
        # open frames: [span index, seconds covered by child calls]
        self.stack: list[list] = []
        self._restore: list[tuple] = []

    # --- recording -------------------------------------------------------------

    def run(self, name, fn, *args):
        """One step of the benchmark, traced; the wrappers record only
        inside such a step, never in set-up or in the output checks."""
        self.active = True
        try:
            return self.span(name, fn, *args)
        finally:
            self.active = False

    def span(self, name, fn, *args, measure=None, **kwargs):
        """Call fn inside a span; used for the wrappers and for the
        benchmark's own operation and set-up spans."""
        parent = self.stack[-1][0] if self.stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, 0.0, None, None]
        self.spans.append(record)
        frame = [index, 0.0]
        self.stack.append(frame)
        record[1] = start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = end = time.perf_counter()
            self.stack.pop()
            record[4] = (end - start) - frame[1]
            if self.stack:
                self.stack[-1][1] += end - start
        if measure is not None:
            record[5] = measure(result)
        return result

    def _leaf(self, name, fn, args, kwargs):
        frame = [-1, 0.0]
        self.stack.append(frame)
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self.stack[-1][1] += elapsed
            owner = next(f[0] for f in reversed(self.stack) if f[0] >= 0)
            record = self.spans[owner]
            if record[6] is None:
                record[6] = {}
            totals = record[6].setdefault(name, [0, 0, 0.0])
            totals[0] += 1
            totals[1] += returned
            totals[2] += elapsed

    # --- installation ------------------------------------------------------------

    def install(self):
        for owner, attr, name, measure in SPANS:
            self._patch(owner, attr, self._span_wrapper(
                name, getattr(owner, attr), measure))
        for owner, attr, name in LEAVES:
            self._patch(owner, attr, self._leaf_wrapper(
                name, getattr(owner, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn, measure):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, measure=measure, **kwargs)
        return wrapper

    def _leaf_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._leaf(name, fn, args, kwargs)
        return wrapper

    # --- results -----------------------------------------------------------------

    def totals(self):
        """Per span name: [calls, seconds, self seconds, measure sum];
        per leaf name: [calls, returned, seconds]."""
        spans = defaultdict(lambda: [0, 0.0, 0.0, 0])
        leaves = defaultdict(lambda: [0, 0, 0.0])
        for name, start, end, _parent, own, measure, leaf in self.spans:
            t = spans[name]
            t[0] += 1
            t[1] += end - start
            t[2] += own
            t[3] += measure or 0
            for leaf_name, (calls, returned, seconds) in (leaf or {}).items():
                lt = leaves[leaf_name]
                lt[0] += calls
                lt[1] += returned
                lt[2] += seconds
        return spans, leaves

    def recognize_seconds_in_understand(self) -> float:
        return sum(end - start for name, start, end, parent, *_ in self.spans
                   if name == "transducer.recognize" and parent >= 0
                   and self.spans[parent][0] == "transducer.understand")

    def per_layer(self, operations: int) -> dict[str, float]:
        """Every per-layer metric, per operation (ratios and grammar sizes
        excepted)."""
        spans, leaves = self.totals()
        ops = max(operations, 1)
        ms = 1000.0 / ops

        def calls(name):
            return spans[name][0] / ops

        merges = leaves["grammar.merge"]
        compiles = spans["mcfg.compile"]
        understand = spans["transducer.understand"]
        return {
            "grammar.closure_calls": calls("grammar.closure"),
            "grammar.closure_ms": spans["grammar.closure"][2] * ms,
            "grammar.items": spans["grammar.closure"][3] / ops,
            "grammar.merge_attempts": merges[0] / ops,
            "grammar.merge_ok_ratio": merges[1] / merges[0] if merges[0] else 0.0,
            "grammar.render_calls": leaves["grammar.render"][0] / ops,
            "terms.alpha_canonical_calls": leaves["terms.alpha_canonical"][0] / ops,
            "terms.alpha_canonical_ms": leaves["terms.alpha_canonical"][2] * ms,
            "terms.beta_step_calls": leaves["terms.beta_step"][0] / ops,
            "mcfg.compile_calls": compiles[0] / ops,
            "mcfg.compile_ms": compiles[1] * ms,
            "mcfg.rules": compiles[3] / compiles[0] if compiles[0] else 0.0,
            "transducer.recognize_ms": spans["transducer.recognize"][1] * ms,
            "transducer.expansions": leaves["transducer.expansion"][0] / ops,
            "transducer.semantic_ms":
                (understand[1] - self.recognize_seconds_in_understand()) * ms,
            "transducer.produce_ms": spans["transducer.produce"][2] * ms,
            "transducer.all_meanings_calls": calls("transducer.all_meanings"),
            "teacher.judge_calls": calls("teacher.judge"),
            "teacher.judge_ms": spans["teacher.judge"][1] * ms,
            "learner.ingest_ms": spans["learner.ingest"][1] * ms,
            "learner.express_ms": spans["learner.express"][1] * ms,
            "learner.repair_ms": spans["learner.repair"][1] * ms,
            "learner.gate_calls": calls("learner.gate"),
            "learner.derivable_calls": calls("learner.derivable"),
            "learner.gate_ms": spans["learner.gate"][1] * ms,
        }

    def write(self, path):
        """All spans as JSON lines: name, start and end in seconds, parent
        index, self seconds, result measure, folded leaf totals."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, own, measure, leaf) in \
                    enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "self": own, "measure": measure,
                    "leaves": leaf or {}}) + "\n")


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric.endswith("_ratio") else "count"
