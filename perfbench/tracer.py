"""Span tracing of netform's layers from outside the package.

``Tracer.install`` wraps the public functions of each layer, plus
``model._bfs``, in every netform module namespace that binds them, and
``Tracer.restore`` puts the originals back.  Each call records a span: layer,
start, end, parent span and job id.  Spans stay in memory until the job ends;
``end_job`` then folds them into per-layer totals (calls, outermost time,
self time) and drops them, so a long pass does not hold millions of spans.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

# layer -> (module, attribute) pairs wrapped under that layer's name
LAYERS: Dict[str, List[tuple]] = {
    "model.bfs": [("model", "_bfs")],
    "model.utility": [("model", "agent_utility"), ("model", "welfare"),
                      ("model", "utility")],
    "model.network_new": [("model.BidirectedNetwork", "__init__")],
    "dynamics.classify": [("dynamics", "classify")],
    "dynamics.step": [("dynamics", "step")],
    "dynamics.scan": [("dynamics", "find_witness"),
                      ("dynamics", "scan_witnesses")],
    "dynamics.run": [("dynamics", "run")],
    "equilibrium.is_stable": [("equilibrium", "is_stable")],
    "equilibrium.bi_pairwise": [("equilibrium", "is_bi_pairwise_stable")],
    "equilibrium.enumerate": [("equilibrium", "net_from_mask")],
    "equilibrium.symmetric": [("equilibrium", "check_symmetric")],
    "convergence.construct_path": [("convergence", "construct_path")],
    "convergence.lemma_checks": [("convergence", "lemma_checks")],
    "convergence.condense": [("convergence", "condense")],
    "convergence.validate": [("convergence", "validate_certificate")],
    "scc.condensation": [("scc", "condensation")],
    "serialize.emit": [("serialize", "trace_to_text"),
                       ("serialize", "certificate_to_text"),
                       ("serialize", "document_text"),
                       ("serialize", "to_dot")],
    "serialize.parse": [("serialize", "parse_document")],
    "metrics.metrics": [("metrics", "metrics")],
    "generators": [("generators", name) for name in
                   ("empty", "cycle", "complete_net", "balanced_flower",
                    "unbalanced_flower", "kautz", "random_net", "lift")],
    "cli": [("cli", "main")],
}

# (inner, outer): count inner calls made while an outer span is open
NESTED = [("dynamics.classify", "dynamics.scan"),
          ("dynamics.classify", "convergence.construct_path")]


class LayerTotals:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0  # outermost spans only, so recursion is not counted twice
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.spans: List[list] = []  # [layer, t0, t1, parent, job, outermost]
        self.job = ""
        self.fired = 0  # dynamics.step calls that mutated the network
        self._stack: List[int] = []
        self._depth = [0] * len(self.names)
        self._nested = {pair: 0 for pair in NESTED}
        self._totals = [LayerTotals() for _ in self.names]
        self._patched: List[tuple] = []  # (namespace, attribute, original)

    # -- install / restore ----------------------------------------------

    def install(self):
        ids = {name: i for i, name in enumerate(self.names)}
        watch: Dict[int, List[tuple]] = {}
        for inner, outer in NESTED:
            watch.setdefault(ids[inner], []).append((outer, ids[outer]))
        modules = {name[len("netform."):]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith("netform.")}
        for layer, targets in LAYERS.items():
            lid = ids[layer]
            for owner, attr in targets:
                mod_name, _, cls_name = owner.partition(".")
                if cls_name:
                    holder = getattr(modules[mod_name], cls_name)
                    original = holder.__dict__[attr]
                    self._patch(holder, attr, self._wrap(original, lid, layer,
                                                         watch.get(lid, ())))
                    continue
                original = getattr(modules[mod_name], attr)
                wrapper = self._wrap(original, lid, layer, watch.get(lid, ()))
                for mod in [sys.modules["netform"], *modules.values()]:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    def _patch(self, namespace, attr, wrapper):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def restore(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, fn, lid, layer, watched):
        spans, stack, depth = self.spans, self._stack, self._depth
        nested = self._nested
        clock = time.perf_counter
        is_step = layer == "dynamics.step"
        tracer = self

        def wrapper(*args, **kwargs):
            for outer, oid in watched:
                if depth[oid]:
                    nested[(layer, outer)] += 1
            rec = [lid, 0.0, 0.0, stack[-1] if stack else -1, tracer.job,
                   depth[lid] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[lid] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[lid] -= 1
                stack.pop()
            if is_step and result.mutating:
                tracer.fired += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation --------------------------------------------------------

    def end_job(self):
        """Fold the finished job's spans into the per-layer totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (lid, t0, t1, _, _, outermost) in enumerate(spans):
            tot = self._totals[lid]
            tot.calls += 1
            tot.self_s += t1 - t0 - child[i]
            if outermost:
                tot.s += t1 - t0
        spans.clear()

    def take(self):
        """Per-layer totals and nested counts since the last take; resets."""
        totals = dict(zip(self.names, self._totals))
        nested = dict(self._nested)
        fired = self.fired
        self._totals = [LayerTotals() for _ in self.names]
        for pair in self._nested:  # the wrappers hold this dict: reset in place
            self._nested[pair] = 0
        self.fired = 0
        return totals, nested, fired
