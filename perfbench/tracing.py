"""Span tracing for the benchmark, installed from outside the program.

`Tracer.install` replaces public functions and methods of the bilayer
modules with wrappers that record one span per call: (name, start, end,
parent).  Spans stay in flat in-memory arrays until `write` saves them, and
`layers` reduces them to call counts, total time and self time per name.
Self time is a span's duration minus the time its child spans cover.

Calls a store method makes into the store itself (the `truth_of` calls inside
`label_conditional`) are folded into the caller's span: recording millions of
sub-microsecond spans would cost more than the work they measure.

`iter_positive` and `iter_negative` are not wrapped: a span around the call
would time only the making of the iterator, which holds the whole scan today
only because the store sorts eagerly.  Their spans come from the benchmark's
own full scans (`workloads.query_round`), which consume the iterator inside
the span; a scan the program makes counts toward its caller's self time.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from bilayer import evaluation, graph, network, params, training, triple_store, world

_VARIANTS = (("direct", "direct"), ("concept_attention", "sa"))


def _decode_name(params_, cmap, vocab, request, rng=None) -> str:
    if request.mode != "perception":
        return f"network.decode.{request.mode}"
    variant = next((tag for flag, tag in _VARIANTS if getattr(request, flag)), "samp")
    arity = "unary" if request.features.object_box is None else "binary"
    return f"network.decode.{variant}.{arity}"


def _graph_name(stage: str):
    def name(params_, cmap, batch, *args, **kwargs) -> str:
        return f"graph.{stage}.{batch.mode}.{batch.arity}"
    return name


def _readout_cols(params_, cmap, batch, *args, **kwargs) -> dict:
    return {"graph.readout_cols": params_.readout.shape[1]}


def _adam_bytes(opt, params_, grads, frozen=frozenset(), emb_col_mask=None) -> dict:
    # parameter, gradient and both moment arrays of every block the step updates
    live = [p.nbytes for name, p in params_.blocks().items() if name not in frozen]
    return {"training.Adam.step.bytes": 4 * sum(live)}


def _targets() -> list[tuple]:
    """(owner, attribute, span name or naming function, count function, fold)."""
    store = triple_store.TripleStore
    out = [
        (world, "gen_world", "world.gen_world", None, False),
        (world, "export_world", "world.export_world", None, False),
        (world, "load_world", "world.load_world", None, False),
        (world.GroundTruthWorld, "build_store", "world.build_store", None, False),
        (params.NetParams, "grow", "params.NetParams.grow", None, False),
        (training.Adam, "step", "training.Adam.step", _adam_bytes, False),
        (graph, "forward", _graph_name("forward"), _readout_cols, False),
        (graph, "backward", _graph_name("backward"), None, False),
        (network, "decode", _decode_name, None, False),
        (evaluation, "decode", _decode_name, None, False),
    ]
    for name in ("add_observation", "lcwa_expand", "truth_of", "label_conditional",
                 "expected_truth"):
        out.append((store, name, f"triple_store.{name}", None, True))
    # evaluation imported these names from training, so both bindings are wrapped
    for module in (training, evaluation):
        out.append((module, "build_batches",
                    lambda *a, **k: f"training.build_batches.{k['mode']}", None, False))
        for name in ("memory_examples", "train", "ssl_step", "consolidate"):
            if hasattr(module, name):
                out.append((module, name, f"training.{name}", None, False))
    for name in ("perception_examples", "injection_pool"):
        out.append((training, name, f"training.{name}", None, False))
    for name in ("head_metrics", "perception_unary_eval", "perception_binary_eval"):
        out.append((evaluation, name, f"evaluation.{name}", None, False))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._originals: list[tuple] = []
        self.active = False
        self._store_depth = 0  # open spans of folded (store) methods

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, label, count, fold):
        tracer = self
        if fold:
            @functools.wraps(fn)
            def folded(*args, **kwargs):
                if tracer._store_depth:
                    return fn(*args, **kwargs)
                tracer._store_depth += 1
                idx = tracer._open(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer._store_depth -= 1

            return folded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(*args, **kwargs).items():
                    tracer.counts[key] += value
            idx = tracer._open(label(*args, **kwargs) if callable(label) else label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def install(self) -> None:
        if self.active:
            return
        self.active = True
        for owner, attr, label, count, fold in _targets():
            fn = owner.__dict__.get(attr)
            if fn is None:  # gone from the program: its span reads zero calls
                continue
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, label, count, fold))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()
        self.active = False

    @contextmanager
    def paused(self):
        """Run a block with the program's own functions back in place."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- reduction ---------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        return (np.frombuffer(self._name, dtype=np.int64),
                np.frombuffer(self._parent, dtype=np.int64), start, end)

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        name, parent, start, end = self._arrays()
        if name.size == 0:
            return {}
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                            "self_s": float(self_s[i])}
            for i in range(k)
        }

    def write(self, path: str) -> None:
        """Save every span: name index, parent span index, start, end."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)
