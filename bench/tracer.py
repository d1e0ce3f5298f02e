"""Span tracing for the gyronet benchmark, installed from outside the program.

:class:`Tracer` replaces module attributes and class methods of the gyronet
layers with thin wrappers that record one span per call: name, start, end,
parent span and the number of tape nodes created so far.  Every module
attribute that holds the same function object is patched, because callers
such as ``train`` and ``optim`` import kernels by name and resolve them in
their own namespace at call time.  ``uninstall`` puts every original back.

Spans stay in memory; :func:`layer_metrics` turns them into the per-layer
metrics and :meth:`Tracer.dump` writes them out when the benchmark ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import statistics
import time

import numpy as np

from gyronet import bundle, cli, data, diffcore, diffgeom, embed, geometry, hypformer, optim, train

MODULES = (bundle, cli, data, diffcore, diffgeom, embed, geometry, hypformer, optim, train)

# Tape ops at this version of diffcore; any other op is counted as "other".
OPS = ("add", "asinh", "atanh", "ball_project", "broadcast", "clip_min", "concat", "cosh",
       "div", "dot", "exp", "leaf", "log", "matmul", "max", "mul", "neg", "norm", "relu",
       "reshape", "sigmoid", "sinh", "slice", "softmax", "sqrt", "sub", "sum", "swap_last",
       "tanh")
DIFFGEOM_FNS = ("project", "mobius_add", "logmap0", "expmap0", "mobius_matvec", "lift_relu",
                "mlr_scores")
HYPFORMER_FNS = ("classifier_forward", "split_heads", "hyperbolic_attention",
                 "scaled_dot_attention", "merge_heads", "hyperbolic_ffn", "euclidean_ffn",
                 "tangent_dropout", "pooled_representation", "cross_entropy")
# Transformer blocks: span names that make up each block when called
# directly from classifier_forward.  "head" is everything after pooling.
BLOCKS = {
    "projection": ("diffgeom.mobius_matvec", "diffcore.matmul"),
    "split_heads": ("hypformer.split_heads",),
    "attention": ("hypformer.hyperbolic_attention", "hypformer.scaled_dot_attention"),
    "merge_heads": ("hypformer.merge_heads",),
    "ffn": ("hypformer.hyperbolic_ffn", "hypformer.euclidean_ffn"),
    "dropout": ("hypformer.tangent_dropout",),
    "pool": ("hypformer.pooled_representation",),
    "head": (),
}
CLI_COMMANDS = ("train-embeddings", "train-classifier", "evaluate")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.nodes_open: list[int] = []
        self.nodes_close: list[int] = []
        self.stack: list[int] = []
        self.nodes = 0  # tape nodes created (records and leaves)
        self.rows: dict[int, int] = {}  # geometry entry span -> rows of its first argument
        self.steps: list[tuple[int, int, collections.Counter]] = []  # backward span, tape length, ops
        self.bundle_bytes: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def open(self, name):
        i = len(self.start)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.nodes_open.append(self.nodes)
        self.nodes_close.append(self.nodes)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.nodes_close[i] = self.nodes
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, name, fn):
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.close(i)
        return functools.update_wrapper(wrapper, fn)

    def _wrap_geometry(self, name, fn):
        def wrapper(*args, **kwargs):
            entry = not (self.stack and self.names[self.stack[-1]].startswith("geometry."))
            i = self.open(name)
            if entry:
                shape = np.shape(args[0]) if args else ()
                self.rows[i] = int(np.prod(shape[:-1])) if len(shape) > 1 else 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return functools.update_wrapper(wrapper, fn)

    def _wrap_record(self, fn):
        def record(tape, op, inputs, value, **attrs):
            i = self.open("diffcore.record")
            try:
                tensor = fn(tape, op, inputs, value, **attrs)
                self.nodes += 1
                return tensor
            finally:
                self.close(i)
        return functools.update_wrapper(record, fn)

    def _wrap_leaf(self, fn):
        def leaf(tape, *args, **kwargs):
            tensor = fn(tape, *args, **kwargs)
            self.nodes += 1
            return tensor
        return functools.update_wrapper(leaf, fn)

    def _wrap_backward(self, fn):
        def backward(tape, output):
            ops = collections.Counter(node.op for node in tape.nodes)
            i = self.open("diffcore.backward")
            self.steps.append((i, len(tape.nodes), ops))
            try:
                return fn(tape, output)
            finally:
                self.close(i)
        return functools.update_wrapper(backward, fn)

    def _wrap_save_bundle(self, fn):
        def save_bundle(path, *args, **kwargs):
            i = self.open("bundle.save")
            try:
                fn(path, *args, **kwargs)
            finally:
                self.close(i)
            self.bundle_bytes.append(os.path.getsize(path))
        return functools.update_wrapper(save_bundle, fn)

    # -- install / uninstall ---------------------------------------------------

    def _patch_function(self, fn, wrapper):
        """Replace ``fn`` in every gyronet module namespace that holds it."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = [
            ("data.generate", data.generate_synthetic_intents),
            ("data.load", data.load_intent_dataset),
            ("embed.train", embed.train_skipgram),
            ("embed.loss", embed.pair_log_likelihood),
            ("embed.grad", embed.minkowski_gradients),
            ("embed.grad", embed.euclidean_gradients),
            ("embed.rsgd", embed.rsgd_step_hyperboloid),
            ("embed.write", embed.write_embeddings),
            ("embed.read", embed.read_embeddings),
            ("diffcore.matmul", diffcore.matmul),
            ("optim.rsgd", optim.rsgd_step_poincare),
            ("train.train_classifier", train.train_classifier),
            ("train.evaluate_classifier", train.evaluate_classifier),
            ("train.load_embedding_points", train.load_embedding_points),
            ("bundle.load", bundle.load_bundle),
        ]
        targets += [(f"diffgeom.{n}", getattr(diffgeom, n)) for n in DIFFGEOM_FNS]
        targets += [(f"hypformer.{n}", getattr(hypformer, n)) for n in HYPFORMER_FNS]
        for name, fn in targets:
            self._patch_function(fn, self._wrap(name, fn))
        for name, fn in list(vars(geometry).items()):
            if callable(fn) and not name.startswith("_") and fn.__module__ == geometry.__name__:
                self._patch_function(fn, self._wrap_geometry(f"geometry.{name}", fn))
        self._patch_function(data.ingest_corpus,
                             self._wrap_generator("data.ingest", data.ingest_corpus))
        self._patch_function(diffcore.backward, self._wrap_backward(diffcore.backward))
        self._patch_function(bundle.save_bundle, self._wrap_save_bundle(bundle.save_bundle))
        self._patch_method(diffcore.Tape, "record", self._wrap_record(diffcore.Tape.record))
        self._patch_method(diffcore.Tape, "leaf", self._wrap_leaf(diffcore.Tape.leaf))
        self._patch_method(optim.RmsProp, "step",
                           self._wrap("optim.rmsprop", optim.RmsProp.step))
        self._patch_method(train.TokenMap, "encode",
                           self._wrap("train.encode", train.TokenMap.encode))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path):
        """Write the spans as JSON columns; parent -1 marks a root span."""
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "name": [index[n] for n in self.names],
                       "start": self.start, "end": self.end, "parent": self.parent,
                       "nodes_open": self.nodes_open, "nodes_close": self.nodes_close}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tr: Tracer, setup_tr: Tracer | None = None, pairs=0):
    """Per-layer metrics of one traced round.

    ``data.*`` metrics also count the traced set-up ``setup_tr``; every other
    metric counts the round alone.  Times are totals over the round in
    seconds unless named ``_ms``; counts are totals unless named per step,
    per call or per forward.
    """
    names = np.array(tr.names, dtype=object)
    start = np.array(tr.start)
    dur = np.array(tr.end) - start
    parent = np.array(tr.parent, dtype=int)
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def sel(*span_names):
        return np.isin(names, span_names)

    def total(*span_names):
        return float(dur[sel(*span_names)].sum())

    def calls(*span_names):
        return int(sel(*span_names).sum())

    m = {}
    for key in ("generate", "load", "ingest"):
        m[f"data.{key}_s"] = total(f"data.{key}") + (
            sum(end - start for n, start, end in zip(setup_tr.names, setup_tr.start, setup_tr.end)
                if n == f"data.{key}") if setup_tr else 0.0)

    m["embed.train_s"] = total("embed.train")
    m["embed.self_s"] = float(self_time[sel("embed.train")].sum())
    m["embed.pairs"] = pairs
    for key in ("loss", "grad", "rsgd"):
        m[f"embed.{key}_s"] = total(f"embed.{key}")
        m[f"embed.{key}_calls"] = calls(f"embed.{key}")
    m["embed.write_s"] = total("embed.write")
    m["embed.read_s"] = total("embed.read")

    entries = sorted(tr.rows)
    m["geometry.calls"] = len(entries)
    m["geometry.busy_s"] = float(dur[entries].sum())
    m["geometry.rows_per_call"] = (sum(tr.rows.values()) / len(entries)) if entries else 0.0

    m["diffcore.nodes_per_step"] = _median([n for _, n, _ in tr.steps])
    per_op = tr.steps[len(tr.steps) // 2][2] if tr.steps else collections.Counter()
    for op in OPS:
        m[f"diffcore.nodes.{op}"] = per_op.get(op, 0)
    m["diffcore.nodes.other"] = sum(v for k, v in per_op.items() if k not in OPS)
    m["diffcore.record_s"] = total("diffcore.record")
    backward_ms = list(dur[sel("diffcore.backward")] * 1e3)
    m["diffcore.backward_ms.p50"] = _percentile(backward_ms, 50)
    m["diffcore.backward_ms.p95"] = _percentile(backward_ms, 95)

    for fn in DIFFGEOM_FNS:
        m[f"diffgeom.{fn}.calls"] = calls(f"diffgeom.{fn}")
        m[f"diffgeom.{fn}.self_s"] = float(self_time[sel(f"diffgeom.{fn}")].sum())

    m.update(_block_metrics(tr, dur))
    m["hypformer.loss_s"] = total("hypformer.cross_entropy")

    m["optim.rmsprop_s"] = total("optim.rmsprop")
    m["optim.rmsprop_calls"] = calls("optim.rmsprop")
    m["optim.rsgd_s"] = total("optim.rsgd")
    m["optim.rsgd_calls"] = calls("optim.rsgd")

    step_ms = _step_intervals_ms(tr)
    m["train.step_ms.p50"] = _percentile(step_ms, 50)
    m["train.step_ms.p95"] = _percentile(step_ms, 95)
    m["train.encode_s"] = total("train.encode")
    train_spans = np.array([n.startswith("train.") for n in tr.names], dtype=bool)
    m["train.self_s"] = float(self_time[train_spans].sum())

    m["bundle.save_s"] = total("bundle.save")
    m["bundle.load_s"] = total("bundle.load")
    m["bundle.bytes"] = _median(tr.bundle_bytes)

    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = total(f"cli.{command}")
    return m


def _block_metrics(tr, dur):
    """Transformer block time (summed) and tape nodes (per forward)."""
    forwards = [i for i, n in enumerate(tr.names) if n == "hypformer.classifier_forward"]
    children = collections.defaultdict(list)
    forward_set = set(forwards)
    for i, p in enumerate(tr.parent):
        if p in forward_set:
            children[p].append(i)
    block_of = {span: block for block, spans in BLOCKS.items() for span in spans}
    seconds = collections.Counter()
    nodes = {block: [] for block in BLOCKS}
    for f in forwards:
        per_forward = collections.Counter()
        pool_end = None
        for c in children[f]:
            block = block_of.get(tr.names[c])
            if block is None or (block == "projection" and pool_end is not None):
                continue
            seconds[block] += dur[c]
            per_forward[block] += tr.nodes_close[c] - tr.nodes_open[c]
            if block == "pool":
                pool_end = c
        if pool_end is not None:
            seconds["head"] += tr.end[f] - tr.end[pool_end]
            per_forward["head"] += tr.nodes_close[f] - tr.nodes_close[pool_end]
        for block in BLOCKS:
            nodes[block].append(per_forward[block])
    forward_ms = list(dur[forwards] * 1e3) if forwards else []
    m = {"hypformer.forward_ms.p50": _percentile(forward_ms, 50),
         "hypformer.forward_ms.p95": _percentile(forward_ms, 95)}
    for block in BLOCKS:
        m[f"hypformer.{block}.s"] = float(seconds[block])
        m[f"hypformer.{block}.nodes"] = _median(nodes[block])
    return m


def _step_intervals_ms(tr):
    """Intervals between consecutive training-step starts, in ms.

    A training step starts where its single backward pass starts, so the
    step period is the interval between consecutive backward calls inside
    one ``train_classifier`` call.
    """
    out = []
    previous = {}
    for i, _, _ in tr.steps:
        owner = i
        while owner >= 0 and tr.names[owner] != "train.train_classifier":
            owner = tr.parent[owner]
        if owner < 0:
            continue
        if owner in previous:
            out.append((tr.start[i] - tr.start[previous[owner]]) * 1e3)
        previous[owner] = i
    return out
