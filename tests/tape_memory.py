"""Step-memory harness: what one classifier training step holds.

For each geometry and size it builds untrained parameters and a batch of
input rows of norm 0.5.  For a training size it reports, under ``memory``,

- ``nodes``: the tape's node count;
- ``tape_bytes``: the bytes of the arrays the tape's nodes hold after the
  forward, each buffer counted once (a view counts as its base);
- ``traced_after_forward_bytes``: what tracemalloc sees held after the
  forward, above what was live before it;
- ``step_peak_bytes``: tracemalloc's peak over the forward and ``backward``;

and for the ``eval`` size, which scores the chunk on arrays with no tape, as
evaluation does (``train._score_batch``), ``forward_peak_bytes``:
tracemalloc's peak over that forward.  Under ``scans`` a training size gives
the values one forward records and how many of them ``Tape.record`` scans,
the rest being proved finite by their bounds.  These are deterministic.
Each size also reports median wall times in ms, with
tracemalloc off: ``forward_ms``, and for a training size ``backward_ms``,
``step_ms`` (forward and ``backward`` timed as one) and ``update_ms``, one
optimizer pass over the step's gradients as ``train._train_step`` makes it
(``train._update`` at ``TrainSettings``' default rates), so that the three
parts of a training step are forward, backward and update.  Beside them,
``minor_faults`` is the median count of minor page faults
(``getrusage``'s ``ru_minflt``) of one timed forward (``eval``) or of one
forward and ``backward`` (a training size): the pages the kernel had to
zero because the allocator had returned them.  Before it times anything the
harness sets the allocator policy that ``gyronet.cli.main`` sets
(``cli._keep_freed_pages``), so its numbers describe the CLI.  Sizes:

- ``desk``: the default classifier (dim 16, 2 layers, 4 heads of 4, FFN 32),
  batch 16, length 6;
- ``eval``: the desk classifier on one evaluation chunk of
  ``EVAL_BATCH_SIZE * 64`` positions: 227 utterances of length 9;
- ``paper``: the ``hyp-c2v-100`` presets' size (dim 100, 4 heads of 25, FFN
  200), batch 16, length 64.

Run from the repository root, with OpenBLAS on one thread for timings::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/tape_memory.py [--sizes SIZE ...] [--steps N]

It prints one JSON object whose keys are ``memory``, ``scans``, the
timings and ``minor_faults``, each keyed by size and then geometry.  pytest does not collect this
file.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

from gyronet import cli
from gyronet import diffcore as dc
from gyronet import hypformer as hf
from gyronet import train
from gyronet.optim import RmsProp

_DESK = dict(model_dim=16, num_heads=4, head_dim=4, ffn_dim=32)
SIZES = {
    "desk": (_DESK, 16, 6),
    "eval": (_DESK, train.EVAL_BATCH_SIZE * 64 // 9, 9),
    "paper": (dict(model_dim=100, num_heads=4, head_dim=25, ffn_dim=200), 16, 64),
}


def step_inputs(geometry, size):
    """(config, params, points, unk, mask, labels) of one step, from seed 0."""
    shape, batch, length = SIZES[size]
    cfg = hf.TransformerConfig(geometry=geometry, max_seq_len=length, **shape)
    rng = np.random.default_rng(0)
    params = hf.init_params(cfg, rng)
    points = rng.normal(size=(batch, length, cfg.model_dim))
    points *= 0.5 / np.linalg.norm(points, axis=-1, keepdims=True)
    labels = rng.integers(0, cfg.num_classes, size=batch)
    return cfg, params, points, np.zeros((batch, length, 1)), np.ones((batch, length)), labels


def _held_arrays(node):
    """Every value in the node's slots, looking into tuples and dicts."""
    for name in type(node).__slots__:
        held = getattr(node, name)
        if isinstance(held, dict):
            yield from held.values()
        elif isinstance(held, tuple):
            yield from held
        else:
            yield held


def _held_bytes(nodes):
    """Bytes of the distinct buffers that the nodes' slots hold."""
    bases = {}
    for node in nodes:
        for value in _held_arrays(node):
            while isinstance(value, np.ndarray) and isinstance(value.base, np.ndarray):
                value = value.base
            if isinstance(value, np.ndarray):
                bases[id(value)] = value.nbytes
    return sum(bases.values())


def count_scans(forward):
    """(values recorded, values scanned) by one call of ``forward``."""
    recorded, scanned = [0], [0]
    record, magnitude = dc.Tape.record, dc._magnitude

    def counted_record(self, *args, **kwargs):
        recorded[0] += 1
        return record(self, *args, **kwargs)

    def counted_magnitude(value):
        scanned[0] += 1
        return magnitude(value)

    dc.Tape.record, dc._magnitude = counted_record, counted_magnitude
    try:
        forward()
    finally:
        dc.Tape.record, dc._magnitude = record, magnitude
    return recorded[0], scanned[0]


def _median_ms(times):
    return round(statistics.median(times) * 1e3, 3)


def _measure_eval(cfg, params, points, unk, mask, labels, steps):
    """The reports of one evaluation chunk, scored on arrays as evaluation does."""

    def forward():
        return train._score_batch(params, points, unk, mask, labels, cfg)

    forward()  # warm up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        forward()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    fwd, faults = [], []
    for _ in range(steps):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        forward()
        fwd.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    return {"memory": {"forward_peak_bytes": peak}, "forward_ms": _median_ms(fwd),
            "minor_faults": statistics.median(faults)}


def measure(geometry, size, steps):
    """The reports of one geometry at one size: {report key: value}."""
    cfg, params, points, unk, mask, labels = step_inputs(geometry, size)
    if size == "eval":
        return _measure_eval(cfg, params, points, unk, mask, labels, steps)

    def forward():
        return train._forward_batch(params, points, unk, mask, labels, cfg)

    tape, _, _, loss = forward()  # warm up
    dc.backward(tape, loss)
    del tape, loss
    values, scanned = count_scans(forward)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tape, _, _, loss = forward()
        after_forward = tracemalloc.get_traced_memory()[0] - before
        dc.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    memory = {"nodes": len(tape.nodes), "tape_bytes": _held_bytes(tape.nodes),
              "traced_after_forward_bytes": after_forward, "step_peak_bytes": peak}
    del tape, loss
    settings = train.TrainSettings()
    opt, manifold = RmsProp(lr=settings.lr), hf.manifold_param_names(cfg)
    fwd, bwd, upd, faults = [], [], [], []
    for _ in range(steps):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        tape, tensors, _, loss = forward()
        t1 = time.perf_counter()
        grads = dc.backward(tape, loss)
        t2 = time.perf_counter()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        # a copy of the dict, so that every pass starts from the same parameters
        train._update(dict(params), {name: grads[t] for name, t in tensors.items()}, opt,
                      manifold, settings.manifold_lr)
        upd.append(time.perf_counter() - t2)
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
        del tape, tensors, loss, grads
    return {"memory": memory, "scans": {"values": values, "scanned": scanned},
            "forward_ms": _median_ms(fwd), "backward_ms": _median_ms(bwd),
            "step_ms": _median_ms([f + b for f, b in zip(fwd, bwd)]),
            "update_ms": _median_ms(upd), "minor_faults": statistics.median(faults)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", nargs="+", choices=sorted(SIZES), default=sorted(SIZES))
    parser.add_argument("--steps", type=int, default=15, help="timed steps per case")
    args = parser.parse_args(argv)
    cli._keep_freed_pages()
    report = {}
    for size in args.sizes:
        for geometry in hf.GEOMETRIES:
            for key, value in measure(geometry, size, args.steps).items():
                report.setdefault(key, {}).setdefault(size, {})[geometry] = value
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return report


if __name__ == "__main__":
    main()
