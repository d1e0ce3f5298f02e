"""Step-memory harness: what one classifier training step holds.

For each geometry and size it builds untrained parameters and a batch of
input rows of norm 0.5, then reports

- ``nodes``: the tape's node count;
- ``tape_bytes``: the bytes of the arrays the tape's nodes hold after the
  forward, each buffer counted once (a view counts as its base);
- ``traced_after_forward_bytes``: what tracemalloc sees held after the
  forward, above what was live before it;
- ``step_peak_bytes``: tracemalloc's peak over the forward and ``backward``;

all deterministic, and in its own field the median wall time of a step
(forward and ``backward``) in ms, with tracemalloc off.  Sizes:

- ``desk``: the default classifier (dim 16, 2 layers, 4 heads of 4, FFN 32),
  batch 16, length 6;
- ``paper``: the ``hyp-c2v-100`` presets' size (dim 100, 4 heads of 25, FFN
  200), batch 16, length 64.

Run from the repository root, with OpenBLAS on one thread for timings::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/tape_memory.py [--sizes desk paper] [--steps N]

It prints one JSON object, ``{"memory": {...}, "step_ms": {...}}``, keyed
by size and then geometry.  pytest does not collect this file.
"""

import argparse
import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

from gyronet import diffcore as dc
from gyronet import hypformer as hf
from gyronet import train

SIZES = {
    "desk": (dict(model_dim=16, num_heads=4, head_dim=4, ffn_dim=32), 16, 6),
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


def measure(geometry, size, steps):
    cfg, params, points, unk, mask, labels = step_inputs(geometry, size)

    def forward():
        return train._forward_batch(params, points, unk, mask, labels, cfg)

    tape, _, _, loss = forward()  # warm up
    dc.backward(tape, loss)
    del tape, loss
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
    times = []
    for _ in range(steps):
        t0 = time.perf_counter()
        tape, _, _, loss = forward()
        dc.backward(tape, loss)
        times.append((time.perf_counter() - t0) * 1e3)
        del tape, loss
    return memory, round(statistics.median(times), 3)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", nargs="+", choices=sorted(SIZES), default=sorted(SIZES))
    parser.add_argument("--steps", type=int, default=15, help="timed steps per case")
    args = parser.parse_args(argv)
    report = {"memory": {}, "step_ms": {}}
    for size in args.sizes:
        for key in report:
            report[key][size] = {}
        for geometry in hf.GEOMETRIES:
            memory, ms = measure(geometry, size, args.steps)
            report["memory"][size][geometry] = memory
            report["step_ms"][size][geometry] = ms
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return report


if __name__ == "__main__":
    main()
