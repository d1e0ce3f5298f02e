"""Skip-gram split harness: where a trained pair's time goes, per geometry.

It trains ``embed.train_skipgram`` at the ``skipgram`` benchmark workload's
settings (a Zipf-weighted corpus of 1500 characters over 24 symbols, dim 10,
2 epochs, window 1, 2 negatives, training seed 0) and reports, in µs per
trained pair and as the least over ``--runs`` runs of each figure:

- ``pair_us``: the whole of ``train_skipgram`` (vocabulary, encoding and
  the epochs), untimed inside;
- ``loss_us``: ``pair_log_likelihood``, called once per pair;
- ``pairs_us``: ``generate_pairs``, the time its iterator takes to yield;
- ``block_gradients_us``: ``_block_gradients``, once per block;
- ``step_us`` (``hyperboloid`` only): ``rsgd_step_hyperboloid``, the one
  stacked Riemannian step per block; the euclidean step is inline in the
  trainer, so it falls in ``rest_us``;
- ``rest_us``: a timed run's whole minus its timed parts: the trainer's own
  loop, gathers and scatters.

The parts come from other runs, in which each of those module functions is
wrapped by a timer.  A wrapper adds about 0.1 to 0.2 µs to each of its calls,
so the parts and ``rest_us`` add up to more than ``pair_us``.  ``pairs`` is
the count of pairs one run trains, that of ``pair_log_likelihood`` calls.

Run from the repository root; the harness sets one BLAS thread itself::

    PYTHONPATH=src python tests/skipgram_split.py [--runs N] [--chars N] [--seed N]

``--seed`` seeds the corpus, as the benchmark's ``--seed`` does.  It prints
one JSON object keyed by geometry.  pytest does not collect this file.
"""

import os

if __name__ == "__main__":  # one BLAS thread, set before numpy is imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from gyronet import embed  # noqa: E402

SYMBOLS = 24
SETTINGS = dict(dim=10, epochs=2, mu=1, m=2, seed=0)
TIMED = {"loss": "pair_log_likelihood", "block_gradients": "_block_gradients",
         "step": "rsgd_step_hyperboloid"}


def corpus(chars, seed):
    """The benchmark's Zipf-weighted corpus of ``chars`` characters."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, SYMBOLS + 1)
    symbols = rng.choice(SYMBOLS, size=chars, p=weights / weights.sum())
    return "".join(chr(0x4E00 + int(i)) for i in symbols)


def _timed(fn, spent, calls, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - t0
    return wrapper


def _timed_pairs(fn, spent):
    def wrapper(*args):
        pairs = fn(*args)
        while True:
            t0 = time.perf_counter()
            pair = next(pairs, None)
            spent["pairs"] += time.perf_counter() - t0
            if pair is None:
                return
            yield pair
    return wrapper


def split_run(text, config):
    """({part: seconds} of one training run, with its whole and the rest,
    and the count of pairs it trained."""
    spent = dict.fromkeys(["pairs", *TIMED], 0.0)
    calls = dict.fromkeys(TIMED, 0)
    saved = {name: getattr(embed, name) for name in [*TIMED.values(), "generate_pairs"]}
    for key, name in TIMED.items():
        setattr(embed, name, _timed(saved[name], spent, calls, key))
    embed.generate_pairs = _timed_pairs(saved["generate_pairs"], spent)
    try:
        t0 = time.perf_counter()
        embed.train_skipgram(text, config)
        whole = time.perf_counter() - t0
    finally:
        for name, fn in saved.items():
            setattr(embed, name, fn)
    if config.geometry != "hyperboloid":
        del spent["step"]
    spent["rest"] = whole - sum(spent.values())
    return spent, calls["loss"]


def measure(text, geometry, runs):
    """The report of one geometry: {key: value}."""
    config = embed.SkipgramConfig(geometry=geometry, **SETTINGS)
    _, pairs = split_run(text, config)  # warm up
    wholes = []
    for _ in range(runs):
        t0 = time.perf_counter()
        embed.train_skipgram(text, config)
        wholes.append(time.perf_counter() - t0)
    splits = [split_run(text, config)[0] for _ in range(runs)]
    report = {"pair_us": min(wholes) / pairs * 1e6}
    report.update({f"{key}_us": min(split[key] for split in splits) / pairs * 1e6
                   for key in splits[0]})
    return {"pairs": pairs, **{key: round(value, 3) for key, value in report.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=30, help="runs per figure; the least is kept")
    parser.add_argument("--chars", type=int, default=1500, help="corpus characters")
    parser.add_argument("--seed", type=int, default=1, help="corpus seed")
    args = parser.parse_args(argv)
    text = corpus(args.chars, args.seed)
    report = {geometry: measure(text, geometry, args.runs) for geometry in embed.GEOMETRIES}
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return report


if __name__ == "__main__":
    main()
