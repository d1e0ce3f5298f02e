"""Batch command-line interface.

Commands: gen-data, train-embeddings, train-classifier, evaluate, convert,
geometry-check.  Every command is deterministic given --seed; data outputs
carry no timestamps, so identical configs produce byte-identical files.
Settings may come from a UTF-8 key=value config file (--config), keyed by
flag name (``out=d.tsv``), which may give required flags; explicit
command-line flags win over config-file values.  Log level comes from the
GYRONET_LOG environment variable (error|info|debug).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import logging
import math
import os
import re
import sys

import numpy as np

from . import bundle, checks, data, embed, hypformer, train
from .geometry import EPS_BOUNDARY, to_hyperboloid, to_poincare
from .hypformer import TransformerConfig, param_shapes, positions_on_the_shell

log = logging.getLogger("gyronet")

# Presets mirroring the published character-level model variants; word-based
# segmentation pipelines are out of scope, so only character presets ship.
PRESETS = {
    "eucl-c2v-128": {"geometry": "euclidean", "dim": 128, "dropout": 0.2, "lr": 0.0001},
    "eucl-c2v-256": {"geometry": "euclidean", "dim": 256, "dropout": 0.2, "lr": 0.0001},
    "hyp-c2v-100-nodrop": {"geometry": "poincare", "dim": 100, "dropout": 0.0, "lr": 0.001},
    "hyp-c2v-100-drop30": {"geometry": "poincare", "dim": 100, "dropout": 0.3, "lr": 0.001},
}


class CliError(Exception):
    pass


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("GYRONET_LOG", "info").lower(), logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(asctime)s %(message)s")


# the values a flag key takes in a config file
FLAG_VALUES = {"1": True, "0": False, "true": True, "false": False}


def _load_config_file(path, parser):
    values = {}  # by dest; a key is a long flag's name, "_" standing for "-"
    valid = {flag[2:].replace("-", "_"): action for action in parser._actions
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
    for lineno, line in data.read_utf8_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in valid:
            raise CliError(f"{path}:{lineno}: unknown config key '{key}'")
        if key == "config":
            raise CliError(f"{path}:{lineno}: a config file cannot name another "
                           f"config file")
        action, raw = valid[key], raw.strip()
        if action.nargs == 0:  # a flag such as --residual
            if raw not in FLAG_VALUES:
                raise CliError(f"{path}:{lineno}: bad value for '{key}': '{raw}' "
                               f"is not one of {', '.join(FLAG_VALUES)}")
            values[action.dest] = FLAG_VALUES[raw]
            continue
        try:
            value = (action.type or str)(raw)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for '{key}': {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise CliError(f"{path}:{lineno}: bad value for '{key}': '{raw}' "
                           f"is not one of {', '.join(map(str, action.choices))}")
        values[action.dest] = value
    return values


# The rules a bounded flag may keep, each a test and what "--<flag> must" do;
# an int k in BOUNDS stands for the rule ">= k".
POSITIVE = (lambda value: math.isfinite(value) and value > 0, "be finite and > 0")
FRACTION = (lambda value: 0.0 <= value < 1.0, "lie in [0, 1)")
FINITE = (math.isfinite, "be finite")

# Each command's bounded flags, in the order they are checked.  A 0 --head-dim
# or --ffn-dim derives that size from the model dim.
BOUNDS = {
    "gen-data": {"seed": 0, "classes": 2, "per_class": 1, "composites": 0, "noise_len": 0},
    "train-embeddings": {"seed": 0, "dim": 1, "window": 1, "negatives": 0, "epochs": 0,
                         "min_count": 1, "lr": POSITIVE, "theta": FINITE},
    "train-classifier": {"seed": 0, "layers": 1, "heads": 1, "batch_size": 1,
                         "max_seq_len": 1, "epochs": 0, "head_dim": 0, "ffn_dim": 0,
                         "restart_epoch": -1,
                         "lr": POSITIVE, "manifold_lr": POSITIVE, "dropout": FRACTION,
                         "holdout": FRACTION, "pe_scale": FINITE},
    "evaluate": {"seed": 0, "holdout": FRACTION},
    "convert": {},
    "geometry-check": {"seed": 0},
}


def _parse_with_config(parser, argv):
    """The settings of ``parser``'s command: the config file's values, then
    the command line's, then those of a ``--preset``.  The first flag whose
    value breaks its bound in ``BOUNDS`` is refused, before any input is read."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    ns = argparse.Namespace(**(_load_config_file(known.config, parser) if known.config else {}))
    for action in parser._actions:  # a flag the file gives is required nowhere else
        action.required = action.required and not hasattr(ns, action.dest)
    args = parser.parse_args(argv, namespace=ns)
    for key, value in PRESETS.get(getattr(args, "preset", None), {}).items():
        if key != "dim":  # the embeddings fix the model dim
            setattr(args, key, value)
    log.info("resolved config: %s", {k: v for k, v in sorted(vars(args).items())})
    for flag, rule in BOUNDS[parser.prog.split()[-1]].items():
        holds, must = (lambda v: v >= rule, f"be >= {rule}") if isinstance(rule, int) else rule
        value = getattr(args, flag)
        if not holds(value):
            raise CliError(f"--{flag.replace('_', '-')} must {must}, got {value}")
    return args


def _add_common(parser):
    parser.add_argument("--config", help="key=value settings file")
    parser.add_argument("--seed", type=int, default=0)


def _write_report(path, metrics, epochs, geometry, dims, seed):
    """Print the metrics report of a classifier and write it to ``path``, if any."""
    payload = json.dumps({"accuracy": metrics["accuracy"],
                          "cross_entropy": metrics["cross_entropy"], "epochs": epochs,
                          "geometry": geometry, "dims": dims, "seed": seed},
                         sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload + "\n")
    print(payload)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(argv):
    parser = argparse.ArgumentParser(prog="gyronet gen-data")
    _add_common(parser)
    parser.add_argument("--classes", type=int, default=8)
    parser.add_argument("--per-class", type=int, default=60)
    parser.add_argument("--vocab-size", type=int, default=48)
    parser.add_argument("--composites", type=int, default=2)
    parser.add_argument("--noise-len", type=int, default=3)
    parser.add_argument("--out", required=True)
    args = _parse_with_config(parser, argv)
    try:
        dataset = data.generate_synthetic_intents(
            args.classes, args.per_class, args.vocab_size, args.seed,
            composites=args.composites, noise_len=args.noise_len)
    except ValueError as exc:
        # the generator's bounds name its parameters, not the flags
        flags = {"vocab_size": "--vocab-size", "num_classes": "--classes",
                 "composites": "--composites"}
        raise CliError(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc))) from None
    data.save_intent_dataset(args.out, dataset.records)
    log.info("wrote %d utterances over %d intents to %s",
             len(dataset.records), len(dataset.label_to_id), args.out)


def cmd_train_embeddings(argv):
    parser = argparse.ArgumentParser(prog="gyronet train-embeddings")
    _add_common(parser)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--geometry", choices=embed.GEOMETRIES, default="hyperboloid")
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--window", type=int, default=5)
    parser.add_argument("--negatives", type=int, default=5)
    parser.add_argument("--theta", type=float, default=1.0)
    parser.add_argument("--min-count", type=int, default=1)
    parser.add_argument("--keep-whitespace", action="store_true")
    parser.add_argument("--out", required=True)
    args = _parse_with_config(parser, argv)
    config = embed.SkipgramConfig(
        geometry=args.geometry, dim=args.dim, mu=args.window, m=args.negatives,
        theta=args.theta, lr=args.lr, epochs=args.epochs, seed=args.seed,
        min_count=args.min_count)
    # the corpus is passed on, not held, so training frees it once it has
    # the code points
    E, vocab, history = embed.train_skipgram(
        data.ingest_corpus(args.corpus, keep_whitespace=args.keep_whitespace), config,
        log_fn=log.info)
    embed.write_embeddings(args.out, vocab.id_to_token, E.A, args.geometry)
    log.info("wrote %d %s embeddings (dim %d) to %s",
             len(vocab), args.geometry, args.dim, args.out)


def _classifier_parser(prog):
    parser = argparse.ArgumentParser(prog=prog)
    _add_common(parser)
    parser.add_argument("--embeddings", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--geometry", choices=hypformer.GEOMETRIES, default="poincare")
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--holdout", type=float, default=0.15)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--head-dim", type=int, default=0, help="0 = model_dim // heads")
    parser.add_argument("--ffn-dim", type=int, default=0, help="0 = 2 * model_dim")
    parser.add_argument("--dropout", type=float, default=0.0)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--lr", type=float, default=0.001)
    parser.add_argument("--manifold-lr", type=float, default=0.05)
    parser.add_argument("--restart-epoch", type=int, default=-1, help="-1 = epoch midpoint")
    parser.add_argument("--max-seq-len", type=int, default=64)
    parser.add_argument("--pe-scale", type=float, default=1.0)
    parser.add_argument("--residual", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--metrics-out")
    return parser


def cmd_train_classifier(argv):
    parser = _classifier_parser("gyronet train-classifier")
    args = _parse_with_config(parser, argv)
    if args.restart_epoch >= args.epochs:
        raise CliError(f"--restart-epoch must be < --epochs ({args.epochs}) or the restart "
                       f"never comes, got {args.restart_epoch}")
    preset = PRESETS.get(args.preset, {})
    token_map = train.load_embedding_points(args.embeddings, args.geometry)
    if preset and token_map.dim != preset["dim"]:
        raise CliError(f"preset '{args.preset}' needs dim {preset['dim']}, "
                       f"but {args.embeddings} has dim {token_map.dim}")
    dataset = data.load_intent_dataset(args.data, args.holdout, args.seed)
    model_dim = token_map.dim
    head_dim = args.head_dim or max(model_dim // args.heads, 1)
    config = TransformerConfig(
        geometry=args.geometry, model_dim=model_dim, num_layers=args.layers,
        num_heads=args.heads, head_dim=head_dim,
        ffn_dim=args.ffn_dim or 2 * model_dim,
        num_classes=len(dataset.label_to_id), dropout=args.dropout,
        max_seq_len=args.max_seq_len, pe_scale=args.pe_scale,
        use_residual=args.residual)
    if config.geometry == "poincare":
        clamped, scale = positions_on_the_shell(config)
        if clamped:
            log.warning("exp_0 puts %d of %d positional encodings on the ball's 1 - %g shell "
                        "at --pe-scale %g; --pe-scale %g keeps them all inside",
                        clamped, config.max_seq_len, EPS_BOUNDARY, config.pe_scale, scale)
    settings = train.TrainSettings(
        epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
        lr=args.lr, manifold_lr=args.manifold_lr,
        restart_epoch=args.restart_epoch)
    try:
        params, history = train.train_classifier(dataset, token_map, config, settings,
                                                 log_fn=log.info)
        metrics = train.evaluate_classifier(
            dataset, dataset.heldout_indices or dataset.train_indices,
            token_map, params, config)
    except (train.Divergence, train.NonFiniteScores) as exc:
        raise CliError(f"the model trained for {args.out}: {exc}") from None
    meta = config.to_dict()
    meta["labels"] = "\t".join(dataset.id_to_label)
    meta["epochs"] = str(args.epochs)
    bundle.save_bundle(args.out, args.geometry, meta, params)
    _write_report(args.metrics_out or args.out + ".metrics.json", metrics, args.epochs,
                  args.geometry, model_dim, args.seed)


def _model_config(path, geometry, meta, params):
    """(classifier config, labels, epochs) of a loaded bundle.  A bundle whose
    config block is incomplete or disagrees with its geometry tag, or whose
    parameter blocks differ from the config's in name or shape, is refused."""
    try:
        config = TransformerConfig.from_dict(meta)
        labels = meta["labels"].split("\t")
        epochs = int(meta.get("epochs") or 0)
    except KeyError as exc:
        raise bundle.BundleError(f"{path}: config block lacks key {exc}") from None
    except ValueError as exc:
        raise bundle.BundleError(f"{path}: bad config block: {exc}") from None
    if geometry != config.geometry:
        raise bundle.BundleError(f"{path}: geometry tag '{geometry}' does not match "
                                 f"the config block's '{config.geometry}'")
    if len(labels) != config.num_classes:
        raise bundle.BundleError(f"{path}: {len(labels)} labels for "
                                 f"{config.num_classes} classes")
    # param_shapes lists 8 blocks per layer: refuse a layer count that the
    # file cannot hold before listing them
    if config.num_layers > len(params):
        raise bundle.BundleError(f"{path}: {config.num_layers} layers, but only "
                                 f"{len(params)} parameter blocks")
    shapes = param_shapes(config)
    problems = [f"block '{n}' is missing" for n in sorted(shapes.keys() - params.keys())]
    problems += [f"unexpected block '{n}'" for n in sorted(params.keys() - shapes.keys())]
    problems += [f"block '{n}' has shape {params[n].shape}, the config needs {shape}"
                 for n, shape in shapes.items() if n in params and params[n].shape != shape]
    if problems:
        raise bundle.BundleError(f"{path}: " + "; ".join(problems))
    return config, labels, epochs


def cmd_evaluate(argv):
    parser = argparse.ArgumentParser(prog="gyronet evaluate")
    _add_common(parser)
    parser.add_argument("--model", required=True)
    parser.add_argument("--embeddings", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--holdout", type=float, default=0.15)
    parser.add_argument("--split", choices=["heldout", "train", "all"], default="heldout")
    parser.add_argument("--metrics-out")
    args = _parse_with_config(parser, argv)
    geometry, meta, params = bundle.load_bundle(args.model)
    config, labels, epochs = _model_config(args.model, geometry, meta, params)
    token_map = train.load_embedding_points(args.embeddings, geometry)
    if token_map.dim != config.model_dim:
        raise CliError(f"{args.model} has model dim {config.model_dim}, "
                       f"but {args.embeddings} has dim {token_map.dim}")
    dataset = data.load_intent_dataset(args.data, args.holdout, args.seed)
    if sorted(dataset.label_to_id) != sorted(labels):
        raise CliError(f"the labels of {args.data} do not match those of "
                       f"the model {args.model}")
    indices = {"heldout": dataset.heldout_indices,
               "train": dataset.train_indices,
               "all": list(range(len(dataset.records)))}[args.split]
    if not indices:
        raise CliError(f"the {args.split} split of {args.data} is empty "
                       f"at --holdout {args.holdout}")
    try:
        metrics = train.evaluate_classifier(dataset, indices, token_map, params, config)
    except train.NonFiniteScores as exc:
        raise CliError(f"{args.model}: {exc}") from None
    _write_report(args.metrics_out, metrics, epochs, geometry, config.model_dim, args.seed)


def cmd_convert(argv):
    parser = argparse.ArgumentParser(prog="gyronet convert")
    parser.add_argument("--config", help="key=value settings file")
    parser.add_argument("--in", dest="path_in", required=True)
    parser.add_argument("--out", required=True)
    args = _parse_with_config(parser, argv)
    tokens, matrix, geometry = embed.read_embeddings(args.path_in)
    if geometry == "euclidean":
        raise CliError("euclidean embedding files cannot be converted")
    to_ball = geometry == "hyperboloid"
    out_geometry = "poincare" if to_ball else "hyperboloid"
    with np.errstate(all="ignore"):
        out = to_poincare(matrix) if to_ball else to_hyperboloid(matrix)
        # the ball rows as the files hold them: write_embeddings keeps 9 digits
        ball = np.char.mod("%.9g", out).astype(float) if to_ball else matrix
        squares = np.add.reduce(ball * ball, axis=-1)
        outside = squares >= 1.0
    # a ball row inside the unit sphere converts to finite coordinates, and so
    # does every hyperboloid row read_embeddings accepts: its time is positive
    bad = np.flatnonzero(outside)
    if bad.size:
        raise CliError(f"{args.path_in}:{bad[0] + 2}: a ball row of norm >= 1, not a point")
    embed.write_embeddings(args.out, tokens, out, out_geometry)
    log.info("converted %s (%s) -> %s (%s), %d of %d ball rows at or past the 1 - %g shell",
             args.path_in, geometry, args.out, out_geometry,
             np.count_nonzero(squares >= (1.0 - EPS_BOUNDARY) ** 2), len(squares), EPS_BOUNDARY)


def cmd_geometry_check(argv):
    parser = argparse.ArgumentParser(prog="gyronet geometry-check")
    _add_common(parser)
    args = _parse_with_config(parser, argv)
    results = checks.run_all(seed_offset=args.seed)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"suite {res.name} max_err {res.max_error:.3e} tol {res.tol:.1e} {status}")
        failed = failed or not res.passed
    return 1 if failed else 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-embeddings": cmd_train_embeddings,
    "train-classifier": cmd_train_classifier,
    "evaluate": cmd_evaluate,
    "convert": cmd_convert,
    "geometry-check": cmd_geometry_check,
}


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_pages():
    """Keep the pages a forward frees for the next one, once per process.

    glibc serves a request above its mmap threshold with fresh pages, and it
    returns the top of its heap to the kernel once more than its trim
    threshold lies free there.  Left dynamic, the mmap threshold rises only
    to the largest chunk freed so far (about 256 KiB for an evaluation
    array) while a forward's working set is 3.4 MB to about 96 MB, so each
    forward hands its pages back and the next one faults them in, zeroed,
    again.  This fixes both thresholds from the start at the ceilings glibc's
    own rules reach on 64-bit: a 32 MiB mmap threshold and twice that as the
    trim threshold.  It changes only this process's allocator, and does
    nothing where the C library has no ``mallopt`` or refuses the value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None):
    _keep_freed_pages()
    _setup_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: gyronet COMMAND [options]\ncommands: " + ", ".join(sorted(COMMANDS)),
              file=sys.stderr)
        return 0 if argv else 2
    command = argv[0]
    handler = COMMANDS.get(command)
    if handler is None:
        print(f"gyronet: unknown command '{command}'", file=sys.stderr)
        return 2
    try:
        result = handler(argv[1:])
    except (CliError, ValueError, OSError, bundle.BundleError) as exc:
        print(f"gyronet {command}: error: {exc}", file=sys.stderr)
        return 1
    return int(result or 0)


if __name__ == "__main__":
    sys.exit(main())
