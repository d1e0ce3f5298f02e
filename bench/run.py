"""gyronet benchmark: CLI workloads timed end to end, traced per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload skipgram --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process is one closed-loop client: it issues the workload's CLI commands
one after another through ``gyronet.cli.main``, in-process, on one thread.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of one traced round and the tracing overhead.  The last
line of standard output is one JSON object; the exit code is non-zero when a
command or an output check failed.  ``--workload all`` runs every workload,
traced and untraced, in child processes and adds the Poincare / euclidean
headline ratios.  See README.md in this directory for every metric.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
WORKLOADS = ("skipgram", "classify-poincare", "classify-euclidean")

END_TO_END = {
    "setup_s": "s",
    "primary_per_s": "1/s",
    "primary_loss": "nats",
    "secondary_per_s": "1/s",
    "peak_rss_mb": "MB",
}
MIN_ROUNDS = 3


def per_layer_names():
    from tracer import Tracer, layer_metrics
    return list(layer_metrics(Tracer())) + [
        f"trace.overhead_pct.{key}" for key in ("primary_per_s", "secondary_per_s")]


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.startswith("trace.overhead_pct."):
        return "%"
    if "_ms." in name:
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("calls"):
        return "count"
    if name.startswith("diffcore.nodes") or name.endswith(".nodes"):
        return "nodes"
    return {"embed.pairs": "pairs", "geometry.rows_per_call": "rows",
            "bundle.bytes": "bytes"}[name]


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"] + " (pinned)"
    try:
        import ctypes
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
        if libs:
            lib = ctypes.CDLL(str(libs[0]))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, sizes):
    import dataclasses
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": dataclasses.asdict(sizes),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _calibrated(fn):
    """Run ``fn()``; return its wall seconds scaled to the reference machine
    speed by calibrations just before and after it."""
    from workloads import CALIBRATION_S, calibrate
    before = calibrate()
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    return seconds * 2 * CALIBRATION_S / (before + calibrate())


def _rounds(run, workload, budget):
    """Repeat the workload's round until ``budget`` seconds have passed."""
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < budget:
        rounds.append(workload.round(run))
    return rounds


def _summary(values):
    q = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure(run, name, seed, seconds, trace, import_s, sizes, spans_path=None):
    """Set up, run rounds for ``seconds`` and return (metrics, report).

    Commands and checks are counted in ``run``.  With ``trace`` the spans of
    the traced round are written to ``spans_path``.
    """
    from tracer import Tracer, layer_metrics
    from workloads import CALIBRATION_S, calibrate, make_workload

    workload = make_workload(name, sizes)
    report = {"rounds": {}}
    if trace:
        setup_tracer = Tracer()
        run.tracer = setup_tracer
        with setup_tracer.installed():
            workload.setup(run, seed)
        run.tracer = None
    else:
        import_s *= CALIBRATION_S / calibrate()
        setup_times = [_calibrated(lambda: workload.setup(run, seed))
                       for _ in range(sizes.setup_reps)]
        report["setup_reps_s"] = setup_times
        report["import_s"] = import_s
    run.calibrating = True
    workload.round(run)  # warm-up, not timed
    rounds = _rounds(run, workload, seconds / 2 if trace else seconds)
    for key in rounds[0]:
        report["rounds"][key] = _summary([r[key] for r in rounds])
    if trace:
        tracer = Tracer()
        run.tracer = tracer
        with tracer.installed():
            traced = workload.round(run)
        run.tracer = None
        metrics = layer_metrics(tracer, setup_tracer, pairs=workload.round_pairs)
        for key in ("primary_per_s", "secondary_per_s"):
            untraced = report["rounds"][key]["median"]
            metrics[f"trace.overhead_pct.{key}"] = (untraced / traced[key] - 1.0) * 100.0
        report["spans"] = len(tracer.start)
        if spans_path:
            tracer.dump(spans_path)
    else:
        metrics = {key: report["rounds"][key]["median"] for key in END_TO_END
                   if key in report["rounds"]}
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.final_checks(run)
    run.check_hashes()
    report["aliases"] = {key: {"name": alias, "unit": unit,
                               "value": report["rounds"][key]["median"]}
                         for key, (alias, unit) in workload.aliases.items()}
    return metrics, report


def run_one(args, import_s):
    from workloads import CommandFailed, Run, Sizes

    OUT.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    sizes = Sizes()
    run = Run(workdir)
    try:
        metrics, report = measure(run, args.workload, args.seed, args.seconds, args.trace,
                                  import_s, sizes,
                                  OUT / f"{args.workload}-seed{args.seed}-spans.json")
    except CommandFailed:
        metrics, report = {}, {"rounds": {}, "aliases": {}}
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if metrics:
        names = per_layer_names() if args.trace else list(END_TO_END)
        metrics = {name: {"value": metrics[name], "unit": unit_of(name)} for name in names}
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    prov = provenance(args, sizes)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, report=report, failures=run.failures, provenance=prov), fh,
                  indent=1)

    print(f"# {args.workload} seed {args.seed} trace {args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:38s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        for key, alias in report["aliases"].items():
            spread = report["rounds"][key]
            print(f"  {alias['name']:36s} {alias['value']:>16.6g} {alias['unit']}"
                  f"  (= {key}; q1 {spread['q1']:.6g} q3 {spread['q3']:.6g}"
                  f" over {spread['n']} rounds)")
    rounds = report["rounds"]
    for key in ("primary_per_s", "secondary_per_s"):
        if "raw_" + key in rounds:
            print(f"  raw_{key} {rounds['raw_' + key]['median']:.6g} 1/s"
                  " (wall clock, not scaled to the reference machine speed)")
    print(f"  error_rate {len(run.failures) / run.attempted:.6g} fraction"
          f" ({len(run.failures)} of {run.attempted} commands and checks)")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload
# ---------------------------------------------------------------------------

def run_all(args):
    results = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                status = 1
                continue
            results[(workload, trace)] = json.loads(lines[-1])

    def layer(workload, name):
        return results[(workload, 1)]["metrics"][name]["value"]

    print("# headline ratios, classify-poincare / classify-euclidean (not gated)")
    if (("classify-poincare", 1) in results) and (("classify-euclidean", 1) in results):
        for name in ("train.step_ms.p50", "diffcore.nodes_per_step"):
            p, e = layer("classify-poincare", name), layer("classify-euclidean", name)
            print(f"  {name}: {p / e:.4g}x  (poincare {p:.6g} / euclidean {e:.6g}"
                  f" {unit_of(name)})")
    print("# tracing overhead, traced vs untraced round")
    for workload in WORKLOADS:
        if (workload, 1) in results:
            for key in ("primary_per_s", "secondary_per_s"):
                print(f"  {workload} {key}: "
                      f"{layer(workload, f'trace.overhead_pct.{key}'):+.3g}% time")
    combined = {"correct": status == 0 and all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{name}": m for (w, _), r in sorted(results.items())
                            for name, m in r["metrics"].items()}}
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gyronet" / "__init__.py").is_file():
        print(f"error: no gyronet sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import gyronet
    import gyronet.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if SRC not in Path(gyronet.__file__).resolve().parents:
        print(f"error: gyronet imported from {gyronet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
