"""Benchmark of the semiprop package on three workloads.

    python3 perfbench/run.py --workload train_sstap --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With `--trace 0` the last line of standard output is a JSON
object holding the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a traced run. The lines before it name every metric
of the workload with its unit, the timing samples behind them, the machine
facts and any failed output check. Scratch files go to `.bench_work/` in
the checkout and are removed at exit. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads: the step kernels are small, and
# a single thread keeps the figures steady on a shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import semiprop from this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import semiprop
    except ImportError as exc:
        print(f"error: cannot import semiprop from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if os.path.dirname(os.path.dirname(os.path.abspath(semiprop.__file__))) != SRC:
        print(f"error: semiprop was imported from {semiprop.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def git_facts() -> dict:
    def git(*args):
        try:
            res = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        return {"commit": None, "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": bool(status) if status is not None else None}


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        **git_facts(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(wl, extra) -> tuple[dict, dict]:
    """Contract metrics for the last line, and the workload's named metrics.
    Rates and set-up time are scaled to nominal machine speed; the report
    keeps the unscaled figures and the measured slowdowns."""
    import numpy as np
    from workloads import timing_summary

    win = wl.measured
    rate = len(win.latencies) / win.nominal_s
    setup = float(np.median(wl.setup_s)) / wl.setup_slowdown
    rss = peak_rss_mb()
    contract = {
        "setup_s": (setup, "s"),
        "steps_or_videos_per_s": (rate, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    failed_frac = len(wl.checks.failures) / wl.checks.attempted
    if wl.item == "step":
        named = {"train_steps_per_s": (rate, "1/s"),
                 "train_loss_mean": (extra["loss_mean"], "1")}
        timings = {"step_ms": timing_summary(win.latencies)}
    else:
        named = {"infer_videos_per_s": (rate, "1/s"),
                 "eval_ms": (1e3 * float(np.median(extra["eval_s"])), "ms"),
                 "proposal_auc": (extra["auc"], "%")}
        timings = {"video_ms": timing_summary(win.latencies),
                   "eval_ms": timing_summary(extra["eval_s"])}
    named.update({"setup_s": (setup, "s"), "failed_frac": (failed_frac, "1"),
                  "peak_rss_mb": (rss, "MB")})
    timings["setup_ms"] = timing_summary(wl.setup_s)
    raw = {"items_per_s": len(win.latencies) / win.wall_s,
           "setup_s": float(np.median(wl.setup_s)),
           "window_slowdown": win.wall_s / win.nominal_s,
           "setup_slowdown": wl.setup_slowdown}
    return contract, {"named": named, "timings": timings, "unscaled": raw}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train_sstap", "train_supervised", "infer_dense"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    import_package()
    import workloads
    from tracer import Tracer

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    tracer = Tracer() if args.trace else None
    try:
        wl = workloads.make(args.workload, args.seed, work)
        extra = wl.run(args.seconds, tracer)
        if args.trace:
            metrics, report = workloads.layer_metrics(wl, tracer, extra), {}
        else:
            metrics, report = end_to_end(wl, extra)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    report.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "machine": machine_facts(),
                   "failed_checks": wl.checks.failures[:20]})
    for name, (value, unit) in report.get("named", {}).items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not wl.checks.failures,
        "attempted": wl.checks.attempted,
        "failed": len(wl.checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
