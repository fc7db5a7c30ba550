"""Run every workload once and print each named metric with its unit.

    python3 perfbench/suite.py --seed 1 --seconds 20 [--trace] [--record FILE]

Each workload runs in its own process (`run.py`), so that `peak_rss_mb` is
that workload's own. With `--trace` a traced run of each workload follows
the untraced one. With `--record FILE` the full reports, machine facts
included, are written to FILE as JSON. Exits 1 if a run fails or an output
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_sstap", "train_supervised", "infer_dense")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
    if proc.returncode != 0:
        return {"workload": workload, "trace": trace, "error": proc.stderr[-4000:]}
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    report["result"] = json.loads(lines[-1])
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", action="store_true", help="add a traced run per workload")
    p.add_argument("--record", help="write all reports to this JSON file")
    args = p.parse_args(argv)

    reports, ok = [], True
    for wl in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            rep = run_one(wl, args.seed, args.seconds, trace)
            reports.append(rep)
            if "error" in rep:
                ok = False
                print(f"{wl} trace={trace} FAILED:\n{rep['error']}", file=sys.stderr)
                continue
            res = rep["result"]
            ok &= res["correct"]
            if trace:
                for name, m in res["metrics"].items():
                    print(f"{wl:16s} {name:36s} {m['value']:12.6g} {m['unit']}")
            else:
                for name, (value, unit) in rep["named"].items():
                    print(f"{wl:16s} {name:36s} {value:12.6g} {unit}")
                for name, t in rep["timings"].items():
                    print(f"{wl:16s} {name:36s} " + " ".join(
                        f"{k}={v:.4g}" for k, v in t.items()))
            print(f"{wl:16s} checks: {res['attempted']} attempted, {res['failed']} failed")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "runs": reports},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
