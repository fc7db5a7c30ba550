"""Checks on the benchmark itself; run with `python3 -m pytest perfbench/tests`.

Two traced runs on one seed must report identical counts (op calls,
forward passes, computed MFLOP, candidates and kept proposals) and
identical output digests, so that a later change can rest a claim on them.
Each run takes about ten seconds.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("train_sstap", "train_supervised", "infer_dense")
EXACT_SUFFIXES = (".calls", ".mflop", "_per_video", "kept_ratio",
                  "trainer.loss_mean", "metrics.proposal_auc")


def run(workload, seed=3, seconds=2, trace=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, spec):
    first, second = run(workload), run(workload)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert sorted(res["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    exact = [k for k in first["metrics"] if k.endswith(EXACT_SUFFIXES)]
    assert len(exact) >= 15
    for k in exact:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k
    assert first["metrics"]["model.forward.calls"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric(spec):
    res = run("train_supervised", trace=0)
    assert res["correct"] and res["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(v["value"] > 0 for v in res["metrics"].values())
