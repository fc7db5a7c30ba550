"""The benchmark harness (`perfbench/run.py`) runs each workload to the end,
untraced and traced, with every output check passing. It drives the package
through its public API (`ProposalNetwork.forward(..., heads=, train_mode=,
requires_grad=)`, `Trainer.run`, the post-processing and the evaluation), so
a change to that API that the benchmark does not follow fails here."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_layer_names_resolve():
    """Every (module, attribute) the tracer times names a function or method
    in semiprop: a renamed one would leave its per-layer metrics at zero
    rather than fail the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr in tracer.LAYER_FUNCTIONS:
        obj = importlib.import_module(f"semiprop.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert tracer.LAYER_FUNCTIONS and not missing, missing


WORKLOADS = ["train_sstap", "train_supervised", "infer_dense"]


# untraced, and traced: the tracer wraps every public autodiff op it finds at
# run time, so a change to the op set can break a traced run alone
@pytest.mark.parametrize("workload,trace", [(w, "0") for w in WORKLOADS]
                         + [(w, "1") for w in WORKLOADS],
                         ids=WORKLOADS + [f"{w}-traced" for w in WORKLOADS])
def test_benchmark_workload_runs_clean(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.5", "--trace", trace]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr[-4000:]
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, res.stdout[-4000:]
