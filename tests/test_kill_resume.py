"""A training run killed at any point resumes to the bytes of a run that was
never killed. `semiprop train` runs as a child process; the test sends
SIGKILL to that child only, then resumes from its `checkpoint.bin`, or
starts it again in the same `--out` when no checkpoint was written yet."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import semiprop
from semiprop.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(semiprop.__file__)))
TRAIN_FLAGS = ["--epochs", "3", "--hidden", "8", "--pem-hidden", "4", "--n-samples", "4",
               "--max-duration", "8", "--mu", "0.5", "--seed", "1"]
N_KILLS = 3
TIMEOUT_S = 120


@pytest.fixture
def manifest(tmp_path):
    root = tmp_path / "data"
    assert main(["gen-data", "--out", str(root), "--videos", "6", "--snippets", "16",
                 "--channels", "4", "--labeled", "0.5", "--seed", "3"]) == 0
    return root / "manifest.json"


@pytest.fixture
def start_train(manifest):
    """Start `semiprop train` in a child process; a child still running at
    teardown (a failed assertion, a timeout) is killed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    children = []

    def start(out, resume=False):
        cmd = [sys.executable, "-m", "semiprop.cli", "train", "--manifest", str(manifest),
               "--out", str(out)] + TRAIN_FLAGS
        if resume:
            cmd += ["--resume", str(out / "checkpoint.bin")]
        children.append(subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                         stderr=subprocess.PIPE, text=True))
        return children[-1]

    yield start
    for proc in children:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def wait_for_lines(proc, out, n: int) -> None:
    """Wait until the child's `metrics.jsonl` holds `n` complete lines (or the
    child has exited). The child creates the file empty just before its first
    epoch, and writes each epoch's line just before that epoch's checkpoint."""
    path = out / "metrics.jsonl"
    deadline = time.monotonic() + TIMEOUT_S
    while proc.poll() is None and not (path.exists() and path.read_bytes().count(b"\n") >= n):
        assert time.monotonic() < deadline, f"child wrote no metrics line {n}"
        time.sleep(2e-4)


def finish(proc) -> None:
    _, err = proc.communicate(timeout=TIMEOUT_S)
    assert proc.returncode == 0, err


def losses(out) -> list[dict]:
    """The metrics lines without their wall times, which differ run to run."""
    lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    return [{k: v for k, v in json.loads(ln).items() if k != "wall_time_s"} for ln in lines]


def test_killed_run_resumes_to_identical_bytes(start_train, tmp_path):
    """Kill i lands a seeded fraction of one epoch after the child has
    written its i-th metrics line. The fractions (0.66, 0.61, 0.009) put
    the first kill in epoch 1, before any checkpoint, so the run starts
    again; the second in epoch 2, so it resumes from epoch 1; and the third
    just after epoch 2's metrics line, before or inside that epoch's
    checkpoint write, so the resume must also cut that line back. The third
    always comes after the first checkpoint, so a resume always runs."""
    ref = tmp_path / "ref"
    finish(start_train(ref))
    epoch_s = np.mean([json.loads(ln)["wall_time_s"] for ln in
                       (ref / "metrics.jsonl").read_text(encoding="utf-8").splitlines()])
    delays = epoch_s * np.random.default_rng(192).random(N_KILLS)

    resumed = []
    for i, delay in enumerate(delays):
        out = tmp_path / f"killed{i}"
        proc = start_train(out)
        wait_for_lines(proc, out, i)
        time.sleep(delay)
        if proc.poll() is None:
            proc.kill()
        proc.communicate(timeout=TIMEOUT_S)
        resumed.append((out / "checkpoint.bin").exists())
        finish(start_train(out, resume=resumed[-1]))

        assert sorted(os.listdir(out)) == sorted(os.listdir(ref)), f"kill {i} at {delay:.3f} s"
        for name in ("checkpoint.bin", "config.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (name, i, delay)
        assert losses(out) == losses(ref), (i, delay)
    assert resumed[-1]
