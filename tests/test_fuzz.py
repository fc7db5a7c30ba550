"""Byte-level fuzzing of every file format the CLI reads.

Each example flips, overwrites, truncates or extends the bytes of one file of
a small trained run and runs the command that reads it. The exit must be 0
or 2; a checkpoint whose payload decodes to huge weights may also stop with
a numeric error (3). A usage error (1), a traceback or a warning is a bug.
"""

import contextlib
import io
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiprop.cli import main

TRAIN_FLAGS = ["--hidden", "4", "--pem-hidden", "4", "--n-samples", "4",
               "--max-duration", "8", "--mu", "0.5"]


def _infer(root):
    return ["infer", "--checkpoint", str(root / "run" / "checkpoint.bin"),
            "--manifest", str(root / "data" / "manifest.json"), "--out", str(root / "out")]


def _train(root):
    return ["train", "--manifest", str(root / "data" / "manifest.json"),
            "--out", str(root / "out"), "--epochs", "1"] + TRAIN_FLAGS


def _eval(root):
    return ["eval", "--proposals", str(root / "props"),
            "--manifest", str(root / "data" / "manifest.json"), "--out", str(root / "out")]


def _resume(root):
    return ["train", "--manifest", str(root / "data" / "manifest.json"),
            "--out", str(root / "run"), "--resume", str(root / "run" / "checkpoint.bin"),
            "--epochs", "2"] + TRAIN_FLAGS


# format -> (file damaged, command that reads it, allowed exit codes)
FORMATS = {
    "features": ("data/v00000.feat", _infer, {0, 2}),
    "checkpoint": ("run/checkpoint.bin", _infer, {0, 2, 3}),
    "checkpoint_resume": ("run/checkpoint.bin", _resume, {0, 2, 3}),
    "manifest": ("data/manifest.json", _train, {0, 2}),
    "proposals": ("props/v00000.props.tsv", _eval, {0, 2}),
    "metrics": ("run/metrics.jsonl", _resume, {0, 2}),
}

POSITION = st.integers(0, 2 ** 20)
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), POSITION, st.integers(0, 7)),
    st.tuples(st.just("overwrite"), POSITION, st.integers(0, 255)),
    st.tuples(st.just("truncate"), POSITION),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=8)),
)


def mutate(blob: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind == "extend":
        return blob + args[0]
    pos = args[0] % len(blob)
    if kind == "truncate":
        return blob[:pos]
    byte = blob[pos] ^ (1 << args[1]) if kind == "flip" else args[1]
    return blob[:pos] + bytes([byte]) + blob[pos + 1:]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A T = 16, C = 4 dataset, a one-epoch run and its proposals."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-data", "--out", str(root / "data"), "--videos", "3",
                 "--snippets", "16", "--channels", "4", "--labeled", "0.7",
                 "--seed", "5"]) == 0
    assert main(["train", "--manifest", str(root / "data" / "manifest.json"),
                 "--out", str(root / "run"), "--epochs", "1"] + TRAIN_FLAGS) == 0
    assert main(["infer", "--checkpoint", str(root / "run" / "checkpoint.bin"),
                 "--manifest", str(root / "data" / "manifest.json"),
                 "--out", str(root / "props")]) == 0
    return root


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=25, derandomize=True, deadline=None)
@given(mutation=MUTATIONS)
def test_damaged_file_gives_documented_exit(pristine, fmt, mutation):
    name, command, allowed = FORMATS[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "case"
        shutil.copytree(pristine, root)
        target = root / name
        target.write_bytes(mutate(target.read_bytes(), mutation))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = main(command(root))
    assert rc in allowed, f"{fmt} {mutation}: exit {rc}: {err.getvalue()}"
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
