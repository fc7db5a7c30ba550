"""Random flags for every subcommand.

Each example draws one subcommand's argv from its flags: integers (0,
negatives, large), floats (nan, inf, -0.0), empty and non-numeric strings,
and missing, directory and wrong-kind paths. The exit must be 0, 1, 2 or 3
(argparse's usage error counts by its `SystemExit` code), stderr must hold
no traceback, and a usage or data error (1 or 2) must not leave an `--out`
behind that was not there before.

A flag whose value sets the work or memory of a run (a size, a batch size,
the epochs, grad-check's whole shape, the length of the seed list) draws
only tiny values, so every example is cheap; any other integer flag also
draws large ones.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiprop.cli import main
from semiprop.trainer import TrainConfig

JUNK = ["", "abc", "1.5.2", " ", "0x10"]
SPECIAL = ["nan", "inf", "-inf", "-0.0"]
BIG = ["2147483648", "9223372036854775808", "9" * 30]
INT = ["0", "-1", "-7", "1", "3", *BIG, "1.5", *SPECIAL, *JUNK]
FLOAT = ["0", "-1", "0.5", "1", "2", "1e308", "-1e308", "1e-320", *BIG, *SPECIAL, *JUNK]
DROP = object()  # leave out a flag the base argv holds


def tiny(*ok):
    """A size flag: the small values `ok`, 0, negatives and non-numbers."""
    return ["0", "-1", "-3", *map(str, ok), "1.5", *SPECIAL, *JUNK]


def paths(good, wrong_kind):
    """An input path: `good`, a `wrong_kind` file, a directory, a missing
    path and the empty string. Placeholders name the fixture's parts."""
    return [good, wrong_kind, "{data}", "{tmp}/missing", ""]


OUT = ["{tmp}/out", "{tmp}/existing", "{tmp}/file", "{tmp}/a/b/out", ""]
MANIFEST = paths("{data}/manifest.json", "{data}/v00000.feat")
CONFIG = paths("{root}/config.json", "{data}/manifest.json")
CHECKPOINT = paths("{run}/checkpoint.bin", "{data}/v00000.feat")
THRESHOLDS = ["anet", "thumos", "coco", ""]

# subcommand -> (base argv as flag -> value, flag -> values to draw from)
COMMANDS = {
    "gen-data": (
        {"--out": "{tmp}/out", "--videos": "2", "--snippets": "16", "--channels": "4"},
        {"--out": OUT, "--videos": tiny(1, 2, 3), "--snippets": tiny(15, 16, 17),
         "--channels": tiny(3, 4, 5), "--labeled": FLOAT, "--seed": INT}),
    "train": (
        {"--manifest": "{data}/manifest.json", "--out": "{tmp}/out", "--epochs": "1",
         "--hidden": "4", "--pem-hidden": "4", "--n-samples": "4",
         "--max-duration": "8", "--mu": "0.5"},
        {"--manifest": MANIFEST, "--config": CONFIG, "--out": OUT, "--resume": CHECKPOINT,
         "--mode": ["sstap", "supervised", "no_order", "no_shift", "all", ""],
         **dict.fromkeys(["--alpha", "--lambda1", "--lambda2", "--lambda3", "--lambda4",
                          "--mu", "--omega", "--p-drop", "--lr"], FLOAT),
         "--batch-labeled": tiny(1, 2, 3), "--batch-unlabeled": tiny(1, 2),
         "--epochs": tiny(1, 2), "--seed": INT, "--hidden": tiny(1, 2, 4),
         "--pem-hidden": tiny(1, 2, 4), "--n-samples": tiny(2, 3, 4),
         "--max-duration": tiny(1, 8, 16, 17),
         "--precision": ["float32", "float64", "float16", ""]}),
    "infer": (
        {"--checkpoint": "{run}/checkpoint.bin", "--manifest": "{data}/manifest.json",
         "--out": "{tmp}/out"},
        {"--checkpoint": CHECKPOINT, "--manifest": MANIFEST, "--out": OUT,
         "--weights": ["student", "teacher", "both", ""], "--sigma": FLOAT,
         "--score-floor": FLOAT, "--max-out": INT}),
    "eval": (
        {"--proposals": "{props}", "--manifest": "{data}/manifest.json"},
        {"--proposals": paths("{props}", "{props}/v00000.props.tsv"), "--manifest": MANIFEST,
         "--out": OUT, "--thresholds": THRESHOLDS,
         # a list of every AN is built, so a large value is one past ssize_t
         "--an-max": tiny(1, 10, 100, 101) + ["9223372036854775808"]}),
    "grad-check": (
        {"--snippets": "4", "--channels": "2", "--hidden": "2", "--pem-hidden": "2",
         "--max-duration": "3", "--n-samples": "2"},
        {"--snippets": tiny(1, 2, 4), "--channels": tiny(1, 2), "--hidden": tiny(1, 2),
         "--pem-hidden": tiny(1, 2), "--max-duration": tiny(1, 3, 5),
         "--n-samples": tiny(2, 3), "--seed": INT}),
    "ablate": (
        {"--seeds": "1", "--train-manifest": "{data}/manifest.json",
         "--test-manifest": "{data}/manifest.json", "--config": "{root}/config.json",
         "--out": "{tmp}/out"},
        {"--grid": ["default", "components", "none", ""],
         "--seeds": ["0", "1,2", "2,2", "-1", "1,,2", ",", "a", "1.5", BIG[-1], *SPECIAL,
                     *JUNK],
         "--train-manifest": MANIFEST, "--test-manifest": MANIFEST, "--config": CONFIG,
         "--out": OUT, "--thresholds": THRESHOLDS}),
}


@st.composite
def argvs(draw, command):
    """The base argv of `command` with up to three flags redrawn or dropped."""
    base, values = COMMANDS[command]
    flags = dict(base)
    for flag in draw(st.lists(st.sampled_from(list(values)), max_size=3, unique=True)):
        value = draw(st.sampled_from([DROP, *values[flag]] if flag in base
                                     else values[flag]))
        if value is DROP:
            del flags[flag]
        else:
            flags[flag] = value
    return flags


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A T = 16, C = 4 dataset, a small config, a one-epoch run and its proposals."""
    root = tmp_path_factory.mktemp("flags")
    TrainConfig(hidden=4, pem_hidden=4, n_samples=4, max_duration=8, mu=0.5,
                epochs=1).to_file(root / "config.json")
    assert main(["gen-data", "--out", str(root / "data"), "--videos", "3",
                 "--snippets", "16", "--channels", "4", "--labeled", "0.7",
                 "--seed", "5"]) == 0
    assert main(["train", "--manifest", str(root / "data" / "manifest.json"),
                 "--config", str(root / "config.json"), "--out", str(root / "run")]) == 0
    assert main(["infer", "--checkpoint", str(root / "run" / "checkpoint.bin"),
                 "--manifest", str(root / "data" / "manifest.json"),
                 "--out", str(root / "props")]) == 0
    return root


def run(argv):
    """`main`'s exit code and stderr, an argparse exit counted by its code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_random_flags_give_documented_exit(pristine, tmp_path_factory, command, data):
    flags = data.draw(argvs(command))
    tmp = tmp_path_factory.mktemp(command)
    (tmp / "existing").mkdir()
    (tmp / "file").write_text("not a directory\n")
    where = {"root": pristine, "data": pristine / "data", "run": pristine / "run",
             "props": pristine / "props", "tmp": tmp}
    flags = {flag: value.format(**where) for flag, value in flags.items()}
    out = flags.get("--out")
    existed = out is not None and os.path.lexists(out)
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
    with contextlib.chdir(tmp):  # a run with an empty --out writes under runs/
        rc, err = run(argv)
    assert rc in {0, 1, 2, 3}, f"{argv}: exit {rc}: {err}"
    assert "Traceback" not in err, argv
    if rc in (1, 2) and out and not existed:
        assert not Path(out).exists(), f"{argv}: exit {rc} left {out}: {err}"
