"""The README's code references name code that exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import semiprop

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(semiprop.__path__))
# `module.name` or `semiprop.module.name`, with or without a call's arguments
REFERENCE = re.compile(rf"`(?:semiprop\.)?({'|'.join(MODULES)})\.(\w+)(?:\([^`]*\))?`")
FILE_SUFFIXES = {"json", "jsonl", "csv", "tsv", "bin", "txt", "feat", "md", "py"}


def references():
    found = REFERENCE.findall(README.read_text(encoding="utf-8"))
    return sorted({ref for ref in found if ref[1] not in FILE_SUFFIXES})


def test_readme_has_module_references():
    assert len(references()) >= 15


@pytest.mark.parametrize("module,name", references())
def test_readme_reference_resolves(module, name):
    assert hasattr(importlib.import_module(f"semiprop.{module}"), name), f"{module}.{name}"
