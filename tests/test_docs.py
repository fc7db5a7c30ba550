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


def package_classes():
    """Every class that a module of the package defines, by name."""
    found = {}
    for module in (importlib.import_module(f"semiprop.{m}") for m in MODULES):
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert name not in found, f"two classes named {name}"
                found[name] = obj
    return found


CLASSES = package_classes()
# a bare `Class.attribute`, with or without a call's arguments
CLASS_REFERENCE = re.compile(rf"`({'|'.join(CLASSES)})\.(\w+)(?:\([^`]*\))?`")


def references():
    found = REFERENCE.findall(README.read_text(encoding="utf-8"))
    return sorted({ref for ref in found if ref[1] not in FILE_SUFFIXES})


def class_references():
    return sorted(set(CLASS_REFERENCE.findall(README.read_text(encoding="utf-8"))))


def test_readme_has_module_references():
    assert len(references()) >= 15


@pytest.mark.parametrize("module,name", references())
def test_readme_reference_resolves(module, name):
    assert hasattr(importlib.import_module(f"semiprop.{module}"), name), f"{module}.{name}"


def test_readme_has_class_references():
    assert {("CellRows", "put"), ("GateTape", "relu")} <= set(class_references())


@pytest.mark.parametrize("cls,name", class_references())
def test_readme_class_reference_resolves(cls, name):
    assert hasattr(CLASSES[cls], name), f"{cls}.{name}"
