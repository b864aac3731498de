"""The public surface, pinned: every name each package exports.

For ``repro`` and each of its subpackages, every name in ``__all__``
maps to the parameter names of its constructor (classes) or call
(functions), or to ``null`` (constants).  Names only: annotation
strings differ across Python versions.  Exports may be narrowed, but a
narrowing shows up here as a reviewed diff next to its CHANGES note.
When a change to the surface is *intentional*, regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_public_api.py
"""

import importlib
import inspect
import json
import os
import pathlib

import pytest

TABLE = pathlib.Path(__file__).parent / "golden" / "public_api.json"

PACKAGES = ["repro"] + [f"repro.{name}" for name in (
    "calibrator", "core", "db", "hardware", "obs", "optimizer", "query",
    "server", "service", "session", "simulator", "validation", "whatif")]


def _parameters(obj) -> list[str] | None:
    if inspect.isclass(obj) and issubclass(obj, BaseException):
        # raised, not built by callers; a built-in constructor has no
        # signature that holds across Python versions
        return []
    if inspect.isclass(obj) or inspect.isroutine(obj):
        return list(inspect.signature(obj).parameters)
    return None


def _surface(package: str) -> dict[str, list[str] | None]:
    module = importlib.import_module(package)
    return {name: _parameters(getattr(module, name))
            for name in module.__all__}


def _render(table: dict) -> str:
    """JSON with one line per exported name, so that a changed
    signature is a one-line diff."""
    blocks = []
    for package in sorted(table):
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(params)}"
                          for name, params in sorted(table[package].items()))
        blocks.append(f" {json.dumps(package)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_table_is_complete():
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        TABLE.parent.mkdir(exist_ok=True)
        TABLE.write_text(_render({p: _surface(p) for p in PACKAGES}))
    assert sorted(json.loads(TABLE.read_text())) == sorted(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_match_golden(package):
    assert _surface(package) == json.loads(TABLE.read_text())[package]
