"""Every function the benchmark's tracer patches still exists in cyclat.

``bench/tracing.py`` raises at install time when a traced name is missing,
which only shows under ``python -m pytest bench`` or a traced benchmark run.
This test resolves each ``TARGETS`` entry the same way, so renaming or
removing a traced function fails here too.  The benchmark file is only read.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.TARGETS
    for name, module_name, path in tracing.TARGETS:
        assert module_name.startswith("cyclat."), name
        importlib.import_module(module_name)
        try:
            _, _, original = tracing._resolve(module_name, path)
        except (AttributeError, KeyError) as exc:
            pytest.fail(f"traced target {name} ({module_name}.{path}) is missing: {exc!r}")
        assert callable(original), name
