"""The benchmark tracer's bindings: every name it wraps is a callable where it looks for it.

The tracer (benchmark/tracing.py) rebinds functions by name on their
owning module or class, and the postproc workload rebinds cli.nms.  A
name those lookups miss fails only a traced benchmark run, with a
KeyError; these tests fail at once instead.
"""

import importlib.util
import sys
from pathlib import Path

from uatrack import cli

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing(monkeypatch):
    """benchmark/tracing.py loaded from its path, as a module of its own."""
    spec = importlib.util.spec_from_file_location("_uatrack_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_a_callable_its_owner_holds(monkeypatch):
    table = _tracing(monkeypatch).patch_table()
    assert table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({span})" for owner, attr, span, _ in table
               if not callable(owner.__dict__.get(attr))]
    assert missing == []


def test_cli_binds_nms():
    assert callable(cli.__dict__["nms"])
