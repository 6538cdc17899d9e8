"""The benchmark's traced names resolve on the library.

``perfbench/tracing.py`` wraps each ``(module, name)`` of ``TRACED`` with a
bare ``getattr``, so renaming a traced function would crash traced runs.
The harness's own tests live under ``perfbench/``, which a bare ``pytest``
does not collect; this test reads ``TRACED`` from the file directly.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module,name", traced_names())
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"flagrecon.{module}"), name, None))
