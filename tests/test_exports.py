"""The package namespace re-exports every module's public names."""

import importlib
import pkgutil

import pytest

import flagrecon as fr

# the command line is an entry point, not library API
MODULES = sorted(m.name for m in pkgutil.iter_modules(fr.__path__) if m.name != "cli")


def test_the_library_modules_are_found():
    assert MODULES == [
        "complexes",
        "coxeter",
        "formats",
        "graphs",
        "homology",
        "manifolds",
        "reconstruction",
        "reports",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_the_same_object_on_the_package(module):
    mod = importlib.import_module(f"flagrecon.{module}")
    assert [n for n in mod.__all__ if getattr(fr, n, None) is not getattr(mod, n)] == []
