"""Stale-export guard: every public name a module declares must exist."""

import importlib

import pytest

MODULES = ("numkit", "groups", "spaces", "decomp", "geometry", "automorphy",
           "serialize", "suites", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    mod = importlib.import_module(f"sjkit.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"sjkit.{name}.__all__ names missing objects: {missing}"
    namespace = {}
    exec(f"from sjkit.{name} import *", namespace)
    for n in getattr(mod, "__all__", ()):
        assert namespace[n] is getattr(mod, n)
