import importlib
import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls("module.name") -> a list that gains the arguments of each
    call of that sjkit function, through every sjkit module that holds it;
    count_calls("module.Class.method") counts a method's calls."""

    def count(path: str) -> list:
        module, *owner, name = path.split(".")
        holder = importlib.import_module(f"sjkit.{module}")
        for cls in owner:
            holder = getattr(holder, cls)
        calls, inner = [], getattr(holder, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        if owner:
            monkeypatch.setattr(holder, name, counted)
            return calls
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "sjkit" and getattr(mod, name, None) is inner:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return count


@pytest.fixture
def guards(count_calls):
    """A list that gains one entry per conditioning guard (numkit._check_cond)
    called, through every sjkit module that imports the guard."""
    return count_calls("numkit._check_cond")
