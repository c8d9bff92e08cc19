import sys

import pytest

from sjkit import numkit


@pytest.fixture
def guards(monkeypatch):
    """A list that gains one entry per conditioning guard (numkit._check_cond)
    called, through every sjkit module that imports the guard."""
    calls, inner = [], numkit._check_cond

    def counted(*args):
        calls.append(1)
        return inner(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sjkit" and getattr(module, "_check_cond", None) is inner:
            monkeypatch.setattr(module, "_check_cond", counted)
    return calls
