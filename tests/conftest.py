import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import counts  # noqa: E402


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls("module.name") -> a list that gains the arguments of each
    call of that sjkit function, through every sjkit module that holds it;
    count_calls("module.Class.method") counts a method's calls.  The wrapping
    is bench/counts.py's, undone by monkeypatch."""
    return lambda path: counts.counted_calls(path, monkeypatch.setattr)


@pytest.fixture
def guards(count_calls):
    """A list that gains one entry per conditioning guard (numkit._check_cond)
    called, through every sjkit module that imports the guard."""
    return count_calls("numkit._check_cond")
