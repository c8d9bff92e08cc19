"""Golden reports: every suite's report, and each trial's residual, must keep
the bits recorded in tests/data/reports_golden.json.

Regenerate the file (only for an intended report change, recorded in
CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py

which prints the key of each entry whose bits change, with its report's
max_residual before and after, and writes nothing if a regenerated report
fails, as the golden test pins passing reports only.
"""

import json
import sys
from pathlib import Path

import numpy as np

from sjkit.suites import SUITES, run_suite, trial_seed

GOLDEN = Path(__file__).parent / "data" / "reports_golden.json"
SHAPES = [(1, 1), (2, 1), (4, 3)]
TRIALS, SEED = 20, 3


def _hex(report: dict) -> dict:
    """The report with each float written as float.hex, so that a comparison
    sees every bit."""
    return {**report, "max_residual": report["max_residual"].hex(),
            "tolerance": report["tolerance"].hex(),
            "failures": [{**f, "residual": f["residual"].hex()} for f in report["failures"]]}


def reports() -> dict:
    seeds = [trial_seed(SEED, i) for i in range(TRIALS)]
    out = {}
    for name, (suite, _) in SUITES.items():
        for g, h in SHAPES:
            out[f"{name} {g} {h}"] = {
                "report": _hex(run_suite(name, g, h, trials=TRIALS, seed=SEED).to_dict()),
                "residuals": [float(r).hex() for r in np.asarray(suite(g, h, seeds), dtype=float)],
            }
    return out


def test_reports_keep_their_golden_bits():
    golden = json.loads(GOLDEN.read_text())
    got = reports()
    assert sorted(got) == sorted(golden)
    # a regeneration must not pin a failing report
    assert all(want["report"]["passed"] for want in golden.values())
    for key, want in golden.items():
        assert got[key] == want, key


def _max_residual(entry) -> str:
    """The report's max_residual as a float's repr, "-" for a missing entry."""
    return "-" if entry is None else repr(float.fromhex(entry["report"]["max_residual"]))


def regenerate(got: dict, path: Path = GOLDEN) -> int:
    """Print each key whose entry in got differs from path's, with the old and
    the new max_residual, and write got to path unless one of its reports
    fails; 0 if written, 1 if not."""
    old = json.loads(path.read_text()) if path.exists() else {}
    for key in sorted(got.keys() | old.keys()):
        if got.get(key) != old.get(key):
            was, now = _max_residual(old.get(key)), _max_residual(got.get(key))
            print(f"changed: {key}  max_residual {was} -> {now}")
    failing = sorted(key for key, entry in got.items() if not entry["report"]["passed"])
    if failing:
        print(f"not written: failing reports: {', '.join(failing)}", file=sys.stderr)
        return 1
    path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    return 0


def test_regeneration_names_the_changed_keys_and_pins_no_failing_report(tmp_path, capsys):
    report = {"passed": True, "max_residual": "0x0.0p+0"}
    path, ok = tmp_path / "golden.json", {"report": report, "residuals": ["0x0.0p+0"]}
    path.write_text(json.dumps({"a 1 1": ok, "b 1 1": ok}))
    moved = {"report": {**report, "max_residual": "0x1.0p-52"}, "residuals": ["0x1.0p-52"]}
    got = {"a 1 1": ok, "b 1 1": moved, "c 1 1": ok}
    assert regenerate(got, path) == 0
    assert capsys.readouterr().out.splitlines() == [
        "changed: b 1 1  max_residual 0.0 -> 2.220446049250313e-16",
        "changed: c 1 1  max_residual - -> 0.0"]
    assert json.loads(path.read_text()) == got
    before = path.read_text()
    failing = {"report": {**report, "passed": False}, "residuals": ["0x0.0p+0"]}
    assert regenerate({"a 1 1": failing}, path) == 1
    out = capsys.readouterr()
    assert out.out.splitlines() == ["changed: a 1 1  max_residual 0.0 -> 0.0",
                                    "changed: b 1 1  max_residual 2.220446049250313e-16 -> -",
                                    "changed: c 1 1  max_residual 0.0 -> -"]
    assert "failing reports: a 1 1" in out.err and path.read_text() == before


if __name__ == "__main__":
    sys.exit(regenerate(reports()))
