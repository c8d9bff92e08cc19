"""Golden reports: every suite's report, and each trial's residual, must keep
the bits recorded in tests/data/reports_golden.json.

Regenerate the file (only for an intended report change, recorded in
CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(reports(), indent=1, sort_keys=True) + "\n")
