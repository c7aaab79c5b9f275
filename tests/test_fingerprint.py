"""Smoke test of benchmarks/fingerprint.py: it runs, and two runs print
the same digests."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "fingerprint.py"


def test_fingerprint_is_repeatable(capsys):
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    fingerprint.main()
    first = capsys.readouterr().out
    fingerprint.main()
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert len(lines) == 22
    assert all(len(line.split()[-1]) == 64 for line in lines)
    for label in ("preset advection_heterogeneous", "fv 1x4", "darcy streaks",
                  "noise cells", "noise modes", "noise classes", "reference linear",
                  "study linear_additive", "run finals"):
        assert any(line.startswith(label) for line in lines), label
