"""Smoke tests: the fast examples must run clean end to end.

Examples are documentation that executes; letting them rot defeats the
point.  Only the quick ones run here (the clustering and mapreduce
demos take tens of seconds and are exercised manually / by CI's long
lane)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "ACCEPTED" in out
        assert "REJECTED" not in out

    def test_audit_transcript(self):
        out = run_example("audit_transcript.py")
        assert "audit replay verdicts: [True, True]" in out
        assert "[False, True]" in out

    def test_cost_explorer(self):
        out = run_example("cost_explorer.py")
        assert "breakeven" in out
        assert "root_finding_bisection" in out

    def test_cheating_prover(self):
        """Each cheat overrides a ``ZaatarProver`` step; every one must be
        rejected, by the layer the demo names."""
        out = run_example("cheating_prover.py")
        assert "[ACCEPTED]" in out  # the honest prover
        assert "BUG" not in out
        for label, layer in (
            ("wrong output claim", "PCP checks"),
            ("answers != committed function", "commitment consistency"),
            ("non-linear proof function", "commitment consistency"),
            ("linear but wrong-form (bogus h)", "PCP checks"),
        ):
            line = next(line for line in out.splitlines() if label in line)
            assert f"REJECTED by {layer}" in line, line

    def test_verified_shortest_paths(self):
        """The honest batch verifies; the ``ZaatarProver`` override
        that corrupts one distance is rejected."""
        out = run_example("verified_shortest_paths.py")
        assert "verified 3 topologies" in out
        assert "tampered distance matrix: REJECTED" in out
