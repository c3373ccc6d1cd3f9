"""Smoke tests: the fast examples must run clean end to end.

Examples are documentation that executes; letting them rot defeats the
point.  Every example but the clustering demo, which forks a pool of
prover workers, runs here; each takes about a second."""

import re
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

    def test_verified_mapreduce(self):
        """The map phase runs as one loopback session; its traffic line
        reports the socket's bytes and the challenge frame's."""
        out = run_example("verified_mapreduce.py")
        assert "map phase: 5 shards verified" in out
        assert "total histogram" in out
        assert re.search(
            r"network: [\d,]+ B to the cloud, [\d,]+ B back \(queries derived "
            r"from a 32-byte key, sent with t in a [\d,]+-byte challenge\)",
            out,
        ), out

    def test_remote_prover(self):
        out = run_example("remote_prover.py")
        assert out.count("[ACCEPTED]") == 2
        assert re.search(
            r"traffic: [\d,]+ B uploaded \(.*PCP queries derive from the query "
            r"key sent with it\), [\d,]+ B downloaded",
            out,
        ), out

    def test_verified_shortest_paths(self):
        """The honest batch verifies; the ``ZaatarProver`` override
        that corrupts one distance is rejected."""
        out = run_example("verified_shortest_paths.py")
        assert "verified 3 topologies" in out
        assert "tampered distance matrix: REJECTED" in out
