"""The walkthrough script and ``python -m c0cert``, run as a user runs them:
in a child interpreter, in development mode (-X dev, which shows the
warnings Python hides by default) with every warning an error (-W error).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_guarded(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def run_demo(*args: str) -> subprocess.CompletedProcess:
    return run_guarded(str(ROOT / "scripts" / "demo_counterexample.py"), *args)


def test_demo_prints_the_suites_evidence():
    done = run_demo("--samples", "5")
    assert done.returncode == 0, done.stderr
    assert "pairing(ones, ytilde) = 1 > 0" in done.stdout
    assert "(-G(ytilde), ytilde): Related(margin=Fraction(0, 1))," in done.stdout
    assert "FAILURE" not in done.stdout


def test_demo_rejects_rationals_outside_the_wire_format():
    done = run_demo("--taus", "0.5,2")
    assert done.returncode == 2
    assert "config error" in done.stderr
    assert done.stdout == ""


def test_timed_report_raises_no_warning():
    done = run_guarded("-m", "c0cert", "all", "--timestamp", "on")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "generated_at" in json.loads(done.stdout)
