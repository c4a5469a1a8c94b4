"""Every demo script runs to completion against the library as it stands."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# the alerts a demo prints, in order, so one that runs but finds nothing fails
ALERTS = {"03_streaming_detection.py": ["ALERT for tick 60", "ALERT for tick 61"]}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy, since a demo may write files beside itself
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name in ALERTS:
        alerts = [line for line in proc.stdout.splitlines() if "ALERT" in line]
        assert len(alerts) == len(ALERTS[demo.name]), proc.stdout
        for line, alert in zip(alerts, ALERTS[demo.name]):
            assert alert in line
