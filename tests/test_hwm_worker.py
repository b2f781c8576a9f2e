"""tools/hwm_worker.py runs bench/worker.py unchanged and notes its own peak."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confalg.cli import main

from conftest import DATA

ROOT = Path(__file__).resolve().parent.parent
ARGV = ["reduce", "--config", str(DATA / "config_ab.json"), "--expr", "((a .1 b) .0 a)"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_the_shim_runs_the_worker_and_logs_one_peak(tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(ARGV)) == 0
    log = tmp_path / "peaks.txt"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "hwm_worker.py"), ARGV[2]],
        input=json.dumps({}) + "\n" + json.dumps([ARGV]) + "\n",
        capture_output=True, text=True, cwd=ROOT, timeout=60,
        env={**os.environ, "HWM_LOG": str(log)},
    )
    assert proc.returncode == 0, proc.stderr
    rows, summary = map(json.loads, proc.stdout.splitlines())
    assert [(r["rc"], r["error"]) for r in rows] == [(0, None)]
    assert rows[0]["digest"] == hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert summary["peak_rss_mb"] > 0
    (peak,) = log.read_text(encoding="ascii").splitlines()
    assert float(peak) > 0
