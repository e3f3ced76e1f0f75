"""Stretch probe: one ``cyclat diagram`` at (p, n) = (3, 5), rank 243, under a cap.

Not part of any gated workload.  Run from the root of a source checkout:

    python3 bench/stretch.py

The diagram runs in a child process; the probe records its wall time, or
that it hit the cap of CAP_S seconds, in ``bench/results/stretch.json`` and
prints the record.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import run

CAP_S = 600  # wall-clock cap on the child, in seconds


def main():
    run.import_cyclat()
    command = ["diagram", "--p", "3", "--n", "5", "--kind", "mab", "--a", "1", "--b", "1"]
    env = dict(os.environ, PYTHONPATH=run.SRC)
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "cyclat.cli", *command],
        cwd=run.ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, stderr = child.communicate(timeout=CAP_S)
        status = "ok" if child.returncode == 0 else f"exit {child.returncode}: {stderr.strip()}"
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        status = "timeout"
    elapsed = time.perf_counter() - start
    meta = run.metadata(SimpleNamespace(workload="stretch", seed=None, seconds=CAP_S, trace=0))
    record = {"meta": meta, "command": ["cyclat", *command], "status": status, "elapsed_s": elapsed}
    os.makedirs(run.RESULTS, exist_ok=True)
    with open(os.path.join(run.RESULTS, "stretch.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
