import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def test_outputs_match_the_committed_reference():
    # tests/golden/golden.py hashes fixed runs under pinned SIMD paths; the bits must
    # equal those recorded in golden.json wherever the facts that decide them match
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the reference was made on x86-64, not {platform.machine()}")
    repo = GOLDEN_DIR.parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(GOLDEN_DIR / "golden.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got, want = json.loads(done.stdout), json.loads((GOLDEN_DIR / "golden.json").read_text())
    if got["facts"]["openblas_core"] is None:
        pytest.skip("no OpenBLAS loaded")
    differ = {k: (v, got["facts"][k]) for k, v in want["facts"].items() if got["facts"][k] != v}
    if differ:
        pytest.skip(f"output bits are recorded for another build or CPU (recorded, here): {differ}")
    moved = sorted(k for k in want["sha256"].keys() | got["sha256"].keys()
                   if want["sha256"].get(k) != got["sha256"].get(k))
    assert not moved, f"outputs differ from tests/golden/golden.json: {moved}"
