import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# the spans each of a Bs=256 cell's 300 x 2 training steps enters once
ONCE_PER_STEP = ("train.train_step", "nn.mlp_backward.tx", "nn.mlp_backward.rx", "nn.softmax_cross_entropy",
                 "nn.Adam.step", "comm.normalize_average_backward")


def test_traced_train_bs256_counts_every_step():
    # one traced and one untraced Bs=256 compare cell: the tracer must still label
    # every span, and both runs must write the same bytes; the forward passes also
    # serve the constellation and validation, so they show at least once per step
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_bs256", "--seed", "1",
                           "--seconds", "1", "--trace", "1"], cwd=REPO, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    calls = {k[:-len(".calls_per_op")]: v["value"] for k, v in result["metrics"].items()
             if k.endswith(".calls_per_op")}
    bad = [(n, calls[n]) for n in ONCE_PER_STEP if calls[n] != 600]
    bad += [(n, calls[n]) for n in ("nn.mlp_forward.tx", "nn.mlp_forward.rx") if calls[n] < 600]
    assert bad == [], f"span calls per operation off: {bad}"
