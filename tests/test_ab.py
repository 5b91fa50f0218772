"""ci/ab.py, the A/B benchmark driver: one pair against HEAD writes one well-formed record entry
and leaves no worktree behind."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def worktrees() -> list[str]:
    listed = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=REPO, check=True, capture_output=True,
                            text=True).stdout
    return [line.split(" ", 1)[1] for line in listed.splitlines() if line.startswith("worktree ")]


def head() -> str:
    """HEAD's commit id; skips where ci/ab.py cannot make its base tree."""
    if not (REPO / ".git").exists():
        pytest.skip("this checkout has no .git, and ci/ab.py makes its base tree as a git worktree")
    if shutil.which("git") is None:
        pytest.skip("no git on PATH, and ci/ab.py makes its base tree as a git worktree")
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True)
    if done.returncode != 0:
        pytest.skip(f"git cannot read this checkout, and ci/ab.py makes its base tree as a git worktree: {done.stderr}")
    return done.stdout.strip()


def test_one_pair_against_head_appends_an_entry_and_removes_its_worktree(tmp_path):
    commit = head()
    record = tmp_path / "BENCH_train_bs256.json"
    record.write_text("[]\n")
    before = worktrees()
    done = subprocess.run([sys.executable, "ci/ab.py", "--base", "HEAD", "--workload", "train_bs256", "--pairs", "1",
                           "--seconds", "1", "--record", str(record)], cwd=REPO, capture_output=True, text=True,
                          timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    assert worktrees() == before
    [entry] = json.loads(record.read_text())
    assert sorted(entry) == ["base_commit", "base_runs", "change_commit", "change_has_uncommitted_edits",
                             "change_runs", "change_src_tree", "date", "openblas_core", "seconds", "summary",
                             "workload"]
    assert entry["base_commit"] == entry["change_commit"] == commit
    kind = subprocess.run(["git", "cat-file", "-t", entry["change_src_tree"]], cwd=REPO, capture_output=True, text=True)
    assert kind.stdout.strip() == "tree", kind.stderr
    assert entry["workload"] == "train_bs256" and entry["seconds"] == 1.0
    assert sorted(entry["summary"]) == ["cpu_s_per_op", "ops_per_s"]
    for name, s in entry["summary"].items():
        assert sorted(s) == ["base_iqr", "base_median", "change_iqr", "change_median", "gain_beyond_base_iqr",
                             "pairs", "wins"], name
        assert s["pairs"] == 1 and s["wins"] in (0, 1) and s["base_iqr"] == s["change_iqr"] == 0.0
        assert s["base_median"] > 0 and s["change_median"] > 0
    assert [r["seed"] for r in entry["base_runs"]] == [r["seed"] for r in entry["change_runs"]] == [1]


def test_unknown_base_exits_1_with_gits_message(tmp_path):
    head()
    record = tmp_path / "BENCH_train_bs256.json"
    before = worktrees()
    done = subprocess.run([sys.executable, "ci/ab.py", "--base", "no-such-revision", "--workload", "train_bs256",
                           "--pairs", "1", "--seconds", "1", "--record", str(record)], cwd=REPO, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("ab: git rev-parse --verify no-such-revision^{commit}: ") and "Traceback" not in done.stderr
    assert not record.exists() and worktrees() == before
