"""A/B benchmark: this checkout against a base revision, both run by this checkout's perfbench.

perfbench/run.py imports the src/ of its own checkout, so the script makes a local git worktree
of the base revision in a temporary directory, copies this checkout's perfbench/ over the
worktree's own, and then runs `perfbench/run.py --trace 0` in the two trees by turns: pair k
runs both on seed k + 1, the base first on even k and the change first on odd k. Each run's
last stdout line is its result. The worktree is removed afterwards.

The change is this checkout as it stands: its entry names HEAD, flags uncommitted edits of
tracked files, and gives the git tree id of the src/ the change runs imported, working-tree
edits included, so a later commit whose `git rev-parse <commit>:src` prints that id holds the
measured code. The script appends one entry to the record file, BENCH_<workload>.json at the
repo root unless --record names another: both commit ids, the OpenBLAS core, every metric of
every run, and for cpu_s_per_op and ops_per_s the medians and interquartile ranges of both
sides, the pairs the change won, and the verdict: whether the change's median is better than
the base's by more than the base's IQR.

Usage: python ci/ab.py --base <rev> --workload W --pairs N --seconds S [--record PATH]

Exits 0 once the entry is written (whatever the verdict), 1 if git fails or a run fails or
reports an incorrect result (git's or the run's message goes to stderr), 2 on a usage error. A
worktree that cannot be removed is reported and makes the exit 1, after the entry is written.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# end-to-end metric -> whether a higher value is better
METRICS = {"cpu_s_per_op": False, "ops_per_s": True}


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def failed_git(exc: subprocess.CalledProcessError) -> str:
    return f"{' '.join(exc.cmd)}: {exc.stderr.strip()}"


def remove_worktree(tree: Path) -> bool:
    """Remove the worktree at `tree`; on failure print git's message and return False."""
    done = subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, capture_output=True,
                          text=True)
    if done.returncode != 0:
        print(f"ab: git worktree remove: {done.stderr.strip()}", file=sys.stderr)
    return done.returncode == 0


def openblas_core() -> str | None:
    """The core type OpenBLAS picked in this process, whose kernels fix the output bits and the speed."""
    sys.path.insert(0, str(ROOT / "src"))
    from aecomm import cli

    corename = cli._openblas_function("get_corename")
    if corename is None:
        return None
    corename.restype, corename.argtypes = ctypes.c_char_p, []
    return corename().decode()


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Every metric of perfbench/run.py's result line in `tree`; a failed or incorrect run raises."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {tree} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["correct"] is not True:
        raise RuntimeError(f"perfbench/run.py in {tree} reports an incorrect result:\n{done.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(base: list[dict], change: list[dict]) -> dict:
    out = {}
    for name, higher in METRICS.items():
        b, c = [r[name] for r in base], [r[name] for r in change]
        (b1, bm, b3), (c1, cm, c3) = quartiles(b), quartiles(c)
        gain = cm - bm if higher else bm - cm
        out[name] = {"base_median": bm, "base_iqr": b3 - b1, "change_median": cm, "change_iqr": c3 - c1,
                     "wins": sum((y > x) if higher else (y < x) for x, y in zip(b, c)), "pairs": len(b),
                     "gain_beyond_base_iqr": gain > b3 - b1}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="each run's --seconds")
    parser.add_argument("--record", type=Path, help="the file to append to (default BENCH_<workload>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    record = args.record or ROOT / f"BENCH_{args.workload}.json"

    try:
        base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
        change_commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        # a commit object of the working tree's tracked files, made without touching the index or
        # any ref; nothing when the tree is clean
        change_src_tree = git("rev-parse", f"{git('stash', 'create') or 'HEAD'}:src")
    except subprocess.CalledProcessError as exc:
        print(f"ab: {failed_git(exc)}", file=sys.stderr)
        return 1
    base, change = [], []
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so that a stopped run removes its worktree too
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tree = Path(tmp) / "base"
        try:
            git("worktree", "add", "--detach", str(tree), base_commit)
            shutil.rmtree(tree / "perfbench", ignore_errors=True)
            shutil.copytree(ROOT / "perfbench", tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            for k in range(args.pairs):
                seed = k + 1
                for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
                    result = run(tree if side == "base" else ROOT, args.workload, seed, args.seconds)
                    (base if side == "base" else change).append({"seed": seed, **result})
                    print(f"pair {k + 1}/{args.pairs} seed {seed} {side}: " +
                          ", ".join(f"{name} {result[name]:.6g}" for name in METRICS), flush=True)
        except subprocess.CalledProcessError as exc:
            print(f"ab: {failed_git(exc)}", file=sys.stderr)
            return 1
        except RuntimeError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
        finally:
            # reported here, so that it hides no error of the runs
            left = tree.exists() and not remove_worktree(tree)
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload, "seconds": args.seconds,
        "base_commit": base_commit, "change_commit": change_commit, "change_has_uncommitted_edits": dirty,
        "change_src_tree": change_src_tree,
        "openblas_core": openblas_core(),
        "summary": summary(base, change), "base_runs": base, "change_runs": change,
    }
    entries = json.loads(record.read_text()) if record.exists() else []
    record.write_text(json.dumps(entries + [entry], indent=1) + "\n")
    for name, s in entry["summary"].items():
        print(f"{name}: base {s['base_median']:.6g} (IQR {s['base_iqr']:.3g}), change {s['change_median']:.6g}"
              f" (IQR {s['change_iqr']:.3g}), change better in {s['wins']}/{s['pairs']} pairs,"
              f" gain beyond the base's IQR: {s['gain_beyond_base_iqr']}")
    print(f"appended to {record}")
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main())
