"""Mutation check: each entry of ci/mutants.json breaks the program on purpose, and the
tests it names must catch it.

An entry holds a name, the change whose code it breaks, one or more edits (a file under
src/ or tests/, an exact old text that occurs there once, and its new text) and the ids of
the tests that must each fail once the edits are made. The script first runs every named
test on an unmutated copy, where they must pass, so that a failure is the mutant's doing.
Then, for one entry at a time, it copies src/, tests/ and pyproject.toml to a temporary
directory, makes the entry's edits there and runs only the entry's tests.

Usage: python ci/mutants.py

Exits 0 if every mutant is caught; 1 if one survives, if an old text does not occur exactly
once or a named test no longer exists, or if a named test fails without any mutant.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRIES = Path(__file__).with_name("mutants.json")


def load() -> list[dict]:
    return json.loads(ENTRIES.read_text())


def stale(entries: list[dict], root: Path = ROOT) -> list[str]:
    """One line per edit whose old text does not occur exactly once in its file under root,
    and per named test whose function that file no longer defines."""
    problems = [f"{e['name']}: {file}: the old text occurs {n} times, not once: {old!r}"
                for e in entries for file, old, _ in e["edits"]
                if (n := (root / file).read_text().count(old)) != 1]
    for e in entries:
        for test in e["tests"]:
            file, *_, function = test.split("[")[0].split("::")
            if f"def {function}(" not in (root / file).read_text():
                problems.append(f"{e['name']}: {file} defines no {function}")
    return problems


def copy_tree(tmp: str) -> Path:
    tree = Path(tmp)
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", tree)
    return tree


def run_tests(tree: Path, tests: list[str]) -> tuple[int, set[str], str]:
    """pytest on `tests` in the copy at tree: its exit code, the ids that failed, and its output."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", *tests],
                          cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True, timeout=900)
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return done.returncode, failed, done.stdout + done.stderr


def main() -> int:
    entries = load()
    if problems := stale(entries):
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        code, _, output = run_tests(copy_tree(tmp), sorted({t for e in entries for t in e["tests"]}))
    if code != 0:
        print(f"the named tests fail without a mutant:\n{output}")
        return 1
    survivors = 0
    for e in entries:
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(tmp)
            for file, old, new in e["edits"]:
                (tree / file).write_text((tree / file).read_text().replace(old, new))
            _, failed, output = run_tests(tree, e["tests"])
        passed = [t for t in e["tests"] if not any(f == t or f.startswith(t + "[") for f in failed)]
        if passed:
            survivors += 1
            print(f"SURVIVED {e['name']} ({e['change']}): still passing: {passed}\n{output}")
        else:
            print(f"caught {e['name']} ({e['change']})")
    print(f"{len(entries) - survivors} of {len(entries)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
