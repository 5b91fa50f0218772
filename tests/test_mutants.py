"""ci/mutants.json must still apply to the code: ci/mutants.py itself runs the mutants (a CI
step), this checks in milliseconds that a refactor which moved the code re-pointed them."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", REPO / "ci" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_old_text_occurs_once_and_every_named_test_exists():
    assert mutants.stale(mutants.load()) == []


def test_entries_edit_the_copied_tree_and_name_tests():
    entries = mutants.load()
    assert len({e["name"] for e in entries}) == len(entries)
    for e in entries:
        assert sorted(e) == ["change", "edits", "name", "tests"], e["name"]
        assert e["edits"] and e["tests"], e["name"]
        for file, old, new in e["edits"]:
            assert file.startswith(("src/", "tests/")) and old and old != new, e["name"]
