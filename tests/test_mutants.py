import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_edit_still_applies_exactly_once(monkeypatch):
    # the mutation run stops when an edit's old text is not found once; this
    # catches a code change that breaks the catalogue without running the suite
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    catalogue = importlib.import_module("mutants").CATALOGUE
    assert len({m.name for m in catalogue}) == len(catalogue)
    for m in catalogue:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
