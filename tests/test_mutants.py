"""The standing mutants of ``scripts/mutants.py`` still apply: each
one's old text is in its file exactly once.  Running the script shows
whether the named tests kill them; this test only keeps them current."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_mutant_old_text_is_in_its_file_once():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert [m.name for m in mutants.MUTANTS if mutants.is_stale(mutants.ROOT, m)] == []
