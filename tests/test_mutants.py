"""The mutation script, ``tools/mutants.py``: every mutant still edits
the source it names, and the script fails on a survivor or an edit that
would do nothing. The mutants themselves run in their own CI step."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

#: One fast test that a signed-zero mutant of the Lukasiewicz fold fails.
SIGNED_ZERO_TEST = "tests/test_tnorms.py::TestAxioms::test_one_is_the_identity_on_signed_zeros"


def test_every_old_text_occurs_once():
    assert mutants.check(mutants.MUTANTS) == []


def test_every_mutant_names_tests_that_exist():
    # A test is a file, or a node id in it: each name after "::" is a
    # class or function that file defines.
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for test in m.tests:
            path, *names = test.split("::")
            assert (ROOT / path).is_file(), (m.name, test)
            source = (ROOT / path).read_text(encoding="utf-8")
            for name in names:
                assert re.search(rf"^ *(class|def) {name}\b", source, re.M), (m.name, test)


def test_an_edit_that_would_do_nothing_is_an_error(capsys):
    planted = [
        mutants.Mutant("twice", "src/riskrules/tnorms.py", "def ", "def  ", "", ("tests",)),
        mutants.Mutant("never", "src/riskrules/tnorms.py", "no such text", "", "", ("tests",)),
        mutants.Mutant("never", "src/riskrules/tnorms.py", "BACKEND =", "X =", "", ("tests",)),
    ]
    assert mutants.run_all(planted) == 1
    out = capsys.readouterr().out
    defs = (ROOT / "src/riskrules/tnorms.py").read_text(encoding="utf-8").count("def ")
    assert defs > 1
    assert f"error: twice: old text occurs {defs} times in src/riskrules/tnorms.py, not once" in out
    assert "error: never: old text occurs 0 times in src/riskrules/tnorms.py, not once" in out
    assert "error: never: listed twice" in out
    assert "killed" not in out and "survived" not in out


def test_a_survivor_fails_the_check_unless_listed_as_equivalent(capsys):
    # Editing a comment changes no behaviour: the planted mutant survives.
    survivor = mutants.Mutant("comment", "src/riskrules/tnorms.py",
                              "# a tie keeps the accumulator and its sign", "# edited",
                              "a planted survivor", (SIGNED_ZERO_TEST,))
    assert mutants.run_all([survivor]) == 1
    assert "survived  comment" in capsys.readouterr().out
    killed = next(m for m in mutants.MUTANTS if m.name == "lukasiewicz-identity-skips-zero")
    assert mutants.run_all([survivor._replace(equivalent="only a comment changes"),
                            killed._replace(tests=(SIGNED_ZERO_TEST,))]) == 0
    out = capsys.readouterr().out
    assert "survived  comment" in out and "(equivalent: only a comment changes)" in out
    assert "killed    lukasiewicz-identity-skips-zero" in out
