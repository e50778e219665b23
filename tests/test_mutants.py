"""The mutant registry (tests/mutants.py) still applies to the tree."""

from mutants import MUTANTS, ROOT


def test_every_mutant_snippet_occurs_once_and_its_tests_exist():
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text()
        assert text.count(mutant.snippet) == 1, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            function = name.split("[")[0]
            assert f"def {function}(" in (ROOT / path).read_text(), test
