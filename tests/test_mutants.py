"""The standing mutation list in ``mutants.py`` still fits the program.

Running the mutants takes over a minute, so that is done by hand.  These
tests run none: they check that each mutant's edits, applied in order as
``mutants.run`` applies them, find their old text exactly once, and that
every test a mutant names is defined, so a stale entry fails here.
"""

import ast

from mutants import MUTANTS, REPO


def defined_tests(file):
    """Node ids, without parameters, of the test functions and methods defined in ``file``."""
    tree = ast.parse((REPO / file).read_text(encoding="utf-8"))
    ids = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            ids.add(f"{file}::{node.name}")
        elif isinstance(node, ast.ClassDef):
            ids.update(f"{file}::{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef))
    return ids


def test_every_mutant_edit_finds_its_text_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        texts = {}
        for file, old, new in m.edits:
            if file not in texts:
                texts[file] = (REPO / file).read_text(encoding="utf-8")
            assert texts[file].count(old) == 1, (m.name, file, old)
            texts[file] = texts[file].replace(old, new)


def test_every_named_test_exists():
    named = [node for m in MUTANTS for node in m.tests]
    assert all(m.tests for m in MUTANTS)
    defined = set().union(*map(defined_tests, {node.split("::")[0] for node in named}))
    assert [node for node in named if node not in defined] == []
