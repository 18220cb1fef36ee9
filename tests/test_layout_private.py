"""The packed-word layout stays behind ``gf2``.

Vectors are ints and matrices are coordinates; packed uint64 words are
a private detail of elimination and the ``bin`` format.  These checks
parse the package source: no module reads an attribute named ``words``,
and the packing helpers are defined in ``gf2`` and imported only by
``formats``.
"""

import ast
from pathlib import Path

import cayleycss

PRIVATE = {"_pack", "_peel", "_row_blocks", "_int_rows"}

MODULES = {
    path.stem: ast.parse(path.read_text(), filename=str(path))
    for path in sorted(Path(cayleycss.__file__).parent.glob("*.py"))
}


def test_no_module_reads_a_words_attribute():
    readers = sorted(
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "words"
    )
    assert readers == []


def test_packing_helpers_are_defined_in_gf2_and_imported_by_formats():
    defined = {
        node.name for node in MODULES["gf2"].body
        if isinstance(node, ast.FunctionDef)
    }
    assert PRIVATE <= defined
    users = set()
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            else:
                continue
            if used & PRIVATE and name != "gf2":
                users.add(name)
    assert users == {"formats"}
