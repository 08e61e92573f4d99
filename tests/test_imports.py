"""No module of ``src/qciore`` imports a name that it never uses.

An imported name is used when it occurs in the module as a ``Name`` (an
attribute access ``syntax.x`` counts for ``syntax``).  ``from __future__``
imports are exempt.  An unused import that must stay is on ``KEEP``, with
the reason it stays.
"""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "qciore").glob("*.py"))

KEEP = {
    "search.free_vars": "bench/tracing.py's REBOUND times it, and the bench's own test "
    "requires REBOUND to name exactly the functions imported across modules",
}


def unused_imports(source: str) -> set:
    """The names that ``source`` imports and never uses."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_scan_sees_each_form_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import itertools as it\n"
        "from . import syntax\n"
        "from .syntax import App, Eq as Equal, Pred\n"
        "def f(x: Pred) -> None:\n"
        "    return syntax.subformulas(x), os\n"
    )
    assert unused_imports(source) == {"it", "App", "Equal"}


def test_no_module_imports_a_name_it_never_uses():
    found = {
        "%s.%s" % (path.stem, name)
        for path in SRC
        for name in unused_imports(path.read_text())
    }
    assert found - KEEP.keys() == set()
    # a kept import that is now used, or gone, leaves the list
    assert KEEP.keys() <= found
