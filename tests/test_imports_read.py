"""Every name that a module under tests/ imports is read in that module.

An import that no line reads is left over from a test that moved or went;
it hides what the module really depends on. A name counts as read when the
module loads it, bare or as the object of an attribute. ``from __future__``
imports are compiler directives, not names.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _unread_imports(tree):
    """The names that the tree's imports bind and that no line loads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in loaded]


def test_every_test_module_reads_its_imports():
    unread = {p.name: names for p in sorted(TESTS.glob("*.py"))
              if (names := _unread_imports(ast.parse(p.read_text(), str(p))))}
    assert unread == {}, "no line of these modules reads these imports"


def test_an_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nimport os.path\nimport numpy as np\n"
                     "from fractions import Fraction\n"
                     "from a import b as c, d\n\n"
                     "def f():\n    return os.path.sep, np.pi, c\n")
    assert _unread_imports(tree) == ["math", "Fraction", "d"]
