"""Every public function and class of the package is used by the package.

A top-level name that no other line of ``src/xrsim/`` reads is API that
neither the cell nor the harness calls: it is dead code with tests of its
own, and it goes. The few names kept for another reader are listed below,
each with the reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xrsim"

# module, or module.name -> why it stays without a caller in the package
EXEMPT = {
    "l4s": "acceptance criterion 9 runs the L4S marking loop on its own",
    "engine.Engine": "the benchmark times Engine.run_until; it goes when "
                     "the benchmark drops that hook",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _public_defs(trees):
    """(module, name, first line, last line) of each public top-level
    function and class."""
    return [(mod, node.name, node.lineno, node.end_lineno)
            for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _reads(trees):
    """(module, line, name) of every name and attribute read."""
    out = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                out.append((mod, node.lineno, node.attr))
    return out


def _unused(trees):
    reads = _reads(trees)
    unused = []
    for mod, name, first, last in _public_defs(trees):
        if not any(n == name and (m != mod or not first <= line <= last)
                   for m, line, n in reads):
            unused.append(f"{mod}.{name}")
    return unused


def _exempt(key):
    return key in EXEMPT or key.split(".")[0] in EXEMPT


def test_every_public_name_has_a_caller_in_the_package():
    dead = [key for key in _unused(_trees()) if not _exempt(key)]
    assert dead == [], (
        f"{dead}: no other line of src/xrsim/ uses these; delete them, or "
        "list each in EXEMPT with the reason it stays")


def test_every_exemption_is_still_needed():
    trees = _trees()
    unused = _unused(trees)
    for key in EXEMPT:
        mod, _, name = key.partition(".")
        assert mod in trees, f"{key}: no such module"
        if name:
            assert key in unused, f"{key} is used or gone; drop its exemption"
        else:
            assert any(k.split(".")[0] == mod for k in unused), (
                f"{key}: every name in it is used; drop its exemption")
