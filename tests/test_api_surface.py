"""Every public function and class of the package is used by the package,
and every module-level constant is read by it.

A top-level name that no other line of ``src/xrsim/`` reads is API that
neither the cell nor the harness calls: it is dead code with tests of its
own, and it goes. A name counts as used only through a bare read in its
own module, a ``from .mod import name`` binding that some line of the
importing module reads, or ``mod.name``: an attribute of any other object
(a method that shares the name, say) does not count. The few names kept
for another reader are listed below, each with the reason. A module-level
constant, public or private, that no line of the package reads is a model
value that nothing uses, and it goes too.
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

# module.name of a constant -> why it stays without a reader in the package
CONSTANTS_EXEMPT = {
    "__init__.__version__": "package metadata, read by tools, not the model",
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


def _uses(trees):
    """(module, line, defining module, name) of every use of a top-level
    name: a bare read in the module, a read of a name bound by
    ``from .mod import name``, or ``mod.name``."""
    out = []
    for mod, tree in trees.items():
        bound = {}  # local name -> (module, name) of each from-import
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                for alias in node.names:
                    bound[alias.asname or alias.name] = (source, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                source, name = bound.get(node.id, (mod, node.id))
                out.append((mod, node.lineno, source, name))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in trees):
                out.append((mod, node.lineno, node.value.id, node.attr))
    return out


def _unused(trees):
    defs = _public_defs(trees)
    uses = {(mod, name): [] for mod, name, _, _ in defs}
    for mod, line, source, name in _uses(trees):
        if (source, name) in uses:
            uses[source, name].append((mod, line))
    return [f"{mod}.{name}" for mod, name, first, last in defs
            if not any(m != mod or not first <= line <= last
                       for m, line in uses[mod, name])]


def _constants(trees):
    """(module, name) of each name a top-level assignment binds."""
    return [(mod, target.id) for mod, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)]


def _unread_constants(trees):
    read = {(source, name) for _, _, source, name in _uses(trees)}
    return [f"{mod}.{name}" for mod, name in _constants(trees)
            if (mod, name) not in read]


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


def test_every_module_constant_is_read():
    unread = _unread_constants(_trees())
    assert [key for key in unread if key not in CONSTANTS_EXEMPT] == [], (
        "no line of src/xrsim/ reads these; delete them, or list each in "
        "CONSTANTS_EXEMPT with the reason it stays")
    assert [key for key in CONSTANTS_EXEMPT if key not in unread] == [], (
        "these are read or gone; drop their exemptions")


def test_a_method_does_not_hide_a_dead_function_of_its_name():
    trees = {name: ast.parse(text) for name, text in {
        "a": "def dead():\n    pass\n\n"
             "def imported():\n    pass\n\n"
             "def dotted():\n    pass\n\n"
             "def local():\n    pass\n\n"
             "class Queue:\n    def dead(self):\n        return local()\n",
        "b": "from . import a\nfrom .a import Queue, imported as imp\n\n"
             "def _run():\n    Queue().dead()\n    imp()\n"
             "    a.dotted()\n",
    }.items()}
    assert _unused(trees) == ["a.dead"]


def test_an_unread_constant_is_found():
    trees = {name: ast.parse(text) for name, text in {
        "a": "READ = 1\nUNREAD = 2\n_PRIVATE = 3\n_LOCAL: int = 4\n"
             "IMPORTED = 5\nDOTTED = 6\n\n"
             "def f():\n    UNREAD = 7\n    return READ + _LOCAL\n",
        "b": "from . import a\nfrom .a import IMPORTED, UNREAD\n\n"
             "X = IMPORTED + a.DOTTED\n",
    }.items()}
    assert _unread_constants(trees) == ["a.UNREAD", "a._PRIVATE", "b.X"]
