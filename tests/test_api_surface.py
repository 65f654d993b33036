"""Every public function and class of the package is used by the package,
every module-level constant and class member is read by it, and every
defaulted parameter is set by some call in it.

A top-level name that no other line of ``src/xrsim/`` reads is API that
neither the cell nor the harness calls: it is dead code with tests of its
own, and it goes. A name counts as used only through a bare read in its
own module, a ``from .mod import name`` binding that some line of the
importing module reads, or ``mod.name``: an attribute of any other object
(a method that shares the name, say) does not count. The few names kept
for another reader are listed below, each with the reason. A module-level
constant, public or private, that no line of the package reads is a model
value that nothing uses, and it goes too.

Class members are checked by name. A method, a property, a dataclass or
NamedTuple field, or an attribute set on ``self`` counts as read when an
attribute read, a keyword argument or a string names it anywhere in the
package; the strings of a ``__slots__`` declaration are not reads, an
augmented assignment (``x.n += 1``) is not either, nor is a keyword argument
of a call that builds a class of the package (``Box(n=1)`` sets ``n``), and
nor is the object of a mutator call (``x.n.append(...)``, see
``MUTATORS``). A call ``x.name(...)``
reads a method of that name, so it reads a field only when no class of
the package has a method of that name: ``queue.pser()`` does not read a
record's ``pser`` field. A parameter with a
default counts as set when some call of its function's name (its class's
name for ``__init__``) passes it by position or by keyword. Members and
parameters under a name that ``EXEMPT`` keeps are kept with it.
"""

import ast
import math
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xrsim"

# module.name -> why it stays without a caller in the package; a whole
# module is never exempt
EXEMPT = {
    "l4s.closed_loop_run": "acceptance criterion 9 runs the L4S marking loop "
                           "on its own; the cell does not mark",
    "engine.Engine": "the benchmark times Engine.run_until; it goes when "
                     "the benchmark drops that hook",
}

# module.name of a constant -> why it stays without a reader in the package
CONSTANTS_EXEMPT = {
    "__init__.__version__": "package metadata, read by tools, not the model",
}

# module.Class.member -> why it stays without a reader in the package
MEMBERS_EXEMPT = {
    "engine.SimStats.events_processed": "the benchmark's engine.events "
                                        "metric reads it from Engine."
                                        "run_until; it goes with Engine",
    "engine.Event.time": "set when Engine schedules an event and read by "
                         "no line; it goes with Engine (ROADMAP item 2)",
    "engine.Event.sequence": "as Event.time",
    "traffic.PduSet.end_of_burst": "the Release 18 end-of-data-burst mark "
                                   "of a frame's last set; test_traffic and "
                                   "test_qos check it, but no model reads "
                                   "it yet",
    "cellsim.CellConfig.power_model": "the benchmark's cell_record reads "
                                      "the power bounds from it; the cell "
                                      "reads the model itself",
    "qos.DiscardEvent.time_us": "the discard log that a per-frame miss "
                                "report (ROADMAP item 9) reads, and that "
                                "test_qos_property checks against the PDU "
                                "model",
    "qos.DiscardEvent.cause": "the discard log, as time_us",
    "qos.DiscardEvent.pdu_ids": "the discard log, as time_us",
    "qos.FlowQueue.recount_pser_from_log": "the tests compare pser() "
                                           "against this independent tally",
    "cellsim.UeKpi.frames_total": "the benchmark's cell_record reports it "
                                  "and checks frames_in_budget against it; "
                                  "the cell tests read it",
    "cellsim.UeKpi.frames_in_budget": "as frames_total",
    "cellsim.UeKpi.pser": "the golden cell digest and test_cellsim read it; "
                          "no output reports it yet (ROADMAP item 9's "
                          "stats.csv)",
    "l4s.LoopResult.marked_total": "test_l4s compares the marked fractions "
                                   "of the two marking methods",
    "l4s.LoopResult.p95_sojourn_ms": "acceptance criterion 9 compares the "
                                     "sojourn with and without marking",
    "l4s.LoopResult.rates_bps": "acceptance criterion 9 and test_l4s read "
                                "the rate trajectory",
}

# methods that change the container they are called on: x.f.append(...)
# writes f and does not read it
MUTATORS = {"append", "extend", "add", "update", "appendleft", "insert",
            "pop"}

# module.function.parameter or module.Class.method.parameter -> why no call
# in the package sets it
PARAMS_EXEMPT = {
    "cli.main.argv": "the tests and the benchmark's op.py pass it",
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


def _members(trees):
    """module.Class.member of each method, property and class-body field of
    a top-level class, and of each attribute its methods set on self;
    dunder names are Python's."""
    out = []
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = {}  # dict keeps the first-seen order
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names[node.name] = None
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    names[node.target.id] = None
            for node in ast.walk(cls):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, ast.AnnAssign) else [])
                for target in targets:
                    for t in (target.elts if isinstance(target, ast.Tuple)
                              else [target]):
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"):
                            names[t.attr] = None
            out += [f"{mod}.{cls.name}.{name}" for name in names
                    if not (name.startswith("__") and name.endswith("__"))]
    return out


def _methods(trees):
    """module.Class.method of each method of a top-level class; a property
    is read as a field is, so it is none."""
    return {f"{mod}.{cls.name}.{fn.name}" for mod, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not any(isinstance(d, ast.Name) and d.id == "property"
                        for d in fn.decorator_list)}


def _member_reads(trees):
    """Every name that an attribute read, a keyword argument of a call
    that builds no class of the package or a string outside a
    ``__slots__`` declaration gives, and the names that attribute calls
    give; the object of a mutator call gives none."""
    classes = {cls.name for tree in trees.values() for cls in tree.body
               if isinstance(cls, ast.ClassDef)}
    read, called = set(), set()
    for tree in trees.values():
        slots = {id(node) for stmt in ast.walk(tree)
                 if isinstance(stmt, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__slots__"
                         for t in stmt.targets)
                 for node in ast.walk(stmt.value)}
        calls = {id(node.func) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        mutated = {id(node.func.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in MUTATORS}
        # the keyword arguments of a call that builds a package class
        built = {id(k) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and _callee(node.func) in classes for k in node.keywords}
        for node in ast.walk(tree):
            if id(node) in mutated:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                (called if id(node) in calls else read).add(node.attr)
            elif (isinstance(node, ast.keyword) and node.arg
                  and id(node) not in built):
                read.add(node.arg)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in slots):
                read.add(node.value)
    return read, called


def _unread_members(trees):
    read, called = _member_reads(trees)
    methods = _methods(trees)
    # a call reads each method of its name, and a field only when no method
    # has that name
    read |= called - {key.rpartition(".")[2] for key in methods}
    return [key for key in _members(trees)
            if key.rpartition(".")[2] not in read
            and not (key in methods and key.rpartition(".")[2] in called)]


def _callee(func):
    """The name a call's function goes by: ``f`` of ``f(...)`` and of
    ``x.f(...)``, or None."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr",
                                                              None)


def _calls(trees):
    """(callee name, positional arguments, keyword names) of every call;
    a starred argument counts as every position."""
    out = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node.func)
            n = (math.inf if any(isinstance(a, ast.Starred)
                                 for a in node.args) else len(node.args))
            out.append((name, n, {k.arg for k in node.keywords}))
    return out


def _functions(tree):
    """(class or None, def) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield node, fn


def _unset_params(trees):
    """module.[Class.]function.parameter of each parameter with a default
    that no call passes."""
    calls = _calls(trees)
    out = []
    for mod, tree in trees.items():
        for cls, fn in _functions(tree):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 0 if cls is None or static else 1  # self is not passed
            callee = cls.name if fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            defaulted = [(i - skip, a.arg) for i, a in enumerate(args)
                         if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                        fn.args.kw_defaults)
                          if d is not None]
            owner = f"{mod}.{cls.name}" if cls else mod
            out += [f"{owner}.{fn.name}.{arg}" for i, arg in defaulted
                    if not any(name == callee
                               and (arg in kw or i is not None and n > i)
                               for name, n, kw in calls)]
    return out


def _exempt(key):
    """Whether EXEMPT keeps the key or a name it lies in."""
    parts = key.split(".")
    return any(".".join(parts[:i]) in EXEMPT
               for i in range(2, len(parts) + 1))


def test_every_public_name_has_a_caller_in_the_package():
    dead = [key for key in _unused(_trees()) if not _exempt(key)]
    assert dead == [], (
        f"{dead}: no other line of src/xrsim/ uses these; delete them, or "
        "list each in EXEMPT with the reason it stays")


def test_every_exemption_is_still_needed():
    trees = _trees()
    unused = _unused(trees)
    for key in EXEMPT:
        assert key in unused, f"{key} is used or gone; drop its exemption"
    for table, found in ((MEMBERS_EXEMPT, _unread_members(trees)),
                         (PARAMS_EXEMPT, _unset_params(trees))):
        assert [key for key in table if key not in found] == [], (
            "these are read, set or gone; drop their exemptions")
        assert [key for key in table if _exempt(key)] == [], (
            "EXEMPT already keeps these; drop their exemptions")


def test_no_module_is_exempt_wholesale():
    # an exempt module hides every dead name, member and parameter in it
    assert [key for key in EXEMPT if "." not in key] == [], (
        "exempt each name that stays, not its module")


def test_every_module_constant_is_read():
    unread = _unread_constants(_trees())
    assert [key for key in unread if key not in CONSTANTS_EXEMPT] == [], (
        "no line of src/xrsim/ reads these; delete them, or list each in "
        "CONSTANTS_EXEMPT with the reason it stays")
    assert [key for key in CONSTANTS_EXEMPT if key not in unread] == [], (
        "these are read or gone; drop their exemptions")


def test_every_class_member_is_read():
    unread = [key for key in _unread_members(_trees())
              if not _exempt(key) and key not in MEMBERS_EXEMPT]
    assert unread == [], (
        f"{unread}: no line of src/xrsim/ reads these; delete them, or list "
        "each in MEMBERS_EXEMPT with the reason it stays")


def test_every_defaulted_parameter_is_set():
    unset = [key for key in _unset_params(_trees())
             if not _exempt(key) and key not in PARAMS_EXEMPT]
    assert unset == [], (
        f"{unset}: no call in src/xrsim/ passes these; make each a constant, "
        "or list it in PARAMS_EXEMPT with the reason it stays")


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


def test_an_unread_member_is_found():
    trees = {name: ast.parse(text) for name, text in {
        "a": "class Box:\n"
             "    __slots__ = ('stored', 'counted', 'read')\n"
             "    field: int\n"
             "    named: int\n"
             "    def __init__(self):\n"
             "        self.stored = self.read = 0\n"
             "        self.counted, self.pair = 1, 2\n"
             "    def dead(self):\n"
             "        self.counted += 1\n"
             "    @property\n"
             "    def prop(self):\n"
             "        return self.read\n",
        "b": "from .a import Box\n\n"
             "def f(box):\n"
             "    g(field=box.prop, key='named')\n"
             "    return box.pair\n",
    }.items()}
    assert _unread_members(trees) == ["a.Box.dead", "a.Box.stored",
                                      "a.Box.counted"]


def test_a_mutator_call_does_not_read_its_container():
    trees = {"a": ast.parse(
        "class Log:\n"
        "    rows: list\n"
        "    seen: set\n"
        "    kept: list\n"
        "    def f(self, x):\n"
        "        self.rows.append(x)\n"
        "        self.seen.add(x)\n"
        "        self.kept.append(x)\n"
        "        return len(self.kept)\n")}
    # appending to rows and adding to seen reads neither; len reads kept
    assert _unread_members(trees) == ["a.Log.rows", "a.Log.seen", "a.Log.f"]


def test_a_keyword_that_builds_a_class_does_not_read_its_field():
    trees = {name: ast.parse(text) for name, text in {
        "a": "class Box:\n"
             "    built: int\n"
             "    passed: int\n"
             "    read: int\n",
        "b": "from . import a\nfrom .a import Box\n\n"
             "def f(box):\n"
             "    Box(built=1)\n"
             "    a.Box(built=2)\n"
             "    g(passed=3)\n"
             "    return box.read\n",
    }.items()}
    # building a Box sets built, by name or through its module; a keyword
    # of any other call still reads its name
    assert _unread_members(trees) == ["a.Box.built"]


def test_a_method_call_does_not_read_a_field_of_its_name():
    trees = {name: ast.parse(text) for name, text in {
        "a": "class Queue:\n"
             "    def rate(self):\n"
             "        return 1\n"
             "    def unused(self):\n"
             "        return 2\n\n"
             "class Record:\n"
             "    rate: float\n"
             "    hook: object\n"
             "    unused: int\n"
             "    read: int\n",
        "b": "def f(queue, record):\n"
             "    record.hook(queue.rate())\n"
             "    return record.read\n",
    }.items()}
    # queue.rate() reads Queue.rate, not Record.rate; record.hook() reads a
    # field, since no method is named hook
    assert _unread_members(trees) == ["a.Queue.unused", "a.Record.rate",
                                      "a.Record.unused"]


def test_an_unset_parameter_is_found():
    trees = {name: ast.parse(text) for name, text in {
        "a": "def f(a, by_pos=1, by_kw=2, unset=3, *, kw_only=4):\n"
             "    pass\n\n"
             "def starred(a=1, b=2):\n"
             "    pass\n\n"
             "class Box:\n"
             "    def __init__(self, a, size=0, unset=None):\n"
             "        pass\n"
             "    def method(self, a=1, unset=2):\n"
             "        pass\n"
             "    @staticmethod\n"
             "    def static(a=1):\n"
             "        pass\n",
        "b": "from .a import Box, f, starred\n\n"
             "def g(box, args):\n"
             "    f(0, 1, by_kw=2)\n"
             "    starred(*args)\n"
             "    Box(0, 5)\n"
             "    box.method(1)\n"
             "    Box.static(1)\n",
    }.items()}
    assert _unset_params(trees) == ["a.f.unset", "a.f.kw_only",
                                    "a.Box.__init__.unset",
                                    "a.Box.method.unset"]
