"""Only a class that checks itself in ``__post_init__`` is a dataclass.

``@dataclass`` writes the source of a class's methods and runs ``exec`` on
it at every import of the package. That pays for a config that rejects bad
values as it is built, and that the harness reads with ``fields()`` and
``replace()``. A record that only holds fields is a ``typing.NamedTuple``
when nothing changes it once built, and else a plain class with
``__slots__`` and its own ``__init__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xrsim"


def _is_dataclass(decorator) -> bool:
    """Whether the decorator is ``dataclass``, called or not, bare or as an
    attribute of its module."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(node, "id", None) == "dataclass"
            or getattr(node, "attr", None) == "dataclass")


def _unchecked_dataclasses(trees):
    """module.Class of each dataclass without a ``__post_init__``."""
    return [f"{mod}.{cls.name}" for mod, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and any(_is_dataclass(d) for d in cls.decorator_list)
            and not any(isinstance(fn, ast.FunctionDef)
                        and fn.name == "__post_init__" for fn in cls.body)]


def test_only_self_checking_classes_are_dataclasses():
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert _unchecked_dataclasses(trees) == [], (
        "these only hold fields: make each a NamedTuple, or a __slots__ "
        "class if something changes it")


def test_an_unchecked_dataclass_is_found():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Bare:\n    x: int\n\n"
        "@dataclass(frozen=True)\nclass Called:\n    x: int\n\n"
        "@dataclasses.dataclass\nclass Dotted:\n    x: int\n\n"
        "@dataclass\nclass Checked:\n    x: int\n\n"
        "    def __post_init__(self):\n        pass\n\n"
        "class Plain:\n    def __post_init__(self):\n        pass\n")
    assert _unchecked_dataclasses({"a": tree}) == ["a.Bare", "a.Called",
                                                   "a.Dotted"]
