"""Every name a ``gradus`` module imports is used by that module, every
name a module lists in ``__all__`` is its own, every private name a module
defines is read by some module, and every option a CLI stage defines is
read by that stage.  Score time is integer ticks, so no module imports
``fractions``.

No linter ships with the project, so this walks each module's syntax tree
with the standard ``ast`` module.  An imported name counts as used when the
module reads it anywhere (annotations included) or lists it in ``__all__``;
``from __future__`` imports are directives, not names.  A module's own
names are those it binds at module level by ``def``, ``class`` or
assignment; the package ``__init__`` re-exports by design.  A private
module-level name (one leading underscore) counts as read when any module
of the package loads it, imports it or reads it as an attribute.  A stage's
option counts as read when the stage's function reads ``args.<dest>`` or
the stage declares it among its ``inputs``.  No stage function returns a
value: ``main`` alone picks the exit code.
"""

import argparse
import ast
from pathlib import Path

import pytest

from gradus import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "gradus"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> list[str]:
    """The names the module's ``__all__`` lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used.union(exported_names(tree))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported_names(tree).items(),
                                                            key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Optional, Sequence\n"
              "from .score import Score\n"
              "__all__ = ['Score']\n"
              "def f(x: Sequence[int]) -> None:\n"
              "    return np.asarray(x)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: Optional"]


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound at module level by ``def``, ``class`` or assignment,
    with the line that binds it."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update(dict.fromkeys(bound, node.lineno))
    return names


def foreign_exports(source: str) -> list[str]:
    """Each name ``__all__`` lists that the module does not define itself."""
    tree = ast.parse(source)
    return [name for name in exported_names(tree) if name not in defined_names(tree)]


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_module_exports_only_its_own_names(path):
    assert foreign_exports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_foreign_and_own_exports():
    source = ("from .gnb import LIMIT, fit\n"
              "import numpy as np\n"
              "__all__ = ['LIMIT', 'Own', 'helper', 'RATE', 'np', 'missing']\n"
              "RATE: float = 0.5\n"
              "class Own:\n"
              "    pass\n"
              "def helper():\n"
              "    return fit\n")
    assert foreign_exports(source) == ["LIMIT", "np", "missing"]


def private_names(tree: ast.Module) -> dict[str, int]:
    """Each private name bound at module level, with the line that binds it."""
    return {name: line for name, line in defined_names(tree).items()
            if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as an attribute or imports from a module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{module} line {line}: {name}" for module, tree in trees.items()
            for name, line in private_names(tree).items() if name not in read]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_checker_sees_unread_and_read_private_names():
    sources = {"a.py": ("_UNREAD = 1\n"
                        "_LOADED = 2\n"
                        "_IMPORTED: int = 3\n"
                        "_ATTR, __dunder__ = 4, 5\n"
                        "def _helper():\n"
                        "    return _LOADED\n"
                        "class _Gone:\n"
                        "    _attr_of_class = 6\n"),
               "b.py": ("from .a import _IMPORTED\n"
                        "from . import a\n"
                        "print(a._ATTR)\n")}
    assert unread_private_names(sources) == ["a.py line 1: _UNREAD", "a.py line 5: _helper",
                                             "a.py line 7: _Gone"]


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level name of every absolute import in ``tree``."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def fraction_importers(sources: dict[str, str]) -> list[str]:
    """Each module that imports ``fractions``."""
    return [name for name, source in sources.items()
            if "fractions" in imported_modules(ast.parse(source))]


def test_no_module_imports_fractions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert fraction_importers(sources) == []


def test_checker_sees_fractions_imports():
    sources = {"a.py": "from fractions import Fraction\n",
               "b.py": "import math, fractions as f\n",
               "c.py": "def g():\n    import fractions\n",
               "d.py": "import math\nfrom .score import Fraction\n",
               "score.py": "from fractions import Fraction\ndef quarter_text(t):\n    pass\n"}
    assert fraction_importers(sources) == ["a.py", "b.py", "c.py", "score.py"]


def stage_parsers(parser: argparse.ArgumentParser) -> list[argparse.ArgumentParser]:
    """The parser of every stage under ``parser``, nested subcommands included."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [parser]
    return [stage for a in subs for sub in a.choices.values() for stage in stage_parsers(sub)]


def unread_options(parser: argparse.ArgumentParser, source: str) -> list[str]:
    """Each stage option that its function in ``source`` never reads as
    ``args.<dest>`` and that its ``inputs`` do not declare."""
    functions = {node.name: node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef)}
    unread = []
    for stage in stage_parsers(parser):
        body = functions[stage.get_default("func").__name__]
        read = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        read.update(stage.get_default("inputs") or ())
        unread += [f"{stage.prog}: {action.dest}" for action in stage._actions
                   if not isinstance(action, argparse._HelpAction) and action.dest not in read]
    return unread


def test_every_stage_reads_its_options():
    parser = cli._build_parser()
    assert unread_options(parser, (SRC / "cli.py").read_text(encoding="utf-8")) == []


def _cmd_demo(args):
    pass


def test_checker_sees_unread_and_read_options():
    parser = argparse.ArgumentParser(prog="p")
    sub = parser.add_subparsers(dest="command")
    group = sub.add_parser("group").add_subparsers(dest="inner")
    for stage in (sub.add_parser("one"), group.add_parser("two")):
        for option in ("--read", "--declared", "--dead"):
            stage.add_argument(option)
        stage.set_defaults(func=_cmd_demo, inputs=("declared",))
    source = ("def _cmd_demo(args):\n"
              "    dead = 'args.dead'\n"
              "    return args.read, getattr(args, 'dead'), other.dead\n")
    assert unread_options(parser, source) == ["p group two: dead", "p one: dead"]


def valued_stage_returns(source: str) -> list[str]:
    """Each ``return`` with a value in a module-level ``_cmd_*`` function of ``source``."""
    return [f"{node.name} line {ret.lineno}" for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
            for ret in ast.walk(node) if isinstance(ret, ast.Return) and ret.value is not None]


def test_no_stage_returns_a_value():
    assert valued_stage_returns((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_checker_sees_valued_and_bare_returns():
    source = ("def _cmd_old(args):\n"
              "    print(args)\n"
              "    return 0\n"
              "def _cmd_new(args):\n"
              "    if args.dry:\n"
              "        return\n"
              "    print(args)\n"
              "def _helper(args):\n"
              "    return 1\n"
              "def main(argv):\n"
              "    return 0\n")
    assert valued_stage_returns(source) == ["_cmd_old line 3"]
