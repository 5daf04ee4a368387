"""Every function, class and method defined in ``src/mvlab``, and every
name a module of it assigns at its top level, is named somewhere else in
``src/``, ``tests/`` or ``perfbench/``.

A name counts as used where the code reads it (a name, an attribute or an
import) or spells it in a string that is not a docstring, which covers
``__all__`` and the benchmark tracer's hook table. Mentions in comments or
docstrings do not count, nor do a definition's references to itself, nor
assignments to a name. Dunder names are used by Python itself and are
exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IDENT = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node) is not None:
            out.add(id(node.body[0].value))
    return out


def _references(tree: ast.AST):
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            yield from IDENT.findall(node.value)


def _module_assignments(tree: ast.Module):
    """(line, name) of each name a module assigns at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _parse_all():
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    named = Counter()
    for tree in trees.values():
        named.update(_references(tree))
    library = {path: tree for path, tree in trees.items()
               if ROOT / "src" / "mvlab" in path.parents}
    return library, named


def test_every_module_level_name_is_read():
    library, named = _parse_all()
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in library.items()
              for line, name in _module_assignments(tree)
              if not _dunder(name) and not named[name]]
    assert not unread, "assigned but never read:\n" + "\n".join(unread)


def test_every_definition_is_named_elsewhere():
    library, named = _parse_all()
    unused = []
    for path, tree in library.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            name = node.name
            if _dunder(name):
                continue
            own = sum(ref == name for ref in _references(node))
            if named[name] == own:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never named elsewhere:\n" + "\n".join(unused)
