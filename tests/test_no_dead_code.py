"""Every function, class and method defined in ``src/mvlab`` is named
somewhere else in ``src/``, ``tests/`` or ``perfbench/``.

A name counts as used where the code reads it (a name, an attribute or an
import) or spells it in a string that is not a docstring, which covers
``__all__`` and the benchmark tracer's hook table. Mentions in comments or
docstrings do not count, nor do a definition's references to itself.
Dunder methods are called by Python itself and are exempt.
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
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            yield from IDENT.findall(node.value)


def test_every_definition_is_named_elsewhere():
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    named = Counter()
    for tree in trees.values():
        named.update(_references(tree))
    unused = []
    for path, tree in trees.items():
        if ROOT / "src" / "mvlab" not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(ref == name for ref in _references(node))
            if named[name] == own:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never named elsewhere:\n" + "\n".join(unused)
