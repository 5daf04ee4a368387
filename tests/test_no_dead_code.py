"""Every function, class and method defined in ``src/mvlab``, and every
name a module of it assigns at its top level, is named somewhere else in
``src/``, ``tests/`` or ``perfbench/``; and every parameter of every
function and lambda there is read in its body.

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


# parameters kept unread on purpose, as (function, parameter)
UNREAD_PARAMETERS = {
    # every verifier shares one signature, (inst, budget), and the
    # arithmetic lemma runs no search
    ("_v_lemma_binom", "budget"),
}


def _parameters(fn, method: bool) -> list[str]:
    """The parameters of ``fn``, without the receiver (self or cls) of a
    method other than a static one: Python passes that, not a caller."""
    args = fn.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in getattr(fn, "decorator_list", ()))
    return [a.arg for a in every[method and not static:] if a is not None]


def _reads(fn) -> set[str]:
    """The names ``fn``'s body loads, nested functions and lambdas included."""
    body = fn.body if isinstance(fn.body, list) else [fn.body]  # a lambda's is one expr
    return {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_parameter_is_read():
    library, _ = _parse_all()
    unread = []
    for path, tree in library.items():
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "<lambda>")
            reads = _reads(fn)
            unread.extend(f"{path.relative_to(ROOT)}:{fn.lineno} {name}({param})"
                          for param in _parameters(fn, id(fn) in methods)
                          if param not in reads and (name, param) not in UNREAD_PARAMETERS)
    assert not unread, "parameter never read:\n" + "\n".join(unread)
