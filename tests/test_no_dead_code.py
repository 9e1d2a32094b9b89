"""Every module-level function in the package is used by the package or
exported, and every exported name resolves."""

import ast
import inspect
import pathlib

import quadpencil

SRC = pathlib.Path(quadpencil.__file__).parent


def _defs_and_uses():
    """(file, name) of every module-level function, and every name or
    attribute the package reads outside the defining function's body."""
    defs = []
    uses = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.name, node.name))
        for top in tree.body:
            owner = (top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    uses.add(name)
    return defs, uses


def _exported():
    """Names in __all__, plus the public functions of the modules that
    __all__ exports whole (the seeded samplers)."""
    out = set(quadpencil.__all__)
    for name in quadpencil.__all__:
        member = getattr(quadpencil, name)
        if inspect.ismodule(member):
            out.update(n for n, f in vars(member).items()
                       if inspect.isfunction(f) and not n.startswith("_"))
    return out


def test_every_module_function_is_used_or_exported():
    defs, uses = _defs_and_uses()
    exported = _exported()
    dead = ["%s:%s" % (mod, name) for mod, name in defs
            if name not in uses and name not in exported]
    assert dead == []


def test_all_names_resolve():
    missing = [name for name in quadpencil.__all__
               if not hasattr(quadpencil, name)]
    assert missing == []
    assert len(set(quadpencil.__all__)) == len(quadpencil.__all__)
