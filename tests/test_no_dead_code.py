"""Every module-level function and class method in the package is used by
the package or exported, every dataclass field is read, and every
exported name resolves."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import quadpencil

SRC = pathlib.Path(quadpencil.__file__).parent

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reads(node, skip):
    """Names and attribute names read under node, other than skip."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id != skip:
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and sub.attr != skip:
            attrs.add(sub.attr)
    return names, attrs


def _defs_and_uses():
    """(file, name) of every module-level function, (file, class, name)
    of every method, every name or attribute the package reads outside
    the defining function's body, and the attribute names alone (a method
    is only reached through an attribute)."""
    funcs, methods = [], []
    uses, attr_uses = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, _FUNCS):
                funcs.append((path.name, top.name))
                parts = [(top, top.name)]
            elif isinstance(top, ast.ClassDef):
                parts = []
                for node in top.body:
                    if isinstance(node, _FUNCS):
                        methods.append((path.name, top.name, node.name))
                        parts.append((node, node.name))
                    else:
                        parts.append((node, None))
                parts.extend((b, None) for b in top.bases + top.decorator_list)
            else:
                parts = [(top, None)]
            for node, owner in parts:
                names, attrs = _reads(node, owner)
                uses |= names | attrs
                attr_uses |= attrs
    return funcs, methods, uses, attr_uses


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


def _overrides(mod, cls, name):
    """True when the method replaces one inherited from a base class,
    which calls it by contract (argparse calls _Parser.error)."""
    klass = getattr(importlib.import_module("quadpencil." + mod[:-3]), cls)
    return any(hasattr(base, name) for base in klass.__mro__[1:])


def test_every_module_function_is_used_or_exported():
    funcs, _, uses, _ = _defs_and_uses()
    exported = _exported()
    dead = ["%s:%s" % (mod, name) for mod, name in funcs
            if name not in uses and name not in exported]
    assert dead == []


def test_every_method_is_used():
    _, methods, _, attr_uses = _defs_and_uses()
    dead = ["%s:%s.%s" % (mod, cls, name) for mod, cls, name in methods
            if not (name.startswith("__") and name.endswith("__"))
            and name not in attr_uses and not _overrides(mod, cls, name)]
    assert dead == []


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None)
               == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    """Every annotated field of a package dataclass is read as an
    attribute somewhere in the package, so no stage fills a field that
    nothing consumes."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.extend(
                    (path.name, node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                reads.add(node.attr)
    assert fields
    dead = ["%s:%s.%s" % f for f in fields if f[2] not in reads]
    assert dead == []


def test_every_import_is_used():
    """Every name a package module imports (the package's __init__, which
    re-exports, excepted) is read somewhere in that module, so a deletion
    cannot leave its imports behind."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0]
                             for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported += [a.asname or a.name for a in node.names]
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += ["%s:%s" % (path.name, name) for name in imported
                   if name not in read]
    assert unused == []


def test_all_names_resolve():
    missing = [name for name in quadpencil.__all__
               if not hasattr(quadpencil, name)]
    assert missing == []
    assert len(set(quadpencil.__all__)) == len(quadpencil.__all__)


def _tracer():
    path = SRC.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    """Every function the benchmark's tracer wraps or counts exists where
    the tracer looks for it, so a renamed or deleted stage fails here
    rather than in a benchmark run.  A "Class.method" target is read from
    the class's own __dict__, as the tracer does: a method inherited from
    a base class does not resolve."""
    tracer = _tracer()
    targets = list(tracer.SPANS.values())
    targets += [t for tlist in tracer.COUNTS.values() for t in tlist]
    missing = []
    for module, attr in targets:
        mod = importlib.import_module("quadpencil." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append("%s.%s" % (module, attr))
    assert missing == []


def _normalized_body(fn):
    """ast dump of a function body, docstring dropped, with arguments
    and local names renamed in order of first appearance."""
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    local = set(params) | {
        n.id for n in ast.walk(fn)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    body = fn.body
    if ast.get_docstring(fn, clean=False) is not None:
        body = body[1:]
    names = {p: "v%d" % i for i, p in enumerate(params)}

    class Rename(ast.NodeTransformer):
        def visit_Name(self, node):
            if node.id in local:
                node.id = names.setdefault(node.id, "v%d" % len(names))
            return node

        def visit_arg(self, node):
            node.arg = names.setdefault(node.arg, "v%d" % len(names))
            return node

    body = [Rename().visit(stmt) for stmt in body]
    return len(body), ast.dump(ast.Module(body=body, type_ignores=[]))


def test_no_duplicate_function_bodies():
    """No two functions or methods, nested ones included, share a body of
    three or more statements up to the names of arguments and locals."""
    seen = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, _FUNCS):
                size, key = _normalized_body(node)
                if size >= 3:
                    seen.setdefault(key, []).append(
                        "%s:%s" % (path.name, node.name))
    assert [names for names in seen.values() if len(names) > 1] == []
