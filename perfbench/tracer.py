"""Per-layer tracing from outside the program.

Wrappers go on every quadpencil namespace that binds a traced function
(``regular.kronecker_decompose`` as well as ``kronecker.kronecker_decompose``,
``ip2s.canonicalize`` as well as ``regular.canonicalize``), so calls made
inside the package are seen too.  Two kinds of pass use them:

* a span pass times the functions in ``SPANS``: call counts, inclusive
  seconds and self seconds (inclusive minus the time covered by child
  spans), plus counts read off arguments and results;
* a counting pass counts element-level calls (``COUNTS``), which are too
  frequent to time without inflating the spans around them.

Metric names are ``<module>.<function>.<stat>``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# metric prefix -> (module, attribute); "Class.method" names a method
SPANS = {
    "field.extension": ("field", "FiniteField.extension"),
    "poly.poly_factor": ("poly", "poly_factor"),
    "poly.is_irreducible": ("poly", "is_irreducible"),
    "linalg.mat_mul": ("linalg", "mat_mul"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.inv": ("linalg", "inv"),
    "linalg.charpoly": ("linalg", "charpoly"),
    "linalg.ring_inv": ("linalg", "ring_inv"),
    "linalg.ring_mat_mul": ("linalg", "ring_mat_mul"),
    "localring.ring_sqrt": ("localring", "ring_sqrt"),
    "localring.hensel_root": ("localring", "hensel_root"),
    "pencil.apply_congruence": ("pencil", "apply_congruence"),
    "pencil.twist": ("pencil", "twist"),
    "pencil.char_poly": ("pencil", "char_poly"),
    "pencil.verify": ("pencil", "verify_ip1s"),
    "kronecker.kronecker_decompose": ("kronecker", "kronecker_decompose"),
    "kronecker.minimal_chain": ("kronecker", "minimal_chain"),
    "kronecker.split_kronecker": ("kronecker", "split_kronecker"),
    "kronecker.normalize_kronecker": ("kronecker", "normalize_kronecker"),
    "regular.canonicalize": ("regular", "canonicalize"),
    "regular.ip1s_solve": ("regular", "ip1s_solve"),
    "regular.infinite_split": ("regular", "infinite_split"),
    "regular.primary_split": ("regular", "primary_split"),
    "regular.local_structure": ("regular", "local_structure"),
    "regular.descend_bilinear": ("regular", "descend_bilinear"),
    "regular.split_free_layers": ("regular", "split_free_layers"),
    "regular.diagonalize_unit": ("regular", "diagonalize_unit"),
    "regular.canonical_assemble": ("regular", "canonical_assemble"),
    "ip2s.ip2s_solve": ("ip2s", "ip2s_solve"),
}

# metric prefix -> targets counted under it
COUNTS = {
    "field.mul": (("field", "FiniteField.mul"),),
    "field.add": (("field", "FiniteField.add"), ("field", "FiniteField.sub"),
                  ("field", "FiniteField.neg")),
    "field.inv": (("field", "FiniteField.inv"),),
    "field.pow": (("field", "FiniteField.pow"),),
    "field.is_square": (("field", "FiniteField.is_square"),),
    "field.field_sqrt": (("field", "field_sqrt"),),
    "field.extension": (("field", "FiniteField.extension"),),
    "poly.poly_xgcd": (("poly", "poly_xgcd"),),
    "localring.ring_ops": tuple(
        ("localring", "LocalRing." + m)
        for m in ("add", "sub", "neg", "mul", "inv", "div", "pow")),
    "pencil.Homography.make": (("pencil", "Homography.make"),),
    "pencil.Homography.compose": (("pencil", "Homography.compose"),),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quadpencil"
                                  or name.startswith("quadpencil."))]


def _resolve(module, attr):
    """(owner, name, original) for a module function or a class method;
    staticmethods are returned as their descriptor."""
    mod = sys.modules["quadpencil." + module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(mod, cls_name)
        return owner, meth, owner.__dict__[meth]
    return mod, attr, getattr(mod, attr)


@contextmanager
def _installed(targets):
    """Install wrappers: ``targets`` maps (module, attr) to a factory that
    takes the original function and returns its wrapper.  Module functions
    are replaced in every quadpencil namespace that binds them."""
    undo = []
    try:
        for (module, attr), make in targets.items():
            owner, name, orig = _resolve(module, attr)
            if isinstance(orig, staticmethod):
                setattr(owner, name, staticmethod(make(orig.__func__)))
                undo.append((owner, name, orig))
                continue
            wrapper = make(orig)
            owners = [owner] if "." in attr else [
                m for m in _package_modules()
                if getattr(m, name, None) is orig]
            for o in owners:
                setattr(o, name, wrapper)
                undo.append((o, name, orig))
        yield
    finally:
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)


def _mat_mul_madds(rec, args, out, snap):
    _, A, B = args[:3]
    rec.counts["linalg.mat_mul.madds"] += (
        len(A) * len(B) * (len(B[0]) if B else 0))


def _kron_blocks(rec, args, out, snap):
    rec.counts["kronecker.blocks"] += len(out.indices)


def _regular_places(rec, args, out, snap):
    blocks = out.local_blocks
    rec.counts["regular.places"] += len({b.place for b in blocks})
    rec.counts["regular.layers"] += len({(b.place, b.ell) for b in blocks})


def _ip2s_candidates(rec, args, out, snap):
    tried = max(rec.counts["regular.canonicalize.calls"] - snap - 2, 0)
    rec.counts["ip2s.candidates_tried"] += tried
    if out is not None and tried:
        rec.counts["ip2s.accepted"] += 1


_POST = {
    "linalg.mat_mul": _mat_mul_madds,
    "kronecker.kronecker_decompose": _kron_blocks,
    "regular.canonicalize": _regular_places,
    "ip2s.ip2s_solve": _ip2s_candidates,
}


class Recorder:
    """Span and count totals for one pass; spans nest on a stack."""

    def __init__(self):
        self.counts = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []
        self._depth = Counter()

    def _span(self, name, fn):
        counts, stack, depth = self.counts, self._stack, self._depth
        calls_key = name + ".calls"
        post = _POST.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            snap = counts["regular.canonicalize.calls"]
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                if not depth[name]:
                    self.incl[name] += dt
                self.self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if post is not None:
                post(self, args, out, snap)
            return out
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def spans(self):
        """Context manager installing the span wrappers."""
        targets = {}
        for name, target in SPANS.items():
            targets[target] = (lambda fn, name=name: self._span(name, fn))
        return _installed(targets)

    def element_counts(self):
        """Context manager installing the element-level counters."""
        targets = {}
        for name, tlist in COUNTS.items():
            for target in tlist:
                targets[target] = (
                    lambda fn, name=name: self._counter(name, fn))
        return _installed(targets)

    def table(self):
        """Every recorded metric by name.  pencil.verify counts
        verify_ip1s, which verify_ip2s calls, so each check counts once."""
        out = dict(self.counts)
        for name in self.incl:
            out[name + ".s"] = self.incl[name]
            out[name + ".self_s"] = self.self_s[name]
        tried = out.get("ip2s.candidates_tried", 0)
        accepted = out.get("ip2s.accepted", 0)
        out["ip2s.hit_rate"] = accepted / tried if tried else 0.0
        return out

