"""Spans and counts around the public functions of each ``fourlines`` module.

Only traced runs import this file.  :meth:`Tracer.install` replaces each
wrapped function at every module that holds it (``fourlines.cli`` and
``fourlines.transversal`` import ``check_tp_config`` by name, for example)
and each wrapped method on its class; :meth:`Tracer.restore` puts every
original back.  Spans ``[name, start, end, parent, item]`` and counts stay
in memory until :meth:`Tracer.summary` or :meth:`Tracer.dump`.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import fourlines.cli  # noqa: F401  (loads every module that gets wrapped)
from fourlines.exact import MatQ, QuadNum
from fourlines.identity import IdentityCertificate
from fourlines.poly import Poly16

#: (module, function, span name)
FUNCTION_SPANS = (
    ("fourlines.cli", "run", "cli.run"),
    ("fourlines.serialize", "loads", "serialize.parse"),
    ("fourlines.serialize", "blocks_from_obj", "serialize.parse"),
    ("fourlines.serialize", "curve_spec_from_obj", "serialize.parse"),
    ("fourlines.serialize", "dumps", "serialize.emit"),
    ("fourlines.serialize", "tp_report_to_obj", "serialize.emit"),
    ("fourlines.serialize", "solution_to_obj", "serialize.emit"),
    ("fourlines.serialize", "sample_report_to_obj", "serialize.emit"),
    ("fourlines.totalpos", "check_tp_config", "totalpos.check_tp_config"),
    ("fourlines.totalpos", "canonicalize", "totalpos.canonicalize"),
    ("fourlines.transversal", "solve_transversals", "transversal.solve"),
    ("fourlines.transversal", "bilinear_forms", "transversal.forms"),
    ("fourlines.transversal", "eliminate_to_quadratic", "transversal.forms"),
    ("fourlines.transversal", "discriminant_from_minors", "transversal.forms"),
    ("fourlines.transversal", "solve_canonical", "transversal.solve_canonical"),
    ("fourlines.curves", "epsilon_threshold", "curves.epsilon_threshold"),
    ("fourlines.curves", "tangent_config", "curves.tangent_config"),
    ("fourlines.identity", "symbolic_D", "identity.symbolic_D"),
    ("fourlines.identity", "rhs_poly", "identity.rhs_poly"),
    ("fourlines.poly", "poly_equal", "poly.equal"),
)
#: (class, method, span name)
METHOD_SPANS = (
    (MatQ, "inverse", "exact.inverse"),
    (MatQ, "rank", "exact.rref"),
    (MatQ, "nullspace", "exact.rref"),
    (MatQ, "__matmul__", "exact.matmul"),
    (Poly16, "eval", "poly.eval"),
    (IdentityCertificate, "to_obj", "identity.to_obj"),
)
#: (class, method, counter): counted calls without a span
METHOD_COUNTS = tuple(
    (QuadNum, name, "exact.quad_ops")
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "inverse")
) + ((Poly16, "__mul__", "poly.mul_calls"), (Poly16, "__rmul__", "poly.mul_calls"))
#: Spans that own the minors evaluated directly inside them.
MINOR_OWNERS = ("totalpos.check_tp_config", "totalpos.canonicalize")

#: Per-layer metric -> (unit, how it is computed).  ``self`` sums span time
#: minus child spans, ``total`` sums whole spans, ``count`` sums a counter;
#: all three are divided by the number of items.
METRICS = {
    "cli.self_ms": ("ms", "self", "cli.run"),
    "serialize.parse_ms": ("ms", "self", "serialize.parse"),
    "serialize.emit_ms": ("ms", "self", "serialize.emit"),
    "totalpos.check_tp_config_ms": ("ms", "self", "totalpos.check_tp_config"),
    "totalpos.check_tp_config_minors": ("count", "count", "minors.totalpos.check_tp_config"),
    "totalpos.canonicalize_ms": ("ms", "self", "totalpos.canonicalize"),
    "totalpos.canonicalize_minors": ("count", "count", "minors.totalpos.canonicalize"),
    "transversal.solve_ms": ("ms", "total", "transversal.solve"),
    "transversal.self_ms": ("ms", "self", "transversal.solve"),
    "transversal.forms_ms": ("ms", "self", "transversal.forms"),
    "transversal.solve_canonical_ms": ("ms", "self", "transversal.solve_canonical"),
    "exact.det_calls.frac1": ("count", "count", "det.frac1"),
    "exact.det_calls.frac2": ("count", "count", "det.frac2"),
    "exact.det_calls.frac3": ("count", "count", "det.frac3"),
    "exact.det_calls.frac4": ("count", "count", "det.frac4"),
    "exact.det_calls.quad4": ("count", "count", "det.quad4"),
    "exact.det_ms.frac": ("ms", "self", "exact.det.frac"),
    "exact.det_ms.quad": ("ms", "self", "exact.det.quad"),
    "exact.inverse_calls": ("count", "count", "calls.exact.inverse"),
    "exact.inverse_ms": ("ms", "self", "exact.inverse"),
    "exact.rref_ms": ("ms", "self", "exact.rref"),
    "exact.matmul_ms": ("ms", "self", "exact.matmul"),
    "exact.quad_ops": ("count", "count", "exact.quad_ops"),
    "curves.epsilon_threshold_ms": ("ms", "self", "curves.epsilon_threshold"),
    "curves.lemma_sample_calls": ("count", "count", "calls.curves.lemma_sample"),
    "curves.lemma_sample_ms": ("ms", "self", "curves.lemma_sample"),
    "curves.tangent_config_ms": ("ms", "self", "curves.tangent_config"),
    "curves.frenet_basis_calls": ("count", "count", "curves.frenet_basis_calls"),
    "identity.symbolic_D_ms": ("ms", "self", "identity.symbolic_D"),
    "identity.rhs_poly_ms": ("ms", "self", "identity.rhs_poly"),
    "identity.to_obj_ms": ("ms", "self", "identity.to_obj"),
    "poly.mul_calls": ("count", "count", "poly.mul_calls"),
    "poly.equal_ms": ("ms", "self", "poly.equal"),
    "poly.eval_calls": ("count", "count", "calls.poly.eval"),
    "poly.eval_ms": ("ms", "self", "poly.eval"),
}


def _bits(x) -> int:
    if isinstance(x, QuadNum):
        return max(_bits(x.a), _bits(x.b), _bits(x.d))
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.item = None
        self._stack: list = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.item]
            spans.append(span)
            stack.append(idx)
            counts["calls." + name] += 1
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _det(self, fn):
        """Bareiss determinants, spanned and counted by scalar type and size."""
        spans = {kind: self._spanned("exact.det." + kind, fn) for kind in ("frac", "quad")}

        def wrapper(m):
            kind = "quad" if isinstance(m[0, 0], QuadNum) else "frac"
            self.counts[f"det.{kind}{m.rows}"] += 1
            result = spans[kind](m)
            self.max_bits = max(self.max_bits, _bits(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _minor(self, fn):
        def wrapper(m, rows, cols):
            owner = next((self.spans[i][0] for i in reversed(self._stack)
                          if self.spans[i][0] in MINOR_OWNERS), "other")
            self.counts["minors." + owner] += 1
            return fn(m, rows, cols)

        wrapper.__wrapped__ = fn
        return wrapper

    def _lemma_done(self, args, report):
        self.counts["curves.lemma_sample_ok"] += bool(report.ok)

    # -- install / restore ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, module, name, make):
        original = getattr(sys.modules[module], name)
        wrapper = make(original)
        holders = [m for key, m in list(sys.modules.items())
                   if (key == "fourlines" or key.startswith("fourlines.")) and
                   getattr(m, name, None) is original]
        for holder in holders:
            self._patch(holder, name, wrapper)

    def install(self) -> None:
        for module, name, span in FUNCTION_SPANS:
            self._patch_everywhere(module, name, lambda fn, span=span: self._spanned(span, fn))
        self._patch_everywhere("fourlines.curves", "lemma_sample",
                               lambda fn: self._spanned("curves.lemma_sample", fn, self._lemma_done))
        self._patch_everywhere("fourlines.curves", "frenet_basis",
                               lambda fn: self._counted("curves.frenet_basis_calls", fn))
        for cls, name, span in METHOD_SPANS:
            self._patch(cls, name, self._spanned(span, cls.__dict__[name]))
        for cls, name, counter in METHOD_COUNTS:
            self._patch(cls, name, self._counted(counter, cls.__dict__[name]))
        self._patch(MatQ, "det", self._det(MatQ.__dict__["det"]))
        self._patch(MatQ, "minor", self._minor(MatQ.__dict__["minor"]))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Summed self and total span time (s) per span name, and the counts."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, total_s = Counter(), Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
            total_s[name] += end - start
        return {"self": dict(self_s), "total": dict(total_s), "counts": dict(self.counts),
                "max_bits": self.max_bits}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **self.totals()}, fh)


def merge(totals_list) -> dict:
    """Sum several :meth:`Tracer.totals` results (one per traced process)."""
    out = {"self": Counter(), "total": Counter(), "counts": Counter(), "max_bits": 0}
    for t in totals_list:
        for key in ("self", "total", "counts"):
            out[key].update(t[key])
        out["max_bits"] = max(out["max_bits"], t["max_bits"])
    return out


def per_layer(totals: dict, items: int) -> dict:
    """The per-layer metrics, per item, from merged totals."""
    values = {}
    for metric, (unit, how, key) in METRICS.items():
        if how == "count":
            values[metric] = (totals["counts"].get(key, 0) / items, unit)
        else:
            values[metric] = (totals[how].get(key, 0.0) * 1000 / items, unit)
    calls = totals["counts"].get("calls.curves.lemma_sample", 0)
    ok = totals["counts"].get("curves.lemma_sample_ok", 0)
    values["exact.max_bits"] = (totals["max_bits"], "bits")
    values["curves.certified_ratio"] = (ok / calls if calls else 0.0, "ratio")
    return values
