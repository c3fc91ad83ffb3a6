"""Spans around the public functions of the qlfd modules, recorded from
outside the package.

``install()`` wraps every public function defined in a layer module and
rebinds the wrapper in every ``qlfd`` namespace that holds the original
(``from .arith import det_mod`` copies the name into ``certify``,
``semiinv`` and ``repmatrix``), so that spans nest however a function is
reached.  Each span is kept in memory as
``(name, start, end, parent, info, nested, layer_nested)`` and written out
by the caller when the certification ends.

``layer_metrics()`` turns the spans of one certification into the per-layer
figures named in ``PER_LAYER``; ``pass_metrics()`` adds them up
over a pass.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

# The package's modules, in dependency order.  ``fixtures`` only generates
# inputs and is not traced.
LAYERS = ("cli", "qfile", "quiver", "roots", "repmatrix", "arith", "semiinv", "certify")

# Scalar and polynomial helpers called in inner loops; their time stays in
# the caller's self time instead of costing a span per coefficient list.
UNTRACED = {
    "arith": {"mat_copy", "poly_trim", "poly_degree", "poly_add", "poly_scale",
              "poly_mul", "poly_eval", "poly_monic", "is_prime", "derive_seed"},
}

# Private helpers traced because a per-layer ratio is measured at them.
EXTRA = {"certify": ("_line_restriction_poly",)}

METHODS = (
    ("semiinv", "SchofieldHandle", "evaluate", "semiinv.handle_evaluate"),
    ("repmatrix", "LinearFormMatrix", "evaluate", "repmatrix.lfm_evaluate"),
)


def _full_degree(result, expected: int) -> int:
    return int(bool(result) and len(result) - 1 == expected)


# Per-function detail kept in the span's ``info`` slot.
INFO = {
    "arith.det_mod": lambda args, result: len(args[0]),
    "arith.inverse_mod": lambda args, result: result is None,
    "arith.det_pencil_poly": lambda args, result: result is None,
    "arith.interpolate": lambda args, result: _full_degree(result, len(args[0]) - 1),
    "certify._line_restriction_poly": lambda args, result: _full_degree(result, args[0].size),
}

RAISED = "raised"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._active: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        layer = name.split(".", 1)[0]
        info_of = INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            nested = active.get(name, 0)
            layer_nested = active.get(layer, 0)
            active[name] = nested + 1
            active[layer] = layer_nested + 1
            stack.append(idx)
            info = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if info_of is not None:
                    info = info_of(args, result)
                return result
            except BaseException:
                end = clock()
                info = RAISED
                raise
            finally:
                stack.pop()
                active[name] = nested
                active[layer] = layer_nested
                spans[idx] = (name, start, end, parent, info, nested > 0, layer_nested > 0)

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind them in every qlfd namespace.

    ``qlfd.certify`` as a package attribute is the function, so modules are
    reached through ``importlib`` and ``sys.modules``.
    """
    modules = {layer: importlib.import_module(f"qlfd.{layer}") for layer in LAYERS}
    originals = {}
    for layer, mod in modules.items():
        skip = UNTRACED.get(layer, set())
        for attr, value in vars(mod).items():
            public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
            if (public and attr not in skip and isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__):
                originals[id(value)] = tracer.wrap(f"{layer}.{attr}", value)
    namespaces = [m for name, m in sys.modules.items()
                  if name == "qlfd" or name.startswith("qlfd.")]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(ns, attr, wrapper)
    for layer, cls_name, method, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))


# ---------------------------------------------------------------------------
# Aggregation

# Per-layer metrics: (name, unit, better).  ``*.total_s`` and ``*.calls``
# count outermost spans of a function, ``*.self_s`` subtracts the time its
# direct child spans cover.
PER_LAYER = (
    ("certify.certify.self_s", "s", "lower"),
    ("certify.discriminant_degree.total_s", "s", "lower"),
    ("certify.squarefree_probe.total_s", "s", "lower"),
    ("certify.verify_factorization.total_s", "s", "lower"),
    ("certify.line_yield", "ratio", "higher"),
    ("certify.ratio_yield", "ratio", "higher"),
    ("certify.advisory_yield", "ratio", "higher"),
    ("semiinv.sample_generic_witness.calls", "count", "lower"),
    ("semiinv.sample_generic_witness.total_s", "s", "lower"),
    ("semiinv.degree_of.calls", "count", "lower"),
    ("semiinv.degree_of.total_s", "s", "lower"),
    ("semiinv.handle_evals", "count", "lower"),
    ("semiinv.witness_yield", "ratio", "higher"),
    ("semiinv.verify_weight.total_s", "s", "lower"),
    ("arith.det_pencil_poly.calls", "count", "lower"),
    ("arith.det_pencil_poly.total_s", "s", "lower"),
    ("arith.det_pencil_poly.fallbacks", "count", "lower"),
    ("arith.inverse_mod.total_s", "s", "lower"),
    ("arith.mat_mul_mod.total_s", "s", "lower"),
    ("arith.charpoly_mod.total_s", "s", "lower"),
    ("arith.det_mod.calls", "count", "lower"),
    ("arith.det_mod.total_s", "s", "lower"),
    ("arith.det_mod.max_n", "rows", "lower"),
    ("arith.det_mod.ops_computed", "ops", "lower"),
    ("arith.det_exact.calls", "count", "lower"),
    ("arith.det_exact.total_s", "s", "lower"),
    ("arith.poly_gcd.total_s", "s", "lower"),
    ("arith.interpolate.total_s", "s", "lower"),
    ("repmatrix.action_matrix.calls", "count", "lower"),
    ("repmatrix.action_matrix.total_s", "s", "lower"),
    ("repmatrix.lfm_evaluate.calls", "count", "lower"),
    ("repmatrix.lfm_evaluate.total_s", "s", "lower"),
    ("repmatrix.defect_matrix.calls", "count", "lower"),
    ("repmatrix.defect_matrix.total_s", "s", "lower"),
    ("repmatrix.random_representation.calls", "count", "lower"),
    ("repmatrix.random_representation.total_s", "s", "lower"),
    ("roots.brick_probe.total_s", "s", "lower"),
    ("roots.orthogonal_roots.total_s", "s", "lower"),
    ("roots.semigroup_basis.total_s", "s", "lower"),
    ("quiver.total_s", "s", "lower"),
    ("qfile.parse_path.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
RATIOS = ("certify.line_yield", "certify.ratio_yield", "semiinv.witness_yield")

LINE_PARENTS = ("certify.squarefree_probe", "certify.discriminant_degree")


def layer_metrics(spans) -> dict[str, float]:
    """Sums and counts for one certification's spans.

    ``total_s`` and ``calls`` count outermost spans of a name, so recursion
    is not counted twice; ``self_s`` is the span's duration minus the time
    its direct child spans cover.  Ratios are returned as numerator and
    denominator (``*.num``/``*.den``) so that a pass can add them up.
    """
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    children_time = [0.0] * len(spans)
    for name, start, end, parent, info, nested, layer_nested in spans:
        if parent >= 0:
            children_time[parent] += end - start
    names = [s[0] for s in spans]
    for i, (name, start, end, parent, info, nested, layer_nested) in enumerate(spans):
        dur = end - start
        parent_name = names[parent] if parent >= 0 else None
        if not nested:
            add(f"{name}.calls", 1)
            add(f"{name}.total_s", dur)
        add(f"{name}.self_s", dur - children_time[i])
        if name.startswith("quiver.") and not layer_nested:
            add("quiver.total_s", dur)
        if name == "arith.det_mod":
            add("arith.det_mod.ops_computed", info ** 3 / 3)
            out["arith.det_mod.max_n"] = max(out.get("arith.det_mod.max_n", 0), info)
        elif name == "arith.det_pencil_poly" and not nested:
            # the first call is inverse_mod(M1); None means M1 was singular
            first = spans[i + 1] if i + 1 < len(spans) and spans[i + 1][3] == i else None
            if info or (first is not None and first[0] == "arith.inverse_mod" and first[4]):
                add("arith.det_pencil_poly.fallbacks", 1)
        elif name == "certify._line_restriction_poly" or (
                name == "arith.interpolate" and parent_name in LINE_PARENTS):
            add("certify.line_yield.den", 1)
            add("certify.line_yield.num", info)
        elif name == "semiinv.handle_evaluate":
            add("semiinv.handle_evals", 1)
        elif name == "semiinv.sample_generic_witness" and not nested:
            add("semiinv.witness_yield.num", info != RAISED)
        if name == "repmatrix.random_representation":
            if parent_name == "semiinv.sample_generic_witness":
                add("semiinv.witness_yield.den", 0.5)  # two witnesses per attempt
            elif parent_name == "certify.verify_factorization":
                add("certify.ratio_yield.den", 1)
        if name in ("arith.det_mod", "arith.det_exact") and (
                parent_name == "certify.verify_factorization"):
            add("certify.ratio_yield.num", 1)
    return out


def pass_metrics(per_cert: list[dict], notes: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics of one pass (all of ``PER_LAYER`` but the trace
    overhead): sums over its certifications, ratios of sums.  ``notes``
    holds (scanned, kept) advisory candidate counts read from the reports.
    A ratio with nothing attempted reads 0."""
    total: dict[str, float] = {}
    for m in per_cert:
        for key, value in m.items():
            if key.endswith(".max_n"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    for ratio in RATIOS:
        den = total.get(f"{ratio}.den", 0)
        total[ratio] = total.get(f"{ratio}.num", 0) / den if den else 0.0
    scanned = sum(s for s, _ in notes)
    total["certify.advisory_yield"] = sum(k for _, k in notes) / scanned if scanned else 0.0
    return {name: total.get(name, 0) for name, _, _ in PER_LAYER
            if name != "trace.overhead_frac"}
