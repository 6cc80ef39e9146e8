"""Outside-in tracing of rptgeo: spans around its public functions and
methods, and Scalar arithmetic aggregated per enclosing span.

The tracer patches the functions in place: the defining module, every
``from .x import y`` binding in the other ``rptgeo`` modules, module-level
dicts holding them (the CLI's suite table) and the class attributes.  Spans
are kept in memory until ``metrics`` aggregates them.

A span's self time is its duration minus the time covered by its child
spans and by the Scalar arithmetic and printing recorded directly under it,
so nested calls are never counted twice.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from rptgeo.scalars import Scalar

# arithmetic record slots, one record per span that did arithmetic
ADD, MUL, DIV, NEG, ARITH_S, RATIONAL, RATIONAL_S, ZERO_OPERAND, STR, STR_S = range(10)

# (module, function, span name); a span name shared by several functions
# makes them one group
FUNCTIONS = (
    ("frames", "load_spec", "frames.load_spec"),
    ("frames", "validate", "frames.validate"),
    ("frames", "killing_check", "frames.killing_check"),
    ("frames", "spec_digest", "frames.spec_digest"),
    ("parser", "parse_expression", "parser.parse_expression"),
    ("tensors", "tensor_contract", "tensors.tensor_contract"),
    ("tensors", "arranged", "tensors.arranged"),
    ("tensors", "mat_mul", "tensors.matrix"),
    ("tensors", "mat_inv", "tensors.matrix"),
    ("tensors", "mat_det", "tensors.matrix"),
    ("tensors", "mat_transpose", "tensors.matrix"),
    ("geometry", "levi_civita", "geometry.levi_civita"),
    ("geometry", "fundamental_F", "geometry.fundamental_F"),
    ("geometry", "curvature", "geometry.curvature"),
    ("geometry", "square_norm_nabla_P", "geometry.square_norm_nabla_P"),
    ("geometry", "torsion_projections", "geometry.torsion_projections"),
    ("connections", "rpt_connection", "connections.rpt_connection"),
    ("connections", "covariant_derivative", "connections.covariant_derivative"),
    ("connections", "torsion_inner_products", "connections.torsion_inner_products"),
    ("connections", "sigma_T", "connections.sigma_T"),
    ("connections", "natural_check", "connections.natural_check"),
    ("theorems", "geometry_checks", "theorems.geometry_checks"),
    ("theorems", "rpt_checks", "theorems.rpt_checks"),
    ("theorems", "theorem_checks", "theorems.theorem_checks"),
    ("theorems", "verify_curvature_relation", "theorems.verify_curvature_relation"),
    ("theorems", "verify_torsion_type", "theorems.verify_torsion_type"),
    ("theorems", "verify_p_tensor_criterion", "theorems.verify_p_tensor_criterion"),
    ("theorems", "verify_parallel_torsion", "theorems.verify_parallel_torsion"),
    ("theorems", "check_p_tensor", "theorems.check_p_tensor"),
    ("example", "golden_tables", "example.golden_tables"),
    ("example", "compare_tensor", "example.compare"),
    ("example", "compare_connection", "example.compare"),
    ("example", "compare_scalars", "example.compare"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name)
METHODS = (
    ("tensors", "Tensor", "map_slot", "tensors.map_slot"),
    ("tensors", "Tensor", "raise_slot", "tensors.raise_slot"),
    ("tensors", "Tensor", "transpose", "tensors.transpose"),
    ("tensors", "Tensor", "__add__", "tensors.elementwise"),
    ("tensors", "Tensor", "__sub__", "tensors.elementwise"),
    ("tensors", "Tensor", "__neg__", "tensors.elementwise"),
    ("tensors", "Tensor", "scale", "tensors.elementwise"),
    ("connections", "ConnectionPack", "torsion_derivative", "connections.torsion_derivative"),
    ("connections", "ConnectionPack", "torsion_products", "connections.torsion_products"),
    ("connections", "ConnectionPack", "torsion_form_square", "connections.torsion_form_square"),
)

SCALAR_BINARY = (("__add__", ADD), ("__radd__", ADD), ("__sub__", ADD),
                 ("__rsub__", ADD), ("__mul__", MUL), ("__rmul__", MUL),
                 ("__truediv__", DIV), ("__rtruediv__", DIV))

# spans whose result components count as tensor-kernel output
KERNEL_SPANS = {"tensors.map_slot", "tensors.raise_slot", "tensors.transpose",
                "tensors.tensor_contract", "tensors.elementwise"}
# cache_hit_frac: calls whose result object this command already returned
CACHED_SPANS = {
    "geometry": ("geometry.levi_civita", "geometry.fundamental_F", "geometry.curvature"),
    "connections": ("connections.rpt_connection", "connections.torsion_derivative",
                    "connections.torsion_products", "connections.torsion_form_square"),
}
_CACHED = {name for names in CACHED_SPANS.values() for name in names}


def is_signed_permutation(m) -> bool:
    """Whether a square matrix of Scalars has exactly one entry +-1 in each
    row and column and zeros elsewhere."""
    nonzero = [(i, j) for i, row in enumerate(m) for j, x in enumerate(row)
               if not x.is_zero]
    n = len(m)
    return (len(nonzero) == n and len({i for i, _ in nonzero}) == n
            and len({j for _, j in nonzero}) == n
            and all(m[i][j] == 1 or m[i][j] == -1 for i, j in nonzero))


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "child_s",
                 "arith", "nested")

    def __init__(self, name, start, parent, command, nested):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.command = command
        self.child_s = 0.0
        self.arith = None
        self.nested = nested  # inside another span of the same name

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        own = self.child_s
        if self.arith is not None:
            own += self.arith[ARITH_S] + self.arith[STR_S]
        return self.duration - own


class Tracer:
    """Span recorder; ``installed()`` patches rptgeo for its duration."""

    def __init__(self):
        self.spans = []
        self.command = -1
        self._stack = []
        self._open_names = {}
        self._in_arith = False
        self._outside = Span("outside", 0.0, None, -1, False)  # arithmetic outside spans
        self.counters = {"components_out": 0, "map_slot_signed_perm": 0,
                         "check_p_tensor_repeat": 0}
        self.cache_calls = {layer: 0 for layer in CACHED_SPANS}
        self.cache_hits = {layer: 0 for layer in CACHED_SPANS}
        self._seen_results = {}
        self._seen_p_tensor = {}

    # -- spans -----------------------------------------------------------------

    def begin_command(self, command_id: int):
        """Start a new command: spans carry its id, caches are judged within it."""
        self.command = command_id
        self._seen_results = {}
        self._seen_p_tensor = {}

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        depth = self._open_names.get(name, 0)
        self._open_names[name] = depth + 1
        span = Span(name, 0.0, parent, self.command, depth > 0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = span.end = perf_counter()
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()
        self._open_names[span.name] -= 1
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def _record(self) -> list:
        span = self._stack[-1] if self._stack else self._outside
        if span.arith is None:
            span.arith = [0, 0, 0, 0, 0.0, 0, 0.0, 0, 0, 0.0]
        return span.arith

    # -- hooks run after a span closes ------------------------------------------

    def _after(self, name: str, args, result):
        if name in KERNEL_SPANS:
            self.counters["components_out"] += len(result.comps)
            if name == "tensors.map_slot" and is_signed_permutation(args[1]):
                self.counters["map_slot_signed_perm"] += 1
        elif name in _CACHED:
            layer = name.split(".")[0]
            self.cache_calls[layer] += 1
            if id(result) in self._seen_results:
                self.cache_hits[layer] += 1
            else:
                self._seen_results[id(result)] = result
        elif name == "theorems.check_p_tensor":
            if id(args[0]) in self._seen_p_tensor:
                self.counters["check_p_tensor_repeat"] += 1
            else:
                self._seen_p_tensor[id(args[0])] = args[0]

    # -- wrappers ------------------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            tracer._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def binary_wrapper(self, kind: int, fn):
        tracer = self

        def traced(a, b):
            if tracer._in_arith:
                return fn(a, b)
            tracer._in_arith = True
            t0 = perf_counter()
            try:
                return fn(a, b)
            finally:
                dt = perf_counter() - t0
                tracer._in_arith = False
                rec = tracer._record()
                rec[kind] += 1
                rec[ARITH_S] += dt
                b_scalar = isinstance(b, Scalar)
                if _rational(a) or (b_scalar and _rational(b)):
                    rec[RATIONAL] += 1
                    rec[RATIONAL_S] += dt
                if kind != DIV and (a.is_zero or (b.is_zero if b_scalar else b == 0)):
                    rec[ZERO_OPERAND] += 1

        traced.__wrapped__ = fn
        return traced

    def neg_wrapper(self, fn):
        tracer = self

        def traced(a):
            if tracer._in_arith:
                return fn(a)
            tracer._in_arith = True
            t0 = perf_counter()
            try:
                return fn(a)
            finally:
                dt = perf_counter() - t0
                tracer._in_arith = False
                rec = tracer._record()
                rec[NEG] += 1
                rec[ARITH_S] += dt
                if _rational(a):
                    rec[RATIONAL] += 1
                    rec[RATIONAL_S] += dt

        traced.__wrapped__ = fn
        return traced

    def str_wrapper(self, fn):
        tracer = self

        def traced(a):
            t0 = perf_counter()
            try:
                return fn(a)
            finally:
                rec = tracer._record()
                rec[STR] += 1
                rec[STR_S] += perf_counter() - t0

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch rptgeo while the block runs; restore every binding after."""
        import rptgeo.cli  # noqa: F401  (loads every rptgeo module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rptgeo" or name.startswith("rptgeo."))]
        undo = []

        def set_attr(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        replacements = {}
        for module, fn_name, span in FUNCTIONS:
            original = getattr(sys.modules["rptgeo." + module], fn_name)
            replacements[id(original)] = (original, self.span_wrapper(span, original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    set_attr(mod, attr, replacements[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replacements and replacements[id(item)][0] is item:
                            undo.append((value, key, item))
                            value[key] = replacements[id(item)][1]

        for module, cls_name, method, span in METHODS:
            cls = getattr(sys.modules["rptgeo." + module], cls_name)
            set_attr(cls, method, self.span_wrapper(span, cls.__dict__[method]))
        for method, kind in SCALAR_BINARY:
            set_attr(Scalar, method, self.binary_wrapper(kind, Scalar.__dict__[method]))
        set_attr(Scalar, "__neg__", self.neg_wrapper(Scalar.__dict__["__neg__"]))
        set_attr(Scalar, "__str__", self.str_wrapper(Scalar.__dict__["__str__"]))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr] = value
                else:
                    setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------------------

    def metrics(self, passes: int, scale: float = 1.0) -> dict:
        """Per-layer metrics; counts and times are per pass, times multiplied
        by ``scale`` (the worker's machine-speed factor)."""
        calls, total, self_s = {}, {}, {}
        arith = [0, 0, 0, 0, 0.0, 0, 0.0, 0, 0, 0.0]
        for span in self.spans + [self._outside]:
            if span is not self._outside:
                calls[span.name] = calls.get(span.name, 0) + 1
                self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
                if not span.nested:
                    total[span.name] = total.get(span.name, 0.0) + span.duration
            if span.arith is not None:
                for k, v in enumerate(span.arith):
                    arith[k] += v

        def per_pass(x):
            return x / passes

        def ratio(a, b):
            return a / b if b else 0.0

        ops = arith[ADD] + arith[MUL] + arith[DIV] + arith[NEG]
        out = {
            "scalars.add.calls": (per_pass(arith[ADD]), "count"),
            "scalars.mul.calls": (per_pass(arith[MUL]), "count"),
            "scalars.div.calls": (per_pass(arith[DIV]), "count"),
            "scalars.arith.self_s": (per_pass(arith[ARITH_S]), "s"),
            "scalars.arith.ns_per_op": (ratio(arith[ARITH_S], ops) * 1e9, "ns"),
            "scalars.rational_op_frac": (ratio(arith[RATIONAL], ops), "ratio"),
            "scalars.rational_time_frac": (ratio(arith[RATIONAL_S], arith[ARITH_S]), "ratio"),
            "scalars.zero_operand_frac": (ratio(arith[ZERO_OPERAND], arith[ADD] + arith[MUL]),
                                          "ratio"),
            "scalars.str.calls": (per_pass(arith[STR]), "count"),
            "scalars.str.self_s": (per_pass(arith[STR_S]), "s"),
            "tensors.components_out": (per_pass(self.counters["components_out"]), "count"),
            "tensors.map_slot.signed_perm_frac": (
                ratio(self.counters["map_slot_signed_perm"], calls.get("tensors.map_slot", 0)),
                "ratio"),
            "theorems.check_p_tensor.repeat_frac": (
                ratio(self.counters["check_p_tensor_repeat"],
                      calls.get("theorems.check_p_tensor", 0)), "ratio"),
            "cli.self_s": (per_pass(self_s.get("cli.main", 0.0)), "s"),
        }
        for layer in CACHED_SPANS:
            out[layer + ".cache_hit_frac"] = (
                ratio(self.cache_hits[layer], self.cache_calls[layer]), "ratio")
        for name in CALL_COUNTS:
            out[name + ".calls"] = (per_pass(calls.get(name, 0)), "count")
        for name in SELF_TIMES:
            out[name + ".self_s"] = (per_pass(self_s.get(name, 0.0)), "s")
        for name in TOTAL_TIMES:
            out[name + ".total_s"] = (per_pass(total.get(name, 0.0)), "s")
        return {name: (value * scale if unit in ("s", "ns") else value, unit)
                for name, (value, unit) in out.items()}


def _rational(s) -> bool:
    """Whether a Scalar has a non-constant denominator."""
    return not s.cden


CALL_COUNTS = ("tensors.map_slot", "tensors.transpose", "tensors.arranged",
               "geometry.curvature", "geometry.square_norm_nabla_P",
               "theorems.check_p_tensor", "parser.parse_expression")
SELF_TIMES = ("tensors.map_slot", "tensors.raise_slot", "tensors.transpose",
              "tensors.tensor_contract", "tensors.elementwise", "tensors.matrix")
TOTAL_TIMES = ("tensors.arranged", "geometry.levi_civita", "geometry.fundamental_F",
               "geometry.curvature", "geometry.square_norm_nabla_P",
               "geometry.torsion_projections", "connections.rpt_connection",
               "connections.covariant_derivative", "connections.torsion_inner_products",
               "connections.sigma_T", "connections.natural_check",
               "theorems.geometry_checks", "theorems.rpt_checks", "theorems.theorem_checks",
               "theorems.verify_curvature_relation", "theorems.verify_torsion_type",
               "theorems.verify_p_tensor_criterion", "theorems.verify_parallel_torsion",
               "frames.load_spec", "frames.validate", "frames.killing_check",
               "frames.spec_digest", "parser.parse_expression", "example.golden_tables",
               "example.compare", "cli.main")


def overhead_frac(traced_walls, untraced_wall: float) -> float:
    """Traced wall time over untraced wall time, minus one."""
    return statistics.median(traced_walls) / untraced_wall - 1.0
