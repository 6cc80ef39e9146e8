"""Frame algebras: a Lie algebra with left-invariant metric and product structure.

The FrameAlgebra is the single source of geometric truth; everything else is
derived from its brackets, metric and product structure: three tensors, each
given as a Tensor or cleared once from nested rows, the brackets built by
``bracket_tensor``.  Every matrix reaches the kernel as a tensor: these,
``metric_inv``, and s and s^-1 of a constant change of basis, which moves
them, and tensors back, through ``_moved``, one slot-map pass over every
slot.  No Scalar matrix arithmetic builds, checks or substitutes a frame.
A constant frame is set up on ints: ``metric_minors`` and ``metric_inv``
eliminate ``metric`` as it is held, the eigenbasis of a constant P and its
inverse are found and built on ints, the identity and diag(I_p, -I_q) are int
tensors (``_diagonal``), and ``tensor_witnesses`` compares tensors before it
builds a Scalar, so ``validate`` builds only the view ``p`` that its
``map_slot`` calls read as rows.
File format and all reported indices are 1-based; the Python API is 0-based.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps

from .parser import ParseError, parse_expression
from .scalars import MAX_PARAMETERS, Scalar
from .tensors import (Tensor, _rows, arranged, coefficient_tensor, jacobi_residuals,
                      leading_minors, mat_det, mat_inv, mat_transpose, null_space,
                      pivot_columns)


class SchemaError(ValueError):
    """A spec file violates the JSON contract; message names the field."""


@dataclass
class Witness:
    index: tuple
    expected: Scalar
    actual: Scalar
    label: str = ""

    def as_dict(self) -> dict:
        return {
            "index": list(self.index),
            "expected": str(self.expected),
            "actual": str(self.actual),
            "label": self.label,
        }


@dataclass
class CheckResult:
    """One check's outcome, exactly as its report entry: status "pass",
    "fail" or "skip", the witnesses, a reason (why it was skipped, or the
    notes of a check that ran) and named details.  A pass/fail result is
    built only by ``check_result``."""
    id: str
    status: str
    witnesses: list = field(default_factory=list)
    reason: str | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return {"id": self.id, "status": self.status,
                "witnesses": [w.as_dict() for w in self.witnesses],
                "reason": self.reason, "details": dict(self.details)}


_WITNESS_CAP = 16


def tensor_witnesses(fa: FrameAlgebra, t: Tensor, label: str,
                     expected: Tensor | None = None) -> list:
    """One witness per component, indexed in the user's basis, where a tensor
    on fa pulled back there differs from the expected tensor in that basis
    (zero when omitted).  A zero tensor is never pulled back, and the two
    are compared as Tensors first, so a match builds no Scalar."""
    if expected is None:
        if t.is_zero:
            return []
        expected = Tensor.zeros(t.dim, t.variance, t.params)
    actual = t if t.is_zero else fa.to_user(t)
    if actual == expected:
        return []
    return [Witness(tuple(k + 1 for k in idx), e, a, label)
            for idx, a, e in zip(actual.indices(), actual.comps, expected.comps)
            if a != e]


def check_result(check_id: str, fa: FrameAlgebra | None, defects=(), witnesses=(),
                 details=None, notes=()) -> CheckResult:
    """The one pass/fail report entry: the witnesses of the labelled tensors
    on fa that must vanish, then the given witnesses; it fails exactly when
    there is one.  The first _WITNESS_CAP witnesses are kept, and the notes,
    with the number of witnesses dropped, are joined into the reason.  fa is
    read only for the defects."""
    witnesses = [w for t, label in defects
                 for w in tensor_witnesses(fa, t, label)] + list(witnesses)
    notes = list(notes)
    dropped = len(witnesses) - _WITNESS_CAP
    if dropped > 0:
        notes.append("%d further mismatches suppressed" % dropped)
    return CheckResult(check_id, "fail" if witnesses else "pass",
                       witnesses[:_WITNESS_CAP], "; ".join(notes) or None,
                       dict(details or {}))


def memo(fn):
    """Single-argument memo: fn(owner) is computed once and kept in
    owner.__dict__.  Sound because frames, connections and connection packs
    are never mutated after construction."""
    key = "_memo_" + fn.__qualname__

    @wraps(fn)
    def cached(owner):
        store = owner.__dict__
        if key not in store:
            store[key] = fn(owner)
        return store[key]

    cached.memo_key = key  # the entry of owner.__dict__ that holds fn(owner)
    return cached


def bracket_tensor(dim: int, params: tuple, upper: dict) -> Tensor:
    """The ``ddu`` tensor of [e_i, e_j] = sum of upper[(i, j)][k] e_k for
    0-based i < j, zero elsewhere: the one writer of the mirror c^k_ji =
    -c^k_ij.  ValueError on an index out of range or a key with i >= j."""
    comps = [Scalar.zero(params)] * dim ** 3
    for (i, j), result in upper.items():
        if not 0 <= i < j < dim or any(not 0 <= k < dim for k in result):
            raise ValueError("bracket %s -> %s: out of range or i >= j" % ((i, j), sorted(result)))
        for k, value in result.items():
            comps[(i * dim + j) * dim + k], comps[(j * dim + i) * dim + k] = value, -value
    return Tensor(dim, "ddu", params, comps)


def _nested(x, dim: int, depth: int) -> bool:
    """Whether x is nested lists, depth levels of dim entries each."""
    return len(x) == dim and (depth == 1 or all(_nested(row, dim, depth - 1) for row in x))


def _entered(name: str, x, variance: str, dim: int, params: tuple) -> Tensor:
    """x as a tensor of the variance, dimension and parameters, nested rows
    cleared by ``coefficient_tensor``; ValueError naming the argument if it
    is not."""
    if not isinstance(x, Tensor) and _nested(x, dim, len(variance)):
        x = coefficient_tensor(x, variance)
    if not isinstance(x, Tensor) or (x.dim, x.variance, x.params) != (dim, variance, params):
        raise ValueError("%s: expected a %s tensor, or nested rows, of dimension %d "
                         "over the parameters %s" % (name, variance, dim, params))
    return x


def _diagonal(fa: FrameAlgebra, entries: list) -> Tensor:
    """The ``ud`` tensor diag(entries) on fa, for int entries, built on ints."""
    n = fa.dim
    return Tensor.of_ints(n, "ud", fa.params,
                          [entries[i] if i == j else 0 for i in range(n) for j in range(n)])


class FrameAlgebra:
    """Brackets c^k_ij, metric g and product structure P: the tensors
    ``brackets`` (``ddu``), ``metric`` (``dd``) and ``product`` (``ud``, P^i_j
    at (i, j)), each given as a Tensor or as nested rows, c[i][j][k] = c^k_ij.
    The views ``c``, ``g`` and ``p`` read them as rows, built once.  A frame
    is never mutated after construction, nor are the connections and packs
    built on it, so derived geometry is cached through ``memo``."""

    def __init__(self, dim: int, params: tuple, c, g, p):
        if not isinstance(dim, int) or dim <= 0:
            raise ValueError("dimension must be a positive integer")
        self.dim, self.params = dim, tuple(params)
        self.brackets, self.metric, self.product = (
            _entered(name, x, variance, dim, self.params) for name, x, variance in (
                ("structure constants", c, "ddu"), ("metric", g, "dd"), ("product", p, "ud")))

    @property
    @memo
    def c(self) -> list:
        """c[i][j][k] = c^k_ij; the package reads ``brackets`` instead."""
        return _rows(_rows(self.brackets.comps, self.dim), self.dim)

    @property
    @memo
    def g(self) -> list:
        return _rows(self.metric.comps, self.dim)

    @property
    @memo
    def p(self) -> list:
        return _rows(self.product.comps, self.dim)

    @property
    @memo
    def metric_minors(self) -> list:
        """``leading_minors`` of g; the last is det g."""
        return leading_minors(self.metric)

    @property
    def metric_det(self) -> Scalar:
        return self.metric_minors[-1]

    @property
    @memo
    def metric_inv(self) -> Tensor:
        """g^-1, a ``uu`` tensor, from one elimination; ValueError when g is singular."""
        return mat_inv(self.metric)

    def __eq__(self, other):
        if not isinstance(other, FrameAlgebra):
            return NotImplemented
        # a tensor's == compares its dim and parameters too
        return (self.brackets, self.metric, self.product) == (
            other.brackets, other.metric, other.product)

    @property
    def user(self) -> "FrameAlgebra":
        """This frame in the basis the user gave it."""
        return self

    def to_user(self, t: Tensor) -> Tensor:
        """A tensor on this frame in the user's basis."""
        return t

    def substitute(self, values) -> "FrameAlgebra":
        """Evaluate the three tensors at the given parameter values (empty
        context); ZeroDivisionError where some entry's denominator vanishes."""
        return FrameAlgebra(self.dim, (), *(
            t.substitute(values) for t in (self.brackets, self.metric, self.product)))


class RebasedFrame(FrameAlgebra):
    """A user frame in the basis given by the columns of the invertible
    matrix s, a ``ud`` tensor or nested rows; it keeps source, and s and
    s_inv as ``ud`` tensors.  Frames are left-invariant and s is constant, so
    its tensors are the source's moved by ``_moved`` with (s, s_inv):
    c' = c(s., s.) read through s^-1, g' = s^T g s and P' = s^-1 P s.
    ``to_user`` moves one back by (s_inv, s)."""

    def __init__(self, source: FrameAlgebra, s):
        self.source = source
        self.s = _entered("change of basis", s, "ud", source.dim, source.params)
        self.s_inv = mat_inv(self.s)
        super().__init__(source.dim, source.params, *(_moved(t, self.s, self.s_inv) for t in (
            source.brackets, source.metric, source.product)))

    @property
    def user(self) -> FrameAlgebra:
        return self.source

    def to_user(self, t: Tensor) -> Tensor:
        return _moved(t, self.s_inv, self.s)


def _moved(t: Tensor, down: Tensor, up: Tensor) -> Tensor:
    """t with its covector slots mapped by down and its vector slots by up,
    every slot in one slot-map pass (``Tensor.map_slots``), cancelled once:
    a change of basis, its columns in the old basis, is (s, s^-1), and its
    pull-back (s^-1, s)."""
    return t.map_slots([down if v == "d" else up for v in t.variance])


def change_basis(fa: FrameAlgebra, s) -> RebasedFrame:
    """fa in the basis given by the columns of the invertible matrix s, a
    ``ud`` tensor or nested rows."""
    return RebasedFrame(fa, s)


def _eigenbasis(fa: FrameAlgebra) -> Tensor:
    """The ``ud`` matrix whose columns are eigenvectors of P for +1, then for
    -1: for a constant P the pivot columns of I+P and I-P, found and built
    on ints, integral when P is; else ``null_space`` of I-P and I+P, which
    keeps P's parameters out of the adapted frame.  ValueError unless the
    two sets together make n columns, which holds exactly when P^2 = I."""
    n, ints = fa.dim, fa.product.ints
    ident = _diagonal(fa, [1] * n)
    found = []
    for sign in (1, -1):
        proj = ident + fa.product.scale(sign if ints else -sign)
        # P = N / D has gcd(D, N) = 1, so I +- P = (D I +- N) / D keeps D
        found.append([proj.ints[0][col::n] for col in pivot_columns(proj)] if ints
                     else null_space(_rows(proj.comps, n)))
    columns = found[0] + found[1]
    if len(columns) != n:
        raise ValueError("product structure is not an involution: %d + %d eigenvector "
                         "columns for +1 and -1, not %d" % (len(found[0]), len(found[1]), n))
    rows = mat_transpose(columns)
    if ints:
        return Tensor.of_ints(n, "ud", fa.params, [x for row in rows for x in row], ints[1])
    return coefficient_tensor(rows, "ud")


@memo
def adapted_frame(fa: FrameAlgebra) -> RebasedFrame:
    """fa in a basis of eigenvectors of P, those for +1 first, so that
    P = diag(I_p, -I_q) there, p = (n + trace P) / 2 and q = n - p.

    Needs P^2 = I and P g-orthogonal, which ``validate`` checks (with trace
    P = 0); the metric comes out block-diagonal.  ValueError when
    (n + trace P) / 2 is not a whole count.  For a parametric P the basis
    comes from exact elimination over rational functions, like
    ``metric_inv``, so it holds at the generic point of the parameters."""
    n, ints = fa.dim, fa.product.ints
    # a constant P's trace is read off its ints, so no Scalar is built
    trace = Fraction(sum(ints[0][::n + 1]), ints[1]) if ints else \
        sum((fa.product[i, i] for i in range(n)), Scalar.zero(fa.params)).value
    p = None if trace is None else Fraction(n + trace, 2)
    if p is None or p.denominator != 1 or not 0 <= p <= n:
        raise ValueError("(n + trace P) / 2 is %s, no count of +1 eigenvectors in "
                         "dimension %d" % ("not a constant" if p is None else p, n))
    af = change_basis(fa, _eigenbasis(fa))
    if af.product != _diagonal(fa, [1] * int(p) + [-1] * (n - int(p))):
        raise ValueError("the product structure is not diagonal in its eigenbasis")
    return af


# ---------------------------------------------------------------------------
# validation


@memo
def validate(fa: FrameAlgebra) -> CheckResult:
    """Check every structural axiom of a user frame, in its basis; failures
    are witnessed, not raised.  The report is kept on the frame, so a
    command validates once."""
    n = fa.dim
    zero = Scalar.zero(fa.params)
    c = fa.brackets
    witnesses = [w for w in tensor_witnesses(fa, c + c.transpose((1, 0, 2)),
                                             "bracket-antisymmetry")
                 if w.index[0] <= w.index[1]]

    witnesses += [Witness((i + 1, j + 1, m + 1, r + 1), zero, actual, "jacobi")
                  for (i, j, m, r), actual in jacobi_residuals(c)]

    g, p = fa.metric, fa.product
    witnesses += [w for w in tensor_witnesses(fa, g, "metric-symmetry", g.transpose((1, 0)))
                  if w.index[0] < w.index[1]]

    det = fa.metric_det
    if det.is_zero:
        witnesses.append(Witness((), Scalar.one(fa.params), det,
                                 "metric-nondegenerate"))
    if fa.params:
        notes = ["positivity unverified (parametric)"]
    else:
        notes = []
        # Sylvester: every leading principal minor positive
        for k, d in enumerate(fa.metric_minors, 1):
            if d is None:
                d = mat_det([row[:k] for row in fa.g[:k]])
            if d.constant_value() <= 0:
                witnesses.append(Witness((k,), Scalar.one(()), d,
                                         "metric-positive-definite"))

    witnesses += tensor_witnesses(fa, p.map_slot(fa.p, 1), "product-square-identity",
                                  _diagonal(fa, [1] * n))
    witnesses += tensor_witnesses(fa, g.map_slot(fa.p, 0).map_slot(fa.p, 1),
                                  "metric-product-compatibility", g)

    trace = sum((fa.p[i][i] for i in range(n)), zero)
    if not trace.is_zero:
        witnesses.append(Witness((), zero, trace, "product-traceless"))

    return check_result("frame-structure", fa, (), witnesses, notes=notes)


def killing_check(fa: FrameAlgebra) -> CheckResult:
    """Whether the associated metric is a Killing metric on the algebra.
    Runs on a validated frame, whose g is symmetric."""
    # lower_slot pairs c^s_ij with g[k][s] = g[s][k], and map_slot then feeds
    # P^t_k into the slot: the pairing is (gP)[s][k]
    low = fa.brackets.lower_slot(2, fa.metric).map_slot(fa.p, 2)
    return check_result("killing-metric", fa,
                        [(low + arranged(low, "x,z,y"), "killing-metric")])


# ---------------------------------------------------------------------------
# JSON spec files


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError("%s: %s" % (path, message))


def _is_index(text: str, top: int) -> bool:
    """Whether text is the canonical ASCII decimal of an index in 1..top: no
    sign, space or leading zero, and no longer than top, so ``int`` never
    reads a long key."""
    return (text.isascii() and text.isdigit() and text[0] != "0"
            and len(text) <= len(str(top)) and int(text) <= top)


def _parse_entry(text, params: tuple, path: str, parsed: dict) -> Scalar:
    """The Scalar an entry text of one input denotes, the one place input is
    parsed.  parsed maps each text already read in this input to its
    Scalar, so a repeated text is parsed once and its entries share the
    (immutable) Scalar; a text that fails, fails at its first occurrence,
    with that path."""
    _expect(isinstance(text, str), path, "expected an expression string")
    value = parsed.get(text)
    if value is None:
        try:
            value = parsed[text] = parse_expression(text, params)
        except ParseError as exc:
            raise SchemaError("%s: %s" % (path, exc)) from exc
    return value


def _load_matrix(data, dim: int, params: tuple, path: str, parsed: dict) -> list:
    _expect(isinstance(data, list) and len(data) == dim, path,
            "expected %d rows" % dim)
    out = []
    for i, row in enumerate(data):
        _expect(isinstance(row, list) and len(row) == dim, "%s[%d]" % (path, i),
                "expected %d entries, found %s" % (dim, len(row) if isinstance(row, list) else "non-list"))
        out.append([_parse_entry(cell, params, "%s[%d][%d]" % (path, i, j), parsed)
                    for j, cell in enumerate(row)])
    return out


def frame_from_dict(data: dict) -> FrameAlgebra:
    """The frame a spec dict describes; SchemaError naming the first field
    that breaks the contract.  Each distinct entry text is parsed once per
    spec (``_parse_entry``)."""
    _expect(isinstance(data, dict), "$", "expected a JSON object")
    dim = data.get("dimension")
    _expect(isinstance(dim, int) and dim > 0 and dim % 2 == 0, "dimension",
            "expected a positive even integer")
    raw_params = data.get("parameters", [])
    _expect(isinstance(raw_params, list), "parameters", "expected a list")
    for k, name in enumerate(raw_params):
        _expect(isinstance(name, str) and name and
                (name[0].isalpha() or name[0] == "_") and
                all(ch.isalnum() or ch == "_" for ch in name),
                "parameters[%d]" % k, "invalid parameter name")
    params = tuple(raw_params)
    _expect(len(set(params)) == len(params), "parameters", "duplicate names")
    _expect(len(params) <= MAX_PARAMETERS, "parameters",
            "more than %d names" % MAX_PARAMETERS)

    brackets, upper, parsed = data.get("brackets", []), {}, {}
    _expect(isinstance(brackets, list), "brackets", "expected a list")
    for b, entry in enumerate(brackets):
        path = "brackets[%d]" % b
        _expect(isinstance(entry, dict), path, "expected an object")
        left, right = entry.get("left"), entry.get("right")
        for side, index in (("left", left), ("right", right)):
            _expect(type(index) is int and 1 <= index <= dim, "%s.%s" % (path, side),
                    "expected an index in 1..%d" % dim)
        _expect(left < right, path, "brackets are listed only for left < right")
        _expect((left - 1, right - 1) not in upper, path, "duplicate bracket")
        result = entry.get("result", {})
        _expect(isinstance(result, dict), path + ".result", "expected an object")
        upper[left - 1, right - 1] = cell = {}
        for key, text in result.items():
            field = "%s.result[%s]" % (path, key)
            _expect(_is_index(key, dim), field, "expected a component index in 1..%d" % dim)
            cell[int(key) - 1] = _parse_entry(text, params, field, parsed)

    _expect("metric" in data, "metric", "missing field")
    _expect("product" in data, "product", "missing field")
    g = _load_matrix(data["metric"], dim, params, "metric", parsed)
    p = _load_matrix(data["product"], dim, params, "product", parsed)
    return FrameAlgebra(dim, params, bracket_tensor(dim, params, upper), g, p)


def frame_to_dict(fa: FrameAlgebra) -> dict:
    brackets = []
    for m, cell in enumerate(_rows(fa.brackets.comps, fa.dim)):  # cell[k] = c^k_ij
        i, j = divmod(m, fa.dim)
        result = {str(k + 1): str(s) for k, s in enumerate(cell) if i < j and not s.is_zero}
        if result:
            brackets.append({"left": i + 1, "right": j + 1, "result": result})
    return {
        "dimension": fa.dim,
        "parameters": list(fa.params),
        "brackets": brackets,
        "metric": [[str(s) for s in row] for row in fa.g],
        "product": [[str(s) for s in row] for row in fa.p],
    }


def load_spec(path) -> FrameAlgebra:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError("$: invalid JSON (%s)" % exc) from exc
    return frame_from_dict(data)


def save_spec(fa: FrameAlgebra, path) -> None:
    """Write fa's spec once ``frame_from_dict`` reads it back, else raise its
    SchemaError, naming the field (a rational-function entry), and write nothing."""
    data = frame_to_dict(fa)
    frame_from_dict(data)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def spec_digest(fa: FrameAlgebra) -> str:
    """sha256 of the canonicalized spec serialization."""
    canon = json.dumps(frame_to_dict(fa), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
