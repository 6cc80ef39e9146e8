"""The bundled 4-dimensional family of frame algebras with a Killing metric.

The family is parametrized by four reals; with the block-swap product
structure and the identity metric it is the canonical instance of the
skew-cyclic class.  Golden component tables ship as data files and are
expanded here by their stated symmetries (never hand-entered).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .frames import (CheckReport, FrameAlgebra, SchemaError, Witness,
                     _expect, _parse_entry, capped_report)
from .scalars import Scalar
from .tensors import Tensor, _perm_sign, coefficient_tensor, mat_identity

PARAM_NAMES = ("l1", "l2", "l3", "l4")
EPSILON_CANDIDATES = (1, -1)
SYMMETRIES = ("none", "skew", "skew-last-three", "pair-skew")
GOLDEN_SCALARS = ("nabla_P_norm_sq", "tau", "tau_prime")

def swap_product_matrix(dim: int, params: tuple) -> list:
    """Block antidiagonal product structure exchanging the two halves."""
    half = dim // 2
    one, zero = Scalar.one(params), Scalar.zero(params)
    return [[one if abs(i - j) == half else zero for j in range(dim)]
            for i in range(dim)]


def family_structure_constants(lam, params: tuple) -> list:
    """Structure constants of the family for the given four Scalars."""
    l1, l2, l3, l4 = lam
    zero = Scalar.zero(params)
    c = [[[zero for _ in range(4)] for _ in range(4)] for _ in range(4)]

    def put(i, j, comps):
        for k, v in comps.items():
            c[i - 1][j - 1][k - 1] = v
            c[j - 1][i - 1][k - 1] = -v

    put(1, 2, {1: l1, 2: l2})
    put(1, 3, {2: l3, 4: -l1})
    put(1, 4, {1: -l3, 4: -l2})
    put(2, 3, {2: l4, 3: l1})
    put(2, 4, {1: -l4, 3: l2})
    put(3, 4, {3: l3, 4: l4})
    return c


def build_example(lambdas=None) -> FrameAlgebra:
    """Frame algebra of the family at a sequence of four rationals; symbolic
    parameters when none are given."""
    if lambdas is None:
        params = PARAM_NAMES
        lam = [Scalar.parameter(params, name) for name in params]
    else:
        lambdas = tuple(lambdas)
        if len(lambdas) != 4:
            raise ValueError("the family takes exactly four parameters")
        params = ()
        lam = [Scalar.constant((), Fraction(v)) for v in lambdas]
    c = family_structure_constants(lam, params)
    g = mat_identity(4, params)
    p = swap_product_matrix(4, params)
    return FrameAlgebra(4, params, c, g, p)


def family_parameters(fa: FrameAlgebra):
    """The four family Scalars if fa is an instance of the family, else None."""
    if fa.dim != 4:
        return None
    if fa.g != mat_identity(4, fa.params) or fa.p != swap_product_matrix(4, fa.params):
        return None
    lam = (fa.c[0][1][0], fa.c[0][1][1], fa.c[0][2][1], fa.c[1][2][1])
    if fa.c != family_structure_constants(lam, fa.params):
        return None
    return lam


def bundled_spec_path() -> Path:
    return Path(str(resources.files("rptgeo").joinpath("data/example_w3.json")))


# ---------------------------------------------------------------------------
# golden component tables


@dataclass
class GoldenTable:
    name: str
    rank: int
    symmetry: str
    params: tuple
    entries: dict  # 1-based index tuple -> Scalar, independent components

    def dense(self, dim: int = 4) -> dict:
        """All index tuples, expanded by the stated symmetry; unlisted zero."""
        canon = {}
        for idx, value in self.entries.items():
            key, sign = self._canonical(idx)
            value = value if sign > 0 else -value
            if key in canon and canon[key] != value:
                raise ValueError("golden table %s: conflicting entries at %s"
                                 % (self.name, (idx,)))
            canon[key] = value
        zero = Scalar.zero(self.params)
        out = {}
        for idx in itertools.product(range(1, dim + 1), repeat=self.rank):
            key, sign = self._canonical(idx)
            if key is None or key not in canon:
                out[idx] = zero
            else:
                out[idx] = canon[key] if sign > 0 else -canon[key]
        return out

    def _canonical(self, idx):
        if self.symmetry == "none":
            return idx, 1
        if self.symmetry == "skew":
            return _sort_signed(idx)
        if self.symmetry == "skew-last-three":
            key, sign = _sort_signed(idx[1:])
            if key is None:
                return None, 1
            return (idx[0],) + key, sign
        if self.symmetry == "pair-skew":
            i, j, k, l = idx
            if i == j or k == l:
                return None, 1
            sign = 1
            if i > j:
                i, j, sign = j, i, -sign
            if k > l:
                k, l, sign = l, k, -sign
            return (i, j, k, l), sign
        raise ValueError("unknown symmetry '%s'" % self.symmetry)


def _sort_signed(idx):
    if len(set(idx)) != len(idx):
        return None, 1
    order = sorted(range(len(idx)), key=lambda p: idx[p])
    return tuple(sorted(idx)), _perm_sign(order)


def _read_table(path: Path):
    """A golden JSON file and its entries parsed by key; SchemaError naming
    the file and field when it is malformed."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError("%s: invalid JSON (%s)" % (path, exc)) from exc
    _expect(isinstance(data, dict), str(path), "expected a JSON object")
    for key, kind in (("parameters", list), ("entries", dict)):
        _expect(isinstance(data.get(key), kind), "%s: %s" % (path, key),
                "missing field" if key not in data else "expected a %s" % kind.__name__)
    params = tuple(data["parameters"])
    entries = {key: _parse_entry(text, params, "%s: entries[%s]" % (path, key))
               for key, text in data["entries"].items()}
    return data, entries


def _load_table(path: Path) -> GoldenTable:
    data, raw = _read_table(path)
    _expect(isinstance(data.get("name"), str), "%s: name" % path, "expected a string")
    symmetry = data.get("symmetry", "none")
    _expect(symmetry in SYMMETRIES, "%s: symmetry" % path,
            "expected one of %s" % ", ".join(SYMMETRIES))
    entries = {}
    for key, value in raw.items():
        parts = key.split(",")
        _expect(all(part.isdigit() for part in parts), "%s: entries[%s]" % (path, key),
                "expected comma-separated indices")
        entries[tuple(int(part) for part in parts)] = value
    return GoldenTable(data["name"], data.get("rank", 0), symmetry,
                       tuple(data["parameters"]), entries)


def golden_tables(directory=None) -> dict:
    """Load the component tables (and expected scalars) for the family."""
    if directory is None:
        base = resources.files("rptgeo").joinpath("data/golden")
    else:
        base = Path(directory)
    tables = {}
    for name in ("torsion", "connection", "curvature", "torsion_derivative"):
        tables[name] = _load_table(Path(str(base / ("%s.json" % name))))
    path = Path(str(base / "scalars.json"))
    tables["scalars"] = _read_table(path)[1]
    for key in tables["scalars"]:
        _expect(key in GOLDEN_SCALARS, "%s: entries[%s]" % (path, key),
                "unknown scalar, expected one of %s" % ", ".join(GOLDEN_SCALARS))
    return tables


# ---------------------------------------------------------------------------
# comparison of computed values against the tables


def _sub_map(fa: FrameAlgebra, golden_params: tuple, lam):
    """Scalars of a golden table rewritten into fa's parameter context."""
    if fa.params == golden_params:
        return lambda s: s
    values = dict(zip(golden_params, [v.constant_value() for v in lam]))

    def convert(s: Scalar) -> Scalar:
        return Scalar.constant(fa.params, s.substitute(values))

    return convert


def compare_tensor(name: str, computed: Tensor, table: GoldenTable,
                   convert) -> CheckReport:
    witnesses = []
    for idx, expected in table.dense(computed.dim).items():
        expected = convert(expected)
        actual = computed[tuple(k - 1 for k in idx)]
        if actual != expected:
            witnesses.append(Witness(idx, expected, actual, name))
    return capped_report("golden-%s" % name, witnesses)


def compare_connection(name: str, coeffs: list, table: GoldenTable,
                       convert) -> CheckReport:
    """compare_tensor on the coefficient tensor, A^k_ij at index (i, j, k)."""
    return compare_tensor(name, coefficient_tensor(coeffs), table, convert)


def compare_scalars(computed: dict, golden: dict, convert) -> CheckReport:
    witnesses = []
    for key in sorted(golden):
        expected = convert(golden[key])
        actual = computed[key]
        if actual != expected:
            witnesses.append(Witness((), expected, actual, key))
    return capped_report("golden-scalars", witnesses)
