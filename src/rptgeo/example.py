"""The bundled 4-dimensional family of frame algebras with a Killing metric.

The family is parametrized by four reals; with the block-swap product
structure and the identity metric it is the canonical instance of the
skew-cyclic class.  Golden component tables ship as data files over the
parameters l1..l4 and load as Tensors on the family, each orbit expanded by
the table's stated symmetry (never hand-entered): the groups of slots
within which the table is skew, ``SYMMETRIES``.  A golden comparison is
the one tensor witness collector, ``tensor_witnesses``, with the table as
its expected tensor in the user's basis.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .frames import (CheckResult, FrameAlgebra, SchemaError, Witness,
                     _expect, _is_index, _parse_entry, bracket_tensor, check_result,
                     tensor_witnesses)
from .scalars import Scalar
from .tensors import Tensor

PARAM_NAMES = ("l1", "l2", "l3", "l4")
EPSILON_CANDIDATES = (1, -1)
# the groups of slots within which a table is skew, cut at the table's rank
SYMMETRIES = {"none": (), "skew": ((0, 1, 2, 3),), "skew-last-three": ((1, 2, 3),),
              "pair-skew": ((0, 1), (2, 3))}
GOLDEN_SCALARS = ("nabla_P_norm_sq", "tau", "tau_prime")
GOLDEN_VARIANCES = {"torsion": "ddd", "connection": "ddu", "curvature": "dddd",
                    "torsion_derivative": "dddd"}
# the family's metric and product on the int form, constant in every context
_IDENTITY = ([int(i == j) for i in range(4) for j in range(4)], 1)
_SWAP = ([int(abs(i - j) == 2) for i in range(4) for j in range(4)], 1)


def family_brackets(lam, params: tuple) -> Tensor:
    """The family's brackets for the given four Scalars."""
    l1, l2, l3, l4 = lam
    return bracket_tensor(4, params, {(0, 1): {0: l1, 1: l2}, (0, 2): {1: l3, 3: -l1},
                                      (0, 3): {0: -l3, 3: -l2}, (1, 2): {1: l4, 2: l1},
                                      (1, 3): {0: -l4, 2: l2}, (2, 3): {2: l3, 3: l4}})


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
    return FrameAlgebra(4, params, family_brackets(lam, params),
                        Tensor.of_ints(4, "dd", params, *_IDENTITY),
                        Tensor.of_ints(4, "ud", params, *_SWAP))


def family_parameters(fa: FrameAlgebra):
    """The four family Scalars if fa is the family (g and P read first), else None."""
    if fa.dim != 4 or fa.metric.ints != _IDENTITY or fa.product.ints != _SWAP:
        return None
    c = fa.brackets
    lam = (c[0, 1, 0], c[0, 1, 1], c[0, 2, 1], c[1, 2, 1])
    return lam if c == family_brackets(lam, fa.params) else None


def bundled_spec_path() -> Path:
    return Path(str(resources.files("rptgeo").joinpath("data/example_w3.json")))


# ---------------------------------------------------------------------------
# golden component tables


def _canonical(groups: tuple, idx: tuple):
    """The representative of idx, each group of slots sorted, and the sign of
    the sorts, the parity of their inversions; None when a group repeats an index."""
    key, sign = list(idx), 1
    for group in groups:
        values = [idx[s] for s in group]
        for a, b in itertools.combinations(values, 2):
            if a == b:
                return None, 1
            sign = -sign if a > b else sign
        for s, v in zip(group, sorted(values)):
            key[s] = v
    return tuple(key), sign


def _orbit(groups: tuple, key: tuple) -> list:
    """The pairs (idx, sign) with ``_canonical(groups, idx) == (key, sign)``
    for a representative key: each group's entries of key in every order,
    signed by the parity of the order's inversions."""
    orbit = [(key, 1)]
    for group in groups:
        values, step = [key[s] for s in group], []
        for order in itertools.permutations(range(len(group))):
            odd = sum(a > b for a, b in itertools.combinations(order, 2)) % 2
            for idx, sign in orbit:
                idx = list(idx)
                for s, k in zip(group, order):
                    idx[s] = values[k]
                step.append((tuple(idx), -sign if odd else sign))
        orbit = step
    return orbit


def _read_table(path: Path):
    """A golden JSON file and its entries parsed by key over the family's
    parameters, each distinct text once; SchemaError naming the file and
    field when it is malformed."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError("%s: invalid JSON (%s)" % (path, exc)) from exc
    _expect(isinstance(data, dict), str(path), "expected a JSON object")
    _expect(data.get("parameters") == list(PARAM_NAMES), "%s: parameters" % path,
            "expected %s" % json.dumps(PARAM_NAMES))
    _expect(isinstance(data.get("entries"), dict), "%s: entries" % path,
            "missing field" if "entries" not in data else "expected a dict")
    parsed = {}
    entries = {key: _parse_entry(text, PARAM_NAMES, "%s: entries[%s]" % (path, key), parsed)
               for key, text in data["entries"].items()}
    return data, entries


def _load_table(path: Path, variance: str) -> Tensor:
    """A golden table as a Tensor on the family: each listed orbit expanded
    by the table's stated symmetry (``_orbit``), every other component zero."""
    data, raw = _read_table(path)
    rank = len(variance)
    _expect(isinstance(data.get("name"), str), "%s: name" % path, "expected a string")
    _expect(type(data.get("rank")) is int and data["rank"] == rank, "%s: rank" % path,
            "expected the integer %d" % rank)
    symmetry = data.get("symmetry", "none")
    _expect(symmetry in SYMMETRIES, "%s: symmetry" % path,
            "expected one of %s" % ", ".join(SYMMETRIES))
    _expect(symmetry != "pair-skew" or rank == 4, "%s: symmetry" % path,
            "pair-skew needs a rank-4 table")
    groups = tuple(tuple(s for s in group if s < rank) for group in SYMMETRIES[symmetry])
    entries, first = {}, {}
    for key, value in raw.items():
        field = "%s: entries[%s]" % (path, key)
        parts = key.split(",")
        _expect(len(parts) == rank and
                all(_is_index(part, 4) for part in parts),
                field, "expected %d comma-separated indices in 1..4" % rank)
        idx, sign = _canonical(groups, tuple(int(part) for part in parts))
        _expect(idx is not None or value.is_zero, field,
                "the %s symmetry makes this component zero" % symmetry)
        if idx is None:
            continue
        value = value if sign > 0 else -value
        _expect(entries.setdefault(idx, value) == value, field,
                "conflicts with entries[%s]" % first.get(idx))
        first.setdefault(idx, key)
    comps = [Scalar.zero(PARAM_NAMES)] * 4 ** rank
    for key, value in entries.items():
        signed = {1: value, -1: -value}
        for idx, sign in _orbit(groups, key):
            comps[sum((k - 1) * 4 ** (rank - 1 - s) for s, k in enumerate(idx))] = signed[sign]
    return Tensor(4, variance, PARAM_NAMES, comps)


def golden_tables(directory=None) -> dict:
    """Load the component tables, as Tensors on the family, and the expected
    scalars, as a dict of Scalars."""
    if directory is None:
        base = resources.files("rptgeo").joinpath("data/golden")
    else:
        base = Path(directory)
    tables = {}
    for name, variance in GOLDEN_VARIANCES.items():
        tables[name] = _load_table(Path(str(base / ("%s.json" % name))), variance)
    path = Path(str(base / "scalars.json"))
    tables["scalars"] = _read_table(path)[1]
    for key in tables["scalars"]:
        _expect(key in GOLDEN_SCALARS, "%s: entries[%s]" % (path, key),
                "unknown scalar, expected one of %s" % ", ".join(GOLDEN_SCALARS))
    return tables


# ---------------------------------------------------------------------------
# comparison of computed values against the tables


def compare_tensor(fa: FrameAlgebra, name: str, computed: Tensor,
                   expected: Tensor) -> CheckResult:
    """A tensor computed on fa against its table, in the user's basis."""
    return check_result("golden-%s" % name, fa,
                        witnesses=tensor_witnesses(fa, computed, name, expected))


# perfbench/tracer.py binds this name as one of the golden comparisons
compare_connection = compare_tensor


def compare_scalars(computed: dict, golden: dict) -> CheckResult:
    return check_result("golden-scalars", None, witnesses=[
        Witness((), golden[key], computed[key], key) for key in sorted(golden)
        if computed[key] != golden[key]])
