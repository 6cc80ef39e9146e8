"""Golden tables of the bundled family: loading, expansion and comparison."""

from __future__ import annotations

import itertools
import json
import random
import shutil
from fractions import Fraction

import pytest

from rptgeo import (FrameAlgebra, Scalar, adapted_frame, build_example, bundled_spec_path,
                    curvature, family_parameters, golden_tables, load_spec, rpt_connection)
from rptgeo.example import (GOLDEN_VARIANCES, PARAM_NAMES, SYMMETRIES, _canonical,
                             compare_tensor)
from rptgeo.parser import parse_expression

from helpers import (family_frame, golden_table_oracle, scaled_family_frame,
                     single_bracket_frame, six_dim_frame)

COMPUTED = {
    "torsion": lambda pack: pack.T,
    "connection": lambda pack: pack.rpt.coeffs,
    "curvature": lambda pack: curvature(pack.rpt)[0],
    "torsion_derivative": lambda pack: pack.torsion_derivative(),
}


@pytest.mark.parametrize("name, symmetry", [("torsion", "skew"),
                                            ("connection", "none"),
                                            ("curvature", "pair-skew"),
                                            ("torsion_derivative", "skew-last-three")])
def test_loaded_table_is_the_computed_tensor_in_the_user_basis(name, symmetry):
    # one table per symmetry, each expanded at load into a full Tensor
    path = bundled_spec_path().parent / "golden" / ("%s.json" % name)
    assert json.loads(path.read_text(encoding="utf-8"))["symmetry"] == symmetry
    table = golden_tables()[name]
    assert table.params == PARAM_NAMES
    af = adapted_frame(load_spec(bundled_spec_path()))
    expected = af.to_user(COMPUTED[name](rpt_connection(af)))
    assert table == expected
    assert compare_tensor(af, name, COMPUTED[name](rpt_connection(af)), table).passed


def test_scalar_table_stays_a_dict_of_symbolic_scalars():
    scalars = golden_tables()["scalars"]
    assert sorted(scalars) == ["nabla_P_norm_sq", "tau", "tau_prime"]
    assert all(s.params == PARAM_NAMES for s in scalars.values())


# the slot transpositions that generate each stated symmetry, written out
# here rather than read from example.SYMMETRIES
GENERATORS = {"none": (), "skew": ((0, 1), (1, 2)), "skew-last-three": ((1, 2), (2, 3)),
              "pair-skew": ((0, 1), (2, 3))}


@pytest.mark.parametrize("name", ["torsion", "connection", "curvature", "torsion_derivative"])
def test_golden_tables_carry_their_stated_symmetry(name):
    data = json.loads((bundled_spec_path().parent / "golden" / ("%s.json" % name))
                      .read_text(encoding="utf-8"))
    table = golden_tables()[name]
    for a, b in GENERATORS[data["symmetry"]]:
        perm = list(range(table.rank))
        perm[a], perm[b] = b, a
        assert (table + table.transpose(perm)).is_zero
    for key, text in data["entries"].items():
        idx = tuple(int(part) - 1 for part in key.split(","))
        assert table[idx] == parse_expression(text, PARAM_NAMES)


def test_golden_tables_expand_as_the_all_index_oracle():
    directory = bundled_spec_path().parent / "golden"
    tables = golden_tables()
    for name, variance in GOLDEN_VARIANCES.items():
        assert tables[name] == golden_table_oracle(directory / ("%s.json" % name), variance)
    data = json.loads((directory / "scalars.json").read_text(encoding="utf-8"))
    assert tables["scalars"] == {key: parse_expression(text, PARAM_NAMES)
                                 for key, text in data["entries"].items()}


@pytest.mark.parametrize("name, symmetry", [("torsion", "none"), ("torsion", "skew"),
                                            ("connection", "skew-last-three"),
                                            ("curvature", "skew"),
                                            ("curvature", "pair-skew"),
                                            ("torsion_derivative", "skew-last-three")])
def test_a_table_of_random_orbits_expands_as_the_all_index_oracle(name, symmetry, tmp_path):
    # one entry per orbit, at a random index of it (most not sorted within
    # their groups), with symbolic values
    golden = tmp_path / "golden"
    shutil.copytree(bundled_spec_path().parent / "golden", golden)
    variance = GOLDEN_VARIANCES[name]
    groups = tuple(tuple(s for s in group if s < len(variance)) for group in SYMMETRIES[symmetry])
    rng, entries, seen = random.Random("%s/%s" % (name, symmetry)), {}, set()
    for idx in rng.sample(list(itertools.product(range(1, 5), repeat=len(variance))), 40):
        key, _ = _canonical(groups, idx)
        if key is not None and key not in seen:
            seen.add(key)
            entries[",".join(map(str, idx))] = "%d*l%d + %d" % (
                rng.randint(-3, 3), rng.randint(1, 4), rng.randint(-3, 3))
    path = golden / ("%s.json" % name)
    data = json.loads(path.read_text(encoding="utf-8"))
    data.update(symmetry=symmetry, entries=entries)
    path.write_text(json.dumps(data), encoding="utf-8")
    table = golden_tables(golden)[name]
    assert not table.is_zero
    assert table == golden_table_oracle(path, variance)


def _constant_family(params: tuple) -> FrameAlgebra:
    return family_frame([Scalar.constant(params, Fraction(v)) for v in (1, 2, 3, 5)], params)


@pytest.mark.parametrize("build", [build_example, lambda: build_example((1, 2, 3, 5)),
                                   lambda: _constant_family(("a", "b"))],
                         ids=["symbolic", "at-1235", "lifted"])
def test_family_parameters_reads_lambda_off_the_family(build):
    fa = build()
    lam = family_parameters(fa)
    assert lam is not None and fa == family_frame(lam, fa.params)
    assert lam == tuple(fa.brackets[idx] for idx in ((0, 1, 0), (0, 1, 1), (0, 2, 1),
                                                     (1, 2, 1)))


def _negated_product() -> FrameAlgebra:
    fa = build_example((1, 2, 3, 5))
    return FrameAlgebra(4, (), fa.brackets, fa.metric, -fa.product)


@pytest.mark.parametrize("build", [six_dim_frame, _negated_product, scaled_family_frame,
                                   single_bracket_frame],
                         ids=["six-dim", "negated-P", "scaled", "single-bracket"])
def test_family_parameters_is_none_off_the_family(build):
    assert family_parameters(build()) is None
