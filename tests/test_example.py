"""Golden tables of the bundled family: loading, expansion and comparison."""

from __future__ import annotations

import json

import pytest

from rptgeo import (adapted_frame, bundled_spec_path, curvature, golden_tables,
                    load_spec, rpt_connection)
from rptgeo.example import PARAM_NAMES, compare_tensor

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
