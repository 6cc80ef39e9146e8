"""Exact-arithmetic geometry of Riemannian almost product frame algebras.

Everything is computed over exact rational functions of declared symbolic
parameters: the Levi-Civita connection of a metric Lie algebra, the
structure tensor of the almost product structure, curvature, the natural
connection with totally skew-symmetric torsion and its companions, and a
suite of machine-checked identities.
"""

from .connections import (ConnectionPack, NotW3Error, covariant_derivative,
                          natural_check, rpt_connection, rpt_torsion, sigma_T,
                          torsion_inner_products)
from .example import (EPSILON_CANDIDATES, build_example, bundled_spec_path,
                      family_parameters, golden_tables)
from .frames import (CheckResult, FrameAlgebra, RebasedFrame, SchemaError,
                     Witness, adapted_frame, change_basis, killing_check,
                     load_spec, save_spec, spec_digest, validate)
from .geometry import (CLASS_OUTSIDE, CLASS_PARALLEL, CLASS_SKEW, ClassLabel,
                       Connection, classify, curvature, fundamental_F,
                       levi_civita, scalar_curvature, square_norm,
                       square_norm_nabla_P, torsion_projections)
from .parser import ParseError, parse_expression
from .scalars import Scalar
from .tensors import (Tensor, arranged, compose, cyclic_sum, mat_det, mat_identity, mat_inv,
                      mat_mul, mat_transpose, null_space, row_reduce, tensor_contract)
from .theorems import (check_p_tensor, geometry_checks, rpt_checks,
                       run_all, theorem_checks, verify_curvature_relation,
                       verify_family_equivalence, verify_p_tensor_criterion,
                       verify_parallel_torsion, verify_torsion_type)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
