"""Levi-Civita geometry of a frame algebra.

A connection holds L = g(nabla_{e_i} e_j, e_k) at (i, j, k), a ``ddd``
Tensor, as the paper does, so nabla' = nabla + T/2 is the sum L + T/2, and
raises it once, when built, to A^k_ij, the component on e_k of nabla_{e_i}
e_j, a ``ddu`` Tensor.  The torsion, the metric defect and the curvature
read L; the products and nabla P read A, as L(x, Py, z) - L(x, y, Pz) is
nabla P lowered only for a g-symmetric P.  Frame components are constant
(left invariance), so Koszul reduces to bracket/metric pairings.

A connection's scalar curvature has two memoized readers: ``curvature``,
the trace of the Ricci tensor of its Riemann tensor, and
``scalar_curvature``, of order n^4 from the coefficients with no curvature
tensor.  ``curved`` says whether the first is already built, so a command
reads tau there when a check has built the Riemann tensor and from the
coefficients otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .frames import FrameAlgebra, memo, tensor_witnesses
from .scalars import Scalar
from .tensors import (Tensor, arranged, compose, contract_all, cyclic_sum,
                      tensor_contract)

CLASS_PARALLEL = "W0"
CLASS_SKEW = "W3-strict"
CLASS_OUTSIDE = "outside-implemented-classes"


@dataclass
class Connection:
    """``lowered`` is L at (i, j, k); ``coeffs`` is raised from it here, the
    one raise or lower of a connection (ValueError on a singular metric)."""
    frame: FrameAlgebra
    lowered: Tensor
    coeffs: Tensor = field(init=False)

    def __post_init__(self):
        self.coeffs = self.lowered.raise_slot(2, self.frame.metric_inv)

    def torsion_tensor(self) -> Tensor:
        """Lowered torsion L(x,y,z) - L(y,x,z) - g([x,y], z), skew in x, y."""
        low, fa = self.lowered, self.frame
        return low - arranged(low, "y,x,z") - fa.brackets.lower_slot(2, fa.metric)

    def metric_witnesses(self, label: str) -> list:
        """Nonzero g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) for j <= k in the
        user's basis, as witnesses with expected zero and the negated sum;
        none when metric."""
        defect = -(self.lowered + arranged(self.lowered, "x,z,y"))
        return [w for w in tensor_witnesses(self.frame, defect, label)
                if w.index[1] <= w.index[2]]


@dataclass
class ClassLabel:
    label: str


@memo
def levi_civita(fa: FrameAlgebra) -> Connection:
    """Koszul construction; exact, torsion-free and metric by construction."""
    # g([e_i, e_j], e_k), then the Koszul sum at (i, j, k)
    pair = fa.brackets.lower_slot(2, fa.metric)
    kos = pair + arranged(pair, "z,x,y") + arranged(pair, "z,y,x")
    return Connection(fa, kos.scale(Fraction(1, 2)))


def nabla_p_components(fa: FrameAlgebra, conn: Connection) -> Tensor:
    """Covariant derivative of the product structure: (nabla_i P) e_j has
    component s at index (i, j, s)."""
    a = conn.coeffs
    return arranged(a, "x,Py,z", fa.product) - arranged(a, "x,y,Pz", fa.product)


@memo
def fundamental_F(fa: FrameAlgebra) -> Tensor:
    """Structure tensor F: the lowered Levi-Civita covariant derivative of
    the product structure.  The ``geometry`` suite checks its identities."""
    return nabla_p_components(fa, levi_civita(fa)).lower_slot(2, fa.metric)


def square_norm(t: Tensor, fa: FrameAlgebra) -> Scalar:
    """Full contraction of a covariant tensor with itself through the inverse
    metric in every slot: t against its components with every slot raised,
    all in one slot-map pass (``Tensor.map_slots``)."""
    return contract_all(t, t.map_slots([fa.metric_inv] * t.rank))


@memo
def square_norm_nabla_P(fa: FrameAlgebra) -> Scalar:
    """|nabla P|^2, the square norm of the structure tensor F."""
    return square_norm(fundamental_F(fa), fa)


@memo
def curvature(conn: Connection):
    """Curvature (0,4) tensor, Ricci tensor and scalar curvature of conn.

    R(x,y,z,w) = g(nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z, w).
    With L(i,s,l) = g(nabla_i e_s, e_l) and constant frame components,
    R(i,j,k,l) = sum_s A^s_jk L(i,s,l) - A^s_ik L(j,s,l) - c^s_ij L(s,k,l)."""
    fa, low = conn.frame, conn.lowered
    # sum_s A^s_jk L(i,s,l) lands at (j,k,i,l) and moves to (i,j,k,l)
    first = compose(conn.coeffs, low.transpose((1, 0, 2))).transpose((1, 2, 0, 3))
    riemann = first - first.transpose((1, 0, 2, 3)) \
        - compose(fa.brackets, low)
    ricci = tensor_contract(riemann, 0, 3, fa.metric_inv)
    tau = tensor_contract(ricci, 0, 1, fa.metric_inv)[()]
    return riemann, ricci, tau


def curved(conn: Connection) -> bool:
    """Whether ``curvature(conn)`` is already memoized, so that tau read
    there costs nothing."""
    return _CURVED in conn.__dict__


_CURVED = curvature.memo_key


@memo
def scalar_curvature(conn: Connection) -> Scalar:
    """Scalar curvature of conn from its coefficients, of order n^4, equal to
    ``curvature(conn)[2]``, for a connection whose Riemann tensor no check
    builds.

    Contracting R^i_ijk: Ric(j,k) = sum_s A^s_jk t_s - sum_{s,p} (A - c)^p_js
    A^s_pk with t_s = sum_p A^p_ps, which needs no metric, and
    tau = v.t - <(A - c) raised in slot 0, A moved to (k,s,p)> with
    v^s = sum g^jk A^s_jk (Milnor, Adv. Math. 21 (1976))."""
    fa, a = conn.frame, conn.coeffs
    t = tensor_contract(a, 0, 2)
    v = tensor_contract(a, 0, 1, fa.metric_inv)
    b = (a - fa.brackets).raise_slot(0, fa.metric_inv)
    return contract_all(v, t) - contract_all(b, arranged(a, "z,x,y"))


@memo
def classify(fa: FrameAlgebra) -> ClassLabel:
    """Class membership from the structure tensor (parallel, skew-cyclic, other)."""
    f = fundamental_F(fa)
    if f.is_zero:
        return ClassLabel(CLASS_PARALLEL)
    if cyclic_sum(f, (0, 1, 2)).is_zero:
        return ClassLabel(CLASS_SKEW)
    return ClassLabel(CLASS_OUTSIDE)


def torsion_projections(t: Tensor, fa: FrameAlgebra):
    """Split a torsion-type tensor into its four invariant components."""
    if t.variance != "ddd":
        raise ValueError("expected a (0,3) tensor")
    if not (t + arranged(t, "y,x,z")).is_zero:
        raise ValueError("tensor is not antisymmetric in its first two slots")
    # each pattern once; p1 and p2 differ only in the sign of s, p3 and p4
    # in the sign of u
    a = {pattern: arranged(t, pattern, fa.product) for pattern in (
        "y,z,x", "z,x,y", "Pz,x,Py", "Py,z,Px", "z,Px,Py", "Px,Py,z", "Py,Pz,x",
        "Pz,Px,y", "y,Pz,Px", "Px,y,Pz", "x,Py,Pz")}
    s = (a["Py,z,Px"] + a["z,Px,Py"] + a["Py,Pz,x"] + a["Pz,Px,y"] - a["y,z,x"]
         - a["z,x,y"] - a["Pz,x,Py"] - a["y,Pz,Px"])
    u = a["Px,y,Pz"] + a["x,Py,Pz"]
    d = (t - a["Px,Py,z"]).scale(2)
    e = t + a["Px,Py,z"]
    e8, e4 = Fraction(1, 8), Fraction(1, 4)
    return (d + s).scale(e8), (d - s).scale(e8), (e - u).scale(e4), (e + u).scale(e4)
