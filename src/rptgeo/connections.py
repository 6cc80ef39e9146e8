"""Natural connections with totally skew-symmetric torsion.

``ConnectionPack(frame, T)`` holds L + T/2, L of Levi-Civita, for any 3-form T:
nabla' = nabla + T/2 is a sum; nabla T and nabla P read its raised
coefficients.  ``rpt_connection`` is the pack of the natural connection, with T
read off the structure tensor, on the skew-cyclic class.
``tests/test_connections.py`` solves for the T whose connection keeps P
parallel, on frames of dimension 4, 6 and 8: a solution exists exactly off
the outside class; the kernel is the 3-forms on one eigenspace of P,
Lambda^3 V+ + Lambda^3 V-, so 0 in dimension 4; and the one solution with
no part there is ``rpt_connection``'s T.  Of the theorem checks only the
scalar norm relation and the torsion type tell it from the other solutions
(``tests/test_theorems.py``, on a 6-dim frame).  The canonical connection
and the P-connection depend on F alone, through ``companion_shifts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .frames import CheckResult, FrameAlgebra, check_result, memo
from .geometry import (CLASS_OUTSIDE, Connection, classify, fundamental_F,
                       levi_civita, nabla_p_components)
from .tensors import Tensor, arranged, compose, cyclic_sum


class NotW3Error(RuntimeError):
    """No natural connection with 3-form torsion exists on this frame."""


@dataclass
class ConnectionPack:
    frame: FrameAlgebra
    T: Tensor
    rpt: Connection = field(init=False)

    def __post_init__(self):
        self.rpt = _shifted_connection(self.frame, self.T.scale(Fraction(1, 2)))

    @memo
    def torsion_derivative(self) -> Tensor:
        """Covariant derivative of the torsion under the skew-torsion
        connection, derivative direction first."""
        return covariant_derivative(self.frame, self.rpt, self.T)

    @memo
    def torsion_products(self) -> Tensor:
        return torsion_inner_products(self.T, self.frame)

    @memo
    def torsion_form_square(self) -> Tensor:
        """sigma_T, the cyclic sum of the memoised torsion products; the
        torsion-3form check, not a guard here, tests that T is skew."""
        return cyclic_sum(self.torsion_products(), (0, 1, 2))


def rpt_torsion(f: Tensor, fa: FrameAlgebra) -> Tensor:
    """Torsion 3-form of the skew-torsion natural connection, from the
    structure tensor.  Defined on any frame; naturality needs the class gate."""
    g = arranged(f, "x,y,Pz", fa.product)
    return cyclic_sum(g, (0, 1, 2)).scale(Fraction(1, 2))


def _shifted_connection(fa: FrameAlgebra, q: Tensor) -> Connection:
    return Connection(fa, levi_civita(fa).lowered + q)


def companion_shifts(fa: FrameAlgebra) -> tuple:
    """(Q_C, Q_P): the lowered differences from Levi-Civita of the canonical
    connection and of the P-connection, both read off the structure tensor."""
    f = fundamental_F(fa)
    f_py = arranged(f, "x,Py,z", fa.product)
    q_c = (arranged(f, "y,Px,z", fa.product) - arranged(f, "Py,x,z", fa.product)
           + f_py.scale(2)).scale(Fraction(-1, 4))
    return q_c, f_py.scale(Fraction(-1, 2))


@memo
def rpt_connection(fa: FrameAlgebra) -> ConnectionPack:
    """The skew-torsion natural connection; NotW3Error outside the
    skew-cyclic class, where no such connection exists."""
    if classify(fa).label == CLASS_OUTSIDE:
        raise NotW3Error(
            "no natural connection with totally skew-symmetric torsion exists: "
            "the cyclic sum of the structure tensor is nonzero")
    return ConnectionPack(fa, rpt_torsion(fundamental_F(fa), fa))


def natural_check(check_id: str, fa: FrameAlgebra, conn: Connection) -> CheckResult:
    """Whether the connection leaves both the metric and the product
    parallel, as the report entry check_id."""
    return check_result(check_id, fa, [(nabla_p_components(fa, conn), "product-parallel")],
                        conn.metric_witnesses("metric-parallel"))


def torsion_inner_products(t: Tensor, fa: FrameAlgebra) -> Tensor:
    """(0,4) tensor pairing the torsion of (x,y) with the torsion of (z,w)."""
    # b(i,j,k,l) = sum_a T^a_ij T_kla, with T_kla moved to (a,k,l)
    return compose(t.raise_slot(2, fa.metric_inv), t.transpose((1, 2, 0)))


def sigma_T(t: Tensor, fa: FrameAlgebra) -> Tensor:
    """Quadratic torsion 4-form: cyclic sum of torsion inner products."""
    # the transpositions (0 1) and (1 2) generate S3
    if not all((t + t.transpose(p)).is_zero for p in ((1, 0, 2), (0, 2, 1))):
        raise ValueError("torsion must be totally skew-symmetric")
    return cyclic_sum(torsion_inner_products(t, fa), (0, 1, 2))


def covariant_derivative(fa: FrameAlgebra, conn: Connection, t: Tensor) -> Tensor:
    """Covariant derivative of a fully covariant tensor; the derivative
    direction is slot 0 of the result.  Frame components are constant, so
    only the connection terms contribute: A^s_ij composed into each slot of
    t in turn.  The product ``compose(A, t)`` is made once; a slot whose
    move to the front gives t or -t reuses it, transposed, so a totally
    skew t takes one product, itself skew in its last two slots."""
    if not t.rank or any(v != "d" for v in t.variance):
        raise ValueError("expected a fully covariant tensor of positive rank")
    # the slot moves to the front (slot j of the move is slot order[j]) and
    # j back to its place
    product = compose(conn.coeffs, t)
    total, negated = product, -t
    for slot in range(1, t.rank):
        order = [slot] + [k for k in range(t.rank) if k != slot]
        moved = t.transpose([order.index(k) for k in range(t.rank)])
        back = [0] + [k + 1 for k in order]
        if moved == t:
            total = total + product.transpose(back)
        elif moved == negated:
            total = total - product.transpose(back)
        else:
            total = total + compose(conn.coeffs, moved).transpose(back)
    return -total
