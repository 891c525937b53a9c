"""Rank-3 hermitian forms for Q(sqrt(d))/Q and their form invariants.

Covers the discriminant test (a norm condition delegated to Hilbert
symbols), normalization to <-b,-c,bc>, the associated 3- and 8-dimensional
invariant forms, the 9-dimensional trace form of the adjoint involution on
3x3 matrices, and the lambda-witness search used by the embedding
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .arith import (
    SquareClass,
    class_product,
    is_norm,
    parse_rational,
    rational_to_json,
    squarefree_class,
)
from .etale import (
    CubicEtale,
    basis_mult_matrices,
    cubic_discriminant,
    lambda_candidates,
    transfer_gram,
    transfer_tensors,
)
from .quadforms import (
    QuadForm,
    is_isometric,
    is_isotropic,
    pfister,
    positive_count,
    quadform_from_gram,
    scale,
    tensor,
)
from .weyl import det3, mat_mul, trace


class NontrivialDiscriminant(ValueError):
    """The hermitian discriminant is not a norm from the quadratic algebra."""


class MismatchedAlgebra(ValueError):
    """Operands live over different quadratic algebras."""


@dataclass(frozen=True)
class HermitianForm:
    """Diagonal rank-3 hermitian form <a1,a2,a3> for Q(sqrt(d))/Q."""

    d: SquareClass
    diag: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "d", squarefree_class(self.d))
        entries = tuple(parse_rational(x) for x in self.diag)
        if len(entries) != 3 or any(x == 0 for x in entries):
            raise ValueError("a rank-3 hermitian form needs three nonzero entries")
        object.__setattr__(self, "diag", entries)


def has_trivial_discriminant(h: HermitianForm) -> bool:
    """Whether a1*a2*a3 is a norm from Q(sqrt(d)), i.e. (d, a1a2a3)_v = +1
    at every place."""
    return is_norm(h.d, squarefree_class(h.diag[0] * h.diag[1] * h.diag[2]))


def normalize_trivial_disc(h: HermitianForm) -> tuple[SquareClass, SquareClass]:
    """Parameters (b, c) with h isometric to <-b, -c, bc>.

    Hermitian entries only matter modulo norms, and triviality of the
    discriminant makes the third entry match automatically once the first
    two are normalized.
    """
    if not has_trivial_discriminant(h):
        raise NontrivialDiscriminant("h has nontrivial hermitian discriminant")
    b = squarefree_class(-h.diag[0])
    c = squarefree_class(-h.diag[1])
    if not hermitian_isometric(h, HermitianForm(h.d, (-b, -c, class_product(b, c)))):
        raise AssertionError("h is not isometric to its normalization <-b, -c, bc>")
    return b, c


def hermitian_isometric(h1: HermitianForm, h2: HermitianForm) -> bool:
    """Jacobson's criterion: compare the 6-dimensional quadratic trace forms
    diag(h) tensor <1, -d>."""
    if h1.d != h2.d:
        raise MismatchedAlgebra("forms live over different quadratic algebras")
    t1 = tensor(QuadForm(h1.diag), QuadForm((1, -h1.d)))
    t2 = tensor(QuadForm(h2.diag), QuadForm((1, -h2.d)))
    return is_isometric(t1, t2)


def q_tau(h: HermitianForm) -> QuadForm:
    b, c = normalize_trivial_disc(h)
    return QuadForm._of_classes((-b, -c, class_product(b, c)))


def pi_form(h: HermitianForm) -> QuadForm:
    """The 3-Pfister invariant <<d, b, c>> of the adjoint involution."""
    b, c = normalize_trivial_disc(h)
    return pfister([h.d, b, c])


def is_distinguished(h: HermitianForm) -> bool:
    """Pfister forms are hyperbolic iff isotropic, so one isotropy test."""
    return is_isotropic(pi_form(h))


def involution_trace_form(h: HermitianForm) -> QuadForm:
    """The 9-dimensional trace form Trd(XY) on tau_h-symmetric 3x3 matrices.

    A matrix over Q(sqrt(d)) is stored as a pair (A, B) meaning A + B*sqrt(d);
    tau_h(X) = H^-1 conj(X)^T H with H = diag(a1,a2,a3).  Symmetry means H*A
    is symmetric and H*B antisymmetric, which gives the explicit 9-element
    basis below (denominators cleared; congruence preserves invariants).
    """
    if not has_trivial_discriminant(h):
        raise NontrivialDiscriminant("h has nontrivial hermitian discriminant")
    a = h.diag
    d = h.d
    zero = [[0] * 3 for _ in range(3)]
    basis = []
    for i in range(3):
        ei = [[0] * 3 for _ in range(3)]
        ei[i][i] = 1
        basis.append((ei, zero))
    for i in range(3):
        for j in range(i + 1, 3):
            sym = [[0] * 3 for _ in range(3)]
            sym[i][j] = a[j]
            sym[j][i] = a[i]
            basis.append((sym, zero))
    for i in range(3):
        for j in range(i + 1, 3):
            alt = [[0] * 3 for _ in range(3)]
            alt[i][j] = a[j]
            alt[j][i] = -a[i]
            basis.append((zero, alt))
    gram = [[Fraction(0)] * 9 for _ in range(9)]
    for i, (a1, b1) in enumerate(basis):
        for j, (a2, b2) in enumerate(basis):
            rational = trace(mat_mul(a1, a2)) + d * trace(mat_mul(b1, b2))
            irrational = trace(mat_mul(a1, b2)) + trace(mat_mul(b1, a2))
            if irrational != 0:
                raise AssertionError("the trace of a product of symmetric elements must be rational")
            gram[i][j] = rational
    return quadform_from_gram(gram)


def check_condition_ii(d, delta, t_form: QuadForm, b, c) -> bool:
    """<<d>> tensor delta*t is isometric to <<d>> tensor <-b,-c,bc>."""
    if t_form.dim != 3:
        raise ValueError("the transfer form must be 3-dimensional")
    return _condition_ii(*_condition_ii_sides(d, b, c), delta, t_form)


def _condition_ii_sides(d, b, c) -> tuple[QuadForm, QuadForm]:
    """<<d>> and the right-hand side <<d>> tensor <-b,-c,bc> of condition (ii)."""
    doubled = pfister([d])
    b, c = squarefree_class(b), squarefree_class(c)
    return doubled, tensor(doubled, QuadForm._of_classes((-b, -c, class_product(b, c))))


def _condition_ii(doubled: QuadForm, rhs: QuadForm, delta, t_form: QuadForm) -> bool:
    # the real place decides most transfer forms: compare signatures before
    # the left-hand side is built and its entries are factored
    scaled = [delta * t for t in t_form.diag]
    if positive_count([a * s for a in doubled.diag for s in scaled]) != positive_count(rhs.diag):
        return False
    return is_isometric(tensor(doubled, scale(t_form, delta)), rhs)


def _obstructed_at_real_place(doubled: QuadForm, rhs: QuadForm, delta) -> bool:
    """Whether no lambda of positive norm passes the signature test of
    condition (ii), so that no search height can find a witness.

    Over R, l is R^3 when delta > 0, where t_lam = <lam_1, lam_2, lam_3>
    with an even number of negative entries; it is R x C when delta < 0,
    where t_lam is <lam_1> plus a hyperbolic plane, with lam_1 > 0.  So
    the answer is yes when no such shape gives <<d>> tensor delta*t_lam
    the signature of ``rhs``.
    """
    shapes = ((1, 1, 1), (1, -1, -1)) if delta > 0 else ((1, 1, -1),)
    target = positive_count(rhs.diag)
    return all(
        positive_count([a * delta * t for a in doubled.diag for t in shape]) != target
        for shape in shapes
    )


def lambda_witness_search(l: CubicEtale, d, b, c, height: int):
    """First lambda (by height, then lexicographic order) with square norm
    satisfying the transfer isometry; None when the search space is
    exhausted.  None is never a NO: the caller interprets it as
    inconclusive at this height.

    The inner loop is integer-only: the norm is the determinant of
    sum_k lam_k M_k over the basis multiplication matrices, and the
    transfer Gram matrix is sum_k lam_k T_k over ``transfer_tensors``.  The
    right-hand side of condition (ii) is built once per search.  When the
    real place already proves that no lambda of any height passes (see
    ``_obstructed_at_real_place``), the enumeration is skipped and the
    search returns None, exactly what it would return after exhausting
    the height, so the caller still reads INCONCLUSIVE.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    delta = cubic_discriminant(l)
    doubled, rhs = _condition_ii_sides(d, b, c)
    if _obstructed_at_real_place(doubled, rhs, delta):
        return None
    # per matrix entry (i, j), its coefficients in M_0, M_1, M_2
    entries = [list(zip(*rows)) for rows in zip(*basis_mult_matrices(l))]
    tensors = transfer_tensors(l)
    for lam in lambda_candidates(height):
        x, y, z = lam
        det = det3([[x * p + y * q + z * r for p, q, r in row] for row in entries])
        if det <= 0:
            continue
        root = isqrt(det)
        if root * root != det:
            continue
        t_form = quadform_from_gram(transfer_gram(tensors, lam))
        if _condition_ii(doubled, rhs, delta, t_form):
            return lam, t_form
    return None


def hermitian_to_json(h: HermitianForm) -> dict:
    return {
        "hermitian": {
            "d": h.d,
            "diag": [rational_to_json(x) for x in h.diag],
        }
    }


def hermitian_from_json(obj) -> HermitianForm:
    spec = obj["hermitian"]
    return HermitianForm(spec["d"], tuple(parse_rational(x) for x in spec["diag"]))
