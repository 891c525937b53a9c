"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they check: isotropy by integer
vector search, Hilbert symbols by bounded solubility search, cubic
irreducibility by sympy, isometry inputs by random congruence transforms,
cyclic H^1 by the closed-form ker(Norm)/im(g-1), Gram diagonalization by
Fraction Gauss elimination, transfer Gram matrices by Fraction matrix
products, the lambda search by plain enumeration with no real-place
certificate, form invariants by all n(n-1)/2 Hilbert symbols of the
entries and the square class of their raw product, and the biquadratic
witnesses (common slot, doubling parameters) by brute-force isometry and
subform searches.
"""

from fractions import Fraction
from itertools import combinations, product
from math import isqrt

from hypothesis import assume
from hypothesis import strategies as st

from g2tori.arith import (
    hilbert_symbol,
    is_local_square,
    relevant_places,
    squarefree_class,
)
from g2tori.composition import norm_form, square_class_candidates
from g2tori.etale import (
    CubicEtale,
    basis_mult_matrices,
    cubic_discriminant,
    lambda_candidates,
    mult_matrix,
    transfer_gram,
    transfer_tensors,
)
from g2tori.hermitian import check_condition_ii
from g2tori.quadforms import (
    FormInvariants,
    QuadForm,
    is_isometric,
    pfister,
    quadform_from_gram,
    represents_subform,
)
from g2tori.weyl import (
    det3,
    identity_matrix,
    kernel_basis,
    mat_mul,
    snf_diagonal,
    solve_rational,
    trace,
    w_mul,
    w_identity,
)


def reducible_by_sympy(c0, c1, c2):
    """Whether x^3 + c2 x^2 + c1 x + c0 factors over Q, by sympy."""
    import sympy

    x = sympy.symbols("x")
    return not sympy.Poly(x ** 3 + c2 * x ** 2 + c1 * x + c0, x).is_irreducible


@st.composite
def cubic_algebras(draw):
    """Split, partially split and small field cubic algebras."""
    kind = draw(st.sampled_from(["split", "partial", "field"]))
    if kind == "split":
        return CubicEtale.split()
    if kind == "partial":
        return CubicEtale.partial(draw(st.sampled_from([-20, -7, -3, -1, 2, 5, 6, 12])))
    c0, c1, c2 = (draw(st.integers(-9, 9)) for _ in range(3))
    assume(not reducible_by_sympy(c0, c1, c2))
    return CubicEtale.field(c0, c1, c2)


def find_isotropic_vector(diag, bound):
    """A nonzero integer vector with q(v) = 0 and coordinates <= bound.

    Searches supports of up to four coordinates with a meet-in-the-middle
    sum table, so it reaches eight-dimensional forms cheaply.  Returns None
    when nothing is found within the bound (the search is sound, not
    complete).
    """
    n = len(diag)
    for size in range(1, min(n, 4) + 1):
        for subset in combinations(range(n), size):
            vec = _search_support([diag[i] for i in subset], bound)
            if vec is not None:
                full = [0] * n
                for i, x in zip(subset, vec):
                    full[i] = x
                return tuple(full)
    return None


def _search_support(coeffs, bound):
    half = max(1, len(coeffs) // 2)
    left, right = coeffs[:half], coeffs[half:]
    table = {}
    for xs in product(range(bound + 1), repeat=len(left)):
        value = sum(a * x * x for a, x in zip(left, xs))
        nonzero = any(xs)
        if value not in table or (nonzero and not table[value][1]):
            table[value] = (xs, nonzero)
    for ys in product(range(bound + 1), repeat=len(right)):
        value = sum(a * y * y for a, y in zip(right, ys))
        match = table.get(-value)
        if match is None:
            continue
        xs, left_nonzero = match
        if left_nonzero or any(ys):
            return xs + ys
    return None


def hilbert_by_search(a, b, p):
    """Hilbert symbol by brute-force solubility of z^2 = a x^2 + b y^2.

    Searches primitive solutions mod p^3 (mod 16 for p = 2): a primitive
    solution there lifts p-adically for squarefree a, b.
    """
    import numpy as np

    mod = 16 if p == 2 else p ** 3
    zs = np.arange(mod, dtype=np.int64)
    sq_any = np.zeros(mod, dtype=bool)
    sq_any[np.unique((zs * zs) % mod)] = True
    units = zs[zs % p != 0]
    sq_unit = np.zeros(mod, dtype=bool)
    sq_unit[np.unique((units * units) % mod)] = True
    ax2 = (a % mod) * zs * zs % mod
    by2 = (b % mod) * zs * zs % mod
    grid = (ax2[:, None] + by2[None, :]) % mod
    unit_coord = zs % p != 0
    xy_primitive = unit_coord[:, None] | unit_coord[None, :]
    solvable = (sq_any[grid] & xy_primitive) | sq_unit[grid]
    return 1 if bool(solvable.any()) else -1


def hilbert_real_by_search(a, b):
    return 1 if (a > 0 or b > 0) else -1


def random_unimodular(n, rng, steps=8):
    """A random integer matrix of determinant +-1 (product of shears/swaps)."""
    m = [list(row) for row in identity_matrix(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def congruence_rediagonalize(q: QuadForm, rng) -> QuadForm:
    """Apply a random congruence transform to the Gram matrix and
    re-diagonalize exactly."""
    n = q.dim
    u = random_unimodular(n, rng)
    gram = [
        [
            sum(Fraction(u[k][i]) * q.diag[k] * u[k][j] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return quadform_from_gram(gram)


def element_order(g):
    order = 1
    x = g
    while x.key != w_identity().key:
        x = w_mul(x, g)
        order += 1
    return order


def h1_cyclic(generator, lattice):
    """Closed form for cyclic groups: ker(Norm) / im(g - 1)."""
    a = lattice.act(generator)
    r = lattice.rank
    n = element_order(generator)
    norm = [[0] * r for _ in range(r)]
    power = identity_matrix(r)
    for _ in range(n):
        for i in range(r):
            for j in range(r):
                norm[i][j] += power[i][j]
        power = mat_mul(a, power)
    kern = kernel_basis(norm)
    if not kern:
        return []
    gm1_cols = [
        tuple(a[i][j] - (1 if i == j else 0) for i in range(r)) for j in range(r)
    ]
    coords = []
    for col in gm1_cols:
        x = solve_rational(kern, col)
        assert x is not None and all(v.denominator == 1 for v in x)
        coords.append([int(v) for v in x])
    coord_matrix = [list(row) for row in zip(*coords)]
    divisors = snf_diagonal(coord_matrix)
    assert all(d != 0 for d in divisors)
    return sorted(d for d in divisors if d > 1)


def random_nonzero_rational(rng, num_bound=9, den_bound=3) -> Fraction:
    num = rng.randint(-num_bound, num_bound)
    while num == 0:
        num = rng.randint(-num_bound, num_bound)
    return Fraction(num, rng.randint(1, den_bound))


def random_element(rng, dim, num_bound=5) -> tuple:
    return tuple(Fraction(rng.randint(-num_bound, num_bound)) for _ in range(dim))


def gram_diagonal_fraction(rows):
    """Pivots of symmetric Gauss elimination over Fractions.

    A zero pivot is replaced by the next nonzero diagonal entry, or made
    nonzero by the basis move e_i += e_j on the first nonzero off-diagonal
    entry; raises ValueError on degenerate input.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    diag = []
    for k in range(n):
        if m[k][k] == 0:
            pivot = None
            for i in range(k + 1, n):
                if m[i][i] != 0:
                    pivot = i
                    break
            if pivot is not None:
                _swap_sym(m, k, pivot)
            else:
                found = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if m[i][j] != 0:
                            found = (i, j)
                            break
                    if found:
                        break
                if found is None:
                    raise ValueError("degenerate symmetric matrix")
                i, j = found
                for t in range(n):
                    m[i][t] += m[j][t]
                for t in range(n):
                    m[t][i] += m[t][j]
                if i != k:
                    _swap_sym(m, k, i)
        p = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / p
            if f == 0:
                continue
            for t in range(n):
                m[i][t] -= f * m[k][t]
            for t in range(n):
                m[t][i] -= f * m[t][k]
        diag.append(p)
    return diag


def _swap_sym(m, i, j):
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def transfer_gram_fraction(l, lam):
    """Gram matrix Tr(lam * b_i * b_j) from Fraction multiplication-matrix
    products."""
    mlam = mult_matrix(l, lam)
    mats = basis_mult_matrices(l)
    products = [mat_mul(mlam, m) for m in mats]
    return [[trace(mat_mul(mi, mj)) for mj in mats] for mi in products]


def lambda_search_by_enumeration(l, d, b, c, height):
    """The lambda search walked to the end of every height shell: the first
    lambda with square norm passing ``check_condition_ii``, or None."""
    delta = cubic_discriminant(l)
    mats = basis_mult_matrices(l)
    tensors = transfer_tensors(l)
    for lam in lambda_candidates(height):
        det = det3([[sum(x * m[i][j] for x, m in zip(lam, mats)) for j in range(3)] for i in range(3)])
        if det <= 0 or isqrt(det) ** 2 != det:
            continue
        t_form = quadform_from_gram(transfer_gram(tensors, lam))
        if check_condition_ii(d, delta, t_form, b, c):
            return lam, t_form
    return None


def invariants_pairwise(diag) -> FormInvariants:
    """Invariants of the diagonal form on the square classes ``diag``: the
    discriminant is the class of the raw product, and the Hasse symbol at
    each place is the product of (a_i, a_j)_v over every pair i < j."""
    dim = len(diag)
    if dim == 0:
        return FormInvariants(0, 1, (0, 0), {})
    product = 1
    for a in diag:
        product *= a
    pos = sum(1 for a in diag if a > 0)
    hasse = {}
    for v in relevant_places(diag):
        eps = 1
        for a, b in combinations(diag, 2):
            eps *= hilbert_symbol(a, b, v)
        hasse[v] = eps
    return FormInvariants(dim, squarefree_class(product), (pos, dim - pos), hasse)


def isotropic_from_invariants(inv: FormInvariants) -> bool:
    """Hasse-Minkowski isotropy read off the invariants with the public
    symbols: dim 2 needs disc -1, dim 3 needs Hasse (-1, -disc)_v at every
    place, dim 4 fails where disc is a local square and Hasse differs from
    (-1, -1)_v, dim >= 5 needs an indefinite form."""
    pos, neg = inv.signature
    if inv.dim <= 1:
        return False
    if inv.dim >= 5:
        return pos > 0 and neg > 0
    if inv.dim == 2:
        return inv.disc == -1
    places = relevant_places([inv.disc, -1])
    if inv.dim == 3:
        return all(inv.hasse_at(v) == hilbert_symbol(-1, -inv.disc, v) for v in places | set(inv.hasse))
    return not any(
        is_local_square(inv.disc, v) and inv.hasse_at(v) != hilbert_symbol(-1, -1, v)
        for v in places | set(inv.hasse)
    )


def witt_from_invariants(inv: FormInvariants) -> tuple[int, int]:
    """Witt index and kernel dimension: split off hyperbolic planes while
    the form is isotropic; each one negates the discriminant and twists
    the Hasse symbol at v by (-1, disc')_v."""
    index = 0
    while isotropic_from_invariants(inv):
        disc = squarefree_class(-inv.disc)
        pos, neg = inv.signature
        hasse = {v: e * hilbert_symbol(-1, disc, v) for v, e in inv.hasse.items()}
        inv = FormInvariants(inv.dim - 2, disc, (pos - 1, neg - 1), hasse)
        index += 1
    return index, inv.dim


def biquadratic_witnesses_by_search(C, t, bound=30) -> dict:
    """The ``common_slot`` and ``doubling_params`` witnesses of a decision,
    found by brute-force search over the squarefree candidates up to
    ``bound``.

    They exist when l is not a field and k1 = d*e and k2 = d are both
    nontrivial and both embed in C.  First a target quaternion algebra
    (k1, c): the first c with <<k1, c>> isometric to <<k2, c>> and a
    subform of the norm of C, else (k1, 1).  Then the common slot: the
    first c with <<k1, c>> and <<k2, c>> both isometric to the target's
    norm.  Then the doubling scalar: when <<k1, slot>> is a subform of the
    norm of C, the first c with <<k1, slot, c>> isometric to it.
    """
    if t.l.kind == "field":
        return {}
    d = t.kprime.d
    k1, k2 = squarefree_class(d * (1 if t.l.kind == "split" else t.l.e)), d
    target = norm_form(C)
    if k1 == 1 or k2 == 1 or not all(represents_subform(target, QuadForm((1, -k))) for k in (k1, k2)):
        return {}
    candidates = list(square_class_candidates(bound))
    quat = next(
        (
            pfister([k1, c])
            for c in candidates
            if is_isometric(pfister([k1, c]), pfister([k2, c])) and represents_subform(target, pfister([k1, c]))
        ),
        pfister([k1, 1]),
    )
    slot = next(
        (c for c in candidates if is_isometric(pfister([k1, c]), quat) and is_isometric(pfister([k2, c]), quat)),
        None,
    )
    if slot is None:
        return {}
    if not represents_subform(target, pfister([k1, slot])):
        return {"common_slot": slot}
    doubling = next(c for c in candidates if is_isometric(target, pfister([k1, slot, c])))
    return {"common_slot": slot, "doubling_params": [k1, slot, doubling]}
