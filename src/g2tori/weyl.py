"""The Weyl group Z/2 x S3 of G2 as integer matrices, its lattices, and H^1.

The group acts on the rank-two root lattice in the basis (alpha1, alpha2)
with alpha1 short.  Cohomology of a subgroup acting on a Z-lattice is
computed from the degree-one bar complex with Smith normal form, so every
answer is an exact list of elementary divisors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


class NotAGroup(ValueError):
    """The supplied element set is not closed under multiplication."""


class NotComposable(ValueError):
    """Lattice maps with mismatched source/target."""


class PreconditionViolated(ValueError):
    """A decision rule was invoked outside its stated hypotheses."""


# ---------------------------------------------------------------------------
# integer / rational matrix utilities

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_vec(a: Matrix, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def trace(a: Matrix):
    return sum(a[i][i] for i in range(len(a)))


def det3(m):
    """Determinant of a 3x3 matrix, expanded along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def smith_normal_form(mat, need_u: bool = False):
    """Smith normal form over Z: returns (s, u, v) with u*mat*v = s.

    ``u`` is only tracked when requested (it is the expensive side for the
    tall cocycle systems); ``v`` is always exact so kernels can be read off.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(row) for row in mat]
    u = [[int(i == j) for j in range(m)] for i in range(m)] if need_u else None
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        if u is not None:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):  # col_i += q * col_j
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    while t < m and t < n:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                if all(a[i][t] == 0 for i in range(t + 1, m)) and all(
                    a[t][j] == 0 for j in range(t + 1, n)
                ):
                    break
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    s = tuple(tuple(row) for row in a)
    ut = tuple(tuple(row) for row in u) if u is not None else None
    vt = tuple(tuple(row) for row in v)
    return s, ut, vt


def snf_diagonal(mat) -> list[int]:
    s, _, _ = smith_normal_form(mat)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def kernel_basis(mat) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel {x : mat*x = 0}."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [tuple(int(i == j) for i in range(n)) for j in range(n)]
    s, _, v = smith_normal_form(mat)
    rank = sum(1 for i in range(min(m, n)) if s[i][i] != 0)
    return [tuple(v[i][j] for i in range(n)) for j in range(rank, n)]


def solve_rational(cols, target):
    """Solve sum_j x_j * cols[j] = target exactly; None when inconsistent.

    ``cols`` must be linearly independent, so the solution is unique.
    """
    m = len(target)
    k = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(m)]
    row = 0
    pivots = []
    for col in range(k):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("columns are linearly dependent")
        aug[row], aug[piv] = aug[piv], aug[row]
        f = aug[row][col]
        aug[row] = [x / f for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                g = aug[i][col]
                aug[i] = [x - g * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    for i in range(row, m):
        if aug[i][k] != 0:
            return None
    return [aug[i][k] for i in range(k)]


# ---------------------------------------------------------------------------
# the Weyl group W0 = Z/2 x S3

Perm = tuple[int, int, int]

S3: tuple[Perm, ...] = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
IDENTITY_PERM: Perm = (1, 2, 3)
A3: tuple[Perm, ...] = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition p after q."""
    return (p[q[0] - 1], p[q[1] - 1], p[q[2] - 1])


def perm_inv(p: Perm) -> Perm:
    out = [0, 0, 0]
    for i, image in enumerate(p):
        out[image - 1] = i + 1
    return tuple(out)


def perm_sign(p: Perm) -> int:
    s = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if p[i] > p[j]:
                s = -s
    return s


# simple roots embedded in the three-coordinate model
_ALPHA1 = (1, -1, 0)
_ALPHA2 = (-2, 1, 1)


def _permute_coords(p: Perm, vec):
    out = [0, 0, 0]
    for i in range(3):
        out[p[i] - 1] = vec[i]
    return tuple(out)


def _root_coords(vec) -> tuple[int, int]:
    # inverse of c1*alpha1 + c2*alpha2 on the zero-sum lattice
    return (vec[2] - vec[1], vec[2])


@dataclass(frozen=True)
class WeylElement:
    """An element of W0 with its action on the root lattice."""

    sign: int
    perm: Perm
    matrix: Matrix

    @property
    def key(self):
        return (self.sign, self.perm)

    def __repr__(self):
        return f"WeylElement({self.sign:+d}, {self.perm})"


def weyl_element(sign: int, perm: Perm) -> WeylElement:
    cols = []
    for alpha in (_ALPHA1, _ALPHA2):
        image = _permute_coords(perm, alpha)
        c1, c2 = _root_coords(tuple(sign * x for x in image))
        cols.append((c1, c2))
    matrix = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    return WeylElement(sign, perm, matrix)


def w_mul(g: WeylElement, h: WeylElement) -> WeylElement:
    return WeylElement(g.sign * h.sign, perm_mul(g.perm, h.perm), mat_mul(g.matrix, h.matrix))


def w_identity() -> WeylElement:
    return weyl_element(1, IDENTITY_PERM)


def build_w0() -> tuple[WeylElement, ...]:
    """All twelve elements, in (sign, perm) lexicographic order."""
    return tuple(
        weyl_element(s, p) for s in (1, -1) for p in S3
    )


G2_ROOTS = tuple(
    c
    for base in ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
    for c in (base, (-base[0], -base[1]))
)


def subgroup_closure(gens) -> tuple[WeylElement, ...]:
    """Subgroup of W0 generated by the given elements."""
    elems = {w_identity().key: w_identity()}
    frontier = [weyl_element(g.sign, g.perm) if isinstance(g, WeylElement) else weyl_element(*g) for g in gens]
    for g in frontier:
        elems[g.key] = g
    changed = True
    while changed:
        changed = False
        current = list(elems.values())
        for g in current:
            for h in current:
                gh = w_mul(g, h)
                if gh.key not in elems:
                    elems[gh.key] = gh
                    changed = True
    return tuple(sorted(elems.values(), key=lambda e: (-e.sign, e.perm)))


def normalize_subgroup(elements) -> tuple[WeylElement, ...]:
    """Validate closure and return a deterministic ordering."""
    elems = {}
    for g in elements:
        if not isinstance(g, WeylElement):
            g = weyl_element(*g)
        elems[g.key] = g
    if w_identity().key not in elems:
        raise NotAGroup("missing the identity element")
    for g in elems.values():
        for h in elems.values():
            if w_mul(g, h).key not in elems:
                raise NotAGroup(f"not closed: {g.key} * {h.key}")
    return tuple(sorted(elems.values(), key=lambda e: (-e.sign, e.perm)))


def all_subgroups() -> list[tuple[WeylElement, ...]]:
    """Every subgroup of W0 (closures of at most two generators suffice
    for a dihedral group of order 12)."""
    w0 = build_w0()
    seen = {}
    for g in w0:
        sub = subgroup_closure([g])
        seen[tuple(e.key for e in sub)] = sub
    for g, h in itertools.combinations(w0, 2):
        sub = subgroup_closure([g, h])
        seen[tuple(e.key for e in sub)] = sub
    return sorted(seen.values(), key=lambda s: (len(s), tuple(e.key for e in s)))


# ---------------------------------------------------------------------------
# lattices and maps

@dataclass(frozen=True)
class GaloisLattice:
    """A W0-lattice: rank plus an integer matrix for each group element."""

    name: str
    rank: int
    action: tuple[tuple[tuple[int, Perm], Matrix], ...]

    def act(self, g) -> Matrix:
        key = g.key if isinstance(g, WeylElement) else g
        for k, m in self.action:
            if k == key:
                return m
        raise KeyError(key)

    def dual(self) -> "GaloisLattice":
        """Contragredient lattice: g acts by the transpose of g^-1's action."""
        return GaloisLattice(
            self.name + "^",
            self.rank,
            tuple(((s, p), transpose(self.act((s, perm_inv(p))))) for (s, p), _ in self.action),
        )


@dataclass(frozen=True)
class LatticeMap:
    name: str
    source: GaloisLattice
    target: GaloisLattice
    matrix: Matrix

    def is_equivariant(self) -> bool:
        for key, _ in self.source.action:
            lhs = mat_mul(self.target.act(key), self.matrix)
            rhs = mat_mul(self.matrix, self.source.act(key))
            if lhs != rhs:
                return False
        return True


def _lattice(name, rank, matrices) -> GaloisLattice:
    action = tuple((g.key, matrices(g)) for g in build_w0())
    lat = GaloisLattice(name, rank, action)
    _check_lattice(lat)
    return lat


def _check_lattice(lat: GaloisLattice):
    # with the homomorphism check, g^-1 acts as an integer inverse of g
    if lat.act(w_identity()) != identity_matrix(lat.rank):
        raise ValueError(f"{lat.name}: the identity does not act trivially")
    for g in build_w0():
        for h in build_w0():
            if mat_mul(lat.act(g), lat.act(h)) != lat.act(w_mul(g, h)):
                raise ValueError(f"{lat.name}: action is not a homomorphism")


def _perm_matrix(p: Perm) -> Matrix:
    return tuple(tuple(1 if _permute_coords(p, _unit3(j))[i] else 0 for j in range(3)) for i in range(3))


def _unit3(j):
    return tuple(1 if t == j else 0 for t in range(3))


def _quotient_matrix(p: Perm) -> Matrix:
    # action on Z^3/(1,1,1) in the basis (e1bar, e2bar); e3bar = -e1bar - e2bar
    cols = []
    for j in (1, 2):
        image = p[j - 1]
        if image == 3:
            cols.append((-1, -1))
        else:
            cols.append(tuple(1 if i == image else 0 for i in (1, 2)))
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def _augmentation_matrix(p: Perm) -> Matrix:
    # action on the zero-sum sublattice of Z^3 in the basis (e1-e2, e2-e3)
    cols = []
    for base in ((1, -1, 0), (0, 1, -1)):
        v = _permute_coords(p, base)
        cols.append((v[0], -v[2]))
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


@dataclass(frozen=True)
class Catalog:
    lattices: dict
    maps: dict


_CATALOG_CACHE = None


def lattice_catalog() -> Catalog:
    """The named W0-lattices and the maps of the two exact sequences."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is not None:
        return _CATALOG_CACHE

    t0hat = _lattice("T0hat", 2, lambda g: g.matrix)
    t0coch = _lattice("T0coch", 2, lambda g: transpose(weyl_element(g.sign, perm_inv(g.perm)).matrix))
    eps = _lattice(
        "eps",
        3,
        lambda g: tuple(tuple(g.sign * x for x in row) for row in _perm_matrix(g.perm)),
    )
    zsign = _lattice("Zsign", 1, lambda g: ((g.sign,),))
    nlat = _lattice("N", 2, lambda g: _quotient_matrix(g.perm))

    def m_action(g):
        block = _quotient_matrix(g.perm)
        out = [[0] * 4 for _ in range(4)]
        if g.sign == 1:
            spots = ((0, 0), (1, 1))
        else:
            spots = ((0, 1), (1, 0))
        for bi, bj in spots:
            for i in range(2):
                for j in range(2):
                    out[2 * bi + i][2 * bj + j] = block[i][j]
        return tuple(tuple(row) for row in out)

    mlat = _lattice("M", 4, m_action)
    ilk = _lattice("Ilk", 2, lambda g: _augmentation_matrix(g.perm))

    f_eps = LatticeMap("f_eps", t0hat, eps, ((1, -2), (-1, 1), (0, 1)))
    deg = LatticeMap("deg", eps, zsign, ((1, 1, 1),))
    f_nm = LatticeMap("f_NM", nlat, mlat, ((1, 0), (0, 1), (1, 0), (0, 1)))

    # an S3-equivariant Z-identification of N with the quotient target (the
    # center acts through the summand swap); only the contragredient model
    # admits one, and the equivariance check below confirms it
    phi = ((1, -1), (-2, 1))
    g_m = LatticeMap(
        "g_M",
        mlat,
        t0coch,
        tuple(tuple(phi[i]) + tuple(-x for x in phi[i]) for i in range(2)),
    )

    for lm in (f_eps, deg, f_nm, g_m):
        if not lm.is_equivariant():
            raise ValueError(f"map {lm.name} is not equivariant")

    _CATALOG_CACHE = Catalog(
        lattices={
            "T0hat": t0hat,
            "T0coch": t0coch,
            "eps": eps,
            "Zsign": zsign,
            "N": nlat,
            "M": mlat,
            "Ilk": ilk,
        },
        maps={"f_eps": f_eps, "deg": deg, "f_NM": f_nm, "g_M": g_m},
    )
    return _CATALOG_CACHE


def verify_exact(f: LatticeMap, g: LatticeMap) -> bool:
    """Exactness of 0 -> source(f) -> source(g) -> target(g) -> 0."""
    if f.target.rank != g.source.rank or f.target.name != g.source.name:
        raise NotComposable(f"{f.name} and {g.name} do not compose")
    comp = mat_mul(g.matrix, f.matrix)
    if any(x != 0 for row in comp for x in row):
        return False
    if kernel_basis(f.matrix):
        return False  # f not injective
    kern = kernel_basis(g.matrix)
    fcols = [tuple(f.matrix[i][j] for i in range(len(f.matrix))) for j in range(len(f.matrix[0]))]
    if len(kern) != len(fcols):
        return False
    coords = []
    for col in fcols:
        x = solve_rational(kern, col)
        if x is None or any(c.denominator != 1 for c in x):
            return False
        coords.append([int(c) for c in x])
    coord_mat = [list(row) for row in zip(*coords)] if coords else []
    divisors = snf_diagonal(coord_mat)
    if len([d for d in divisors if d != 0]) != len(kern) or any(
        abs(d) != 1 for d in divisors
    ):
        return False
    gdiag = snf_diagonal(g.matrix)
    rank_g = len([d for d in gdiag if d != 0])
    if rank_g != g.target.rank or any(abs(d) != 1 for d in gdiag if d != 0):
        return False  # g not onto
    return True


# ---------------------------------------------------------------------------
# group cohomology H^1(Gamma, L)

def h1(group, lattice: GaloisLattice) -> list[int]:
    """Elementary divisors of H^1(Gamma, L) = Z^1/B^1 (empty means trivial).

    Cocycles f satisfy f(gh) = f(g) + g.f(h); both Z^1 and B^1 are integer
    lattices and the quotient is read off a Smith normal form.
    """
    elems = normalize_subgroup(group)
    r = lattice.rank
    n = len(elems)
    index = {g.key: i for i, g in enumerate(elems)}
    rows = []
    for g in elems:
        ag = lattice.act(g)
        for h in elems:
            gh = w_mul(g, h)
            block = [[0] * (n * r) for _ in range(r)]
            sgh = index[gh.key] * r
            sg = index[g.key] * r
            sh = index[h.key] * r
            for i in range(r):
                block[i][sgh + i] += 1
                block[i][sg + i] -= 1
                for j in range(r):
                    block[i][sh + j] -= ag[i][j]
            rows.extend(block)
    kern = kernel_basis(rows)
    z = len(kern)
    if z == 0:
        return []
    cobs = []
    for k in range(r):
        vec = []
        for g in elems:
            ag = lattice.act(g)
            vec.extend(ag[i][k] - (1 if i == k else 0) for i in range(r))
        cobs.append(tuple(vec))
    coords = []
    for c in cobs:
        x = solve_rational(kern, c)
        if x is None or any(v.denominator != 1 for v in x):
            raise AssertionError("coboundary outside the cocycle lattice")
        coords.append([int(v) for v in x])
    coord_mat = [list(row) for row in zip(*coords)]
    divisors = snf_diagonal(coord_mat)
    nonzero = [d for d in divisors if d != 0]
    if len(nonzero) != z:
        raise AssertionError("H^1 has a free part; the action must be wrong")
    return sorted(d for d in nonzero if d > 1)


def torus_cocharacter_lattice() -> GaloisLattice:
    """Cocharacter lattice of the rank-two torus attached to a type.

    The character lattice is the cokernel of g_M (the quotient model), so
    the cocharacter lattice is its dual; as a matrix family this is the
    root-basis action, not its contragredient.
    """
    return lattice_catalog().maps["g_M"].target.dual()


def verify_h1_vanishing(group) -> bool:
    """H^1(Gamma, cocharacter lattice) = 0 for Gamma with onto sign part
    and transitive permutation part."""
    elems = normalize_subgroup(group)
    signs = {g.sign for g in elems}
    if signs != {1, -1}:
        raise PreconditionViolated("sign projection is not onto")
    orbit = {1}
    changed = True
    while changed:
        changed = False
        for g in elems:
            for x in list(orbit):
                if g.perm[x - 1] not in orbit:
                    orbit.add(g.perm[x - 1])
                    changed = True
    if orbit != {1, 2, 3}:
        raise PreconditionViolated("permutation projection is not transitive")
    return h1(elems, torus_cocharacter_lattice()) == []


NAMED_SUBGROUPS = {
    "trivial": ((1, IDENTITY_PERM),),
    "center": ((1, IDENTITY_PERM), (-1, IDENTITY_PERM)),
    "Z2": ((1, IDENTITY_PERM), (-1, IDENTITY_PERM)),
    "A3": tuple((1, p) for p in A3),
    "S3": tuple((1, p) for p in S3),
    "Z2xA3": tuple((s, p) for s in (1, -1) for p in A3),
    "Z2xS3": tuple((s, p) for s in (1, -1) for p in S3),
    "W0": tuple((s, p) for s in (1, -1) for p in S3),
    "graph": tuple((perm_sign(p), p) for p in S3),
}


def named_subgroup(name: str) -> tuple[WeylElement, ...]:
    keys = NAMED_SUBGROUPS.get(name)
    if keys is None:
        raise KeyError(f"unknown subgroup name: {name}")
    return normalize_subgroup(weyl_element(s, p) for s, p in keys)
