import random
from math import prod

import pytest

from g2tori.weyl import (
    G2_ROOTS,
    LatticeMap,
    NotAGroup,
    NotComposable,
    PreconditionViolated,
    all_subgroups,
    build_w0,
    h1,
    identity_matrix,
    kernel_basis,
    lattice_catalog,
    mat_mul,
    mat_vec,
    named_subgroup,
    normalize_subgroup,
    smith_normal_form,
    subgroup_closure,
    torus_cocharacter_lattice,
    transpose,
    verify_exact,
    verify_h1_vanishing,
    w_identity,
    w_mul,
    weyl_element,
)
from helpers import element_order, h1_cyclic


def test_w0_structure():
    w0 = build_w0()
    assert len(w0) == 12
    central = weyl_element(-1, (1, 2, 3))
    assert central.matrix == ((-1, 0), (0, -1))
    s_alpha1 = weyl_element(1, (2, 1, 3))
    assert s_alpha1.matrix == ((-1, 3), (0, 1))
    s_alpha2 = weyl_element(-1, (1, 3, 2))
    assert s_alpha2.matrix == ((1, 0), (1, -1))
    assert element_order(w_mul(s_alpha1, s_alpha2)) == 6
    for g in w0:
        assert all(mat_vec(g.matrix, r) in G2_ROOTS for r in G2_ROOTS)
        for h in w0:
            assert w_mul(g, h).matrix == mat_mul(g.matrix, h.matrix)


def test_smith_normal_form_randomized():
    rng = random.Random(103)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        s, u, v = smith_normal_form(mat, need_u=True)
        assert mat_mul(mat_mul(u, tuple(tuple(r) for r in mat)), v) == s
        diag = [s[i][i] for i in range(min(m, n))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(min(m, n)):
            for j in range(min(m, n)):
                if i != j:
                    assert s[i][j] == 0 if i < len(s) and j < len(s[0]) else True
        # kernel really annihilates
        for vec in kernel_basis(mat):
            assert all(
                sum(mat[i][j] * vec[j] for j in range(n)) == 0 for i in range(m)
            )


def test_catalog_checks_out():
    cat = lattice_catalog()
    assert set(cat.lattices) == {"T0hat", "T0coch", "eps", "Zsign", "N", "M", "Ilk"}
    for lm in cat.maps.values():
        assert lm.is_equivariant()
    f_eps = cat.maps["f_eps"]
    cols = [tuple(f_eps.matrix[i][j] for i in range(3)) for j in range(2)]
    assert cols == [(1, -1, 0), (-2, 1, 1)]
    deg = cat.maps["deg"]
    assert mat_mul(deg.matrix, f_eps.matrix) == ((0, 0),)
    g_m = cat.maps["g_M"]
    f_nm = cat.maps["f_NM"]
    assert all(x == 0 for row in mat_mul(g_m.matrix, f_nm.matrix) for x in row)


def test_exact_sequences():
    cat = lattice_catalog()
    assert verify_exact(cat.maps["f_eps"], cat.maps["deg"])
    assert verify_exact(cat.maps["f_NM"], cat.maps["g_M"])
    with pytest.raises(NotComposable):
        verify_exact(cat.maps["f_eps"], cat.maps["g_M"])
    # a zero map into an identity is not exact
    t0 = cat.lattices["T0hat"]
    zero = LatticeMap("zero", t0, t0, ((0, 0), (0, 0)))
    ident = LatticeMap("id", t0, t0, identity_matrix(2))
    assert not verify_exact(zero, ident)


def test_h1_examples():
    cat = lattice_catalog()
    assert h1(named_subgroup("trivial"), cat.lattices["T0hat"]) == []
    assert h1(named_subgroup("center"), cat.lattices["T0hat"]) == [2, 2]
    for name in ("A3", "S3", "Z2xA3", "Z2xS3", "graph"):
        assert h1(named_subgroup(name), cat.lattices["Ilk"]) == [3], name
    with pytest.raises(NotAGroup):
        h1([weyl_element(1, (2, 1, 3))], cat.lattices["T0hat"])
    with pytest.raises(NotAGroup):
        h1([weyl_element(1, (1, 2, 3)), weyl_element(1, (2, 3, 1))], cat.lattices["N"])


def test_h1_vanishing_for_qualifying_subgroups():
    for name in ("Z2xA3", "Z2xS3", "graph"):
        assert verify_h1_vanishing(named_subgroup(name))
    with pytest.raises(PreconditionViolated):
        verify_h1_vanishing(named_subgroup("S3"))
    with pytest.raises(PreconditionViolated):
        verify_h1_vanishing(named_subgroup("center"))


def test_h1_rank_one_sign_lattice():
    cat = lattice_catalog()
    zsign = cat.lattices["Zsign"]
    assert h1(named_subgroup("center"), zsign) == [2]
    assert h1(named_subgroup("A3"), zsign) == []
    assert h1(named_subgroup("Z2xS3"), zsign) == [2]


def test_h1_divisors_divide_group_order():
    cat = lattice_catalog()
    for sub in all_subgroups():
        for lat in cat.lattices.values():
            for d in h1(sub, lat):
                assert len(sub) % d == 0


def test_h1_cyclic_oracle_agreement():
    cat = lattice_catalog()
    for g in build_w0():
        sub = subgroup_closure([g])
        for lat in cat.lattices.values():
            assert h1(sub, lat) == h1_cyclic(g, lat), (g, lat.name)


def _p_part(divisors, p):
    out = 1
    for d in divisors:
        while d % p == 0:
            out *= p
            d //= p
    return out


def test_sylow_restriction_divisibility():
    cat = lattice_catalog()
    subs = all_subgroups()
    for sub in subs:
        is_cyclic = any(len(subgroup_closure([g])) == len(sub) for g in sub)
        if is_cyclic:
            continue
        order = len(sub)
        keyset = {g.key for g in sub}
        for p in (2, 3):
            if order % p:
                continue
            p_order = 1
            o = order
            while o % p == 0:
                p_order *= p
                o //= p
            sylow = next(
                s
                for s in subs
                if len(s) == p_order and {g.key for g in s} <= keyset
            )
            for lat in cat.lattices.values():
                big = _p_part(h1(sub, lat), p)
                small = prod(h1(sylow, lat)) if h1(sylow, lat) else 1
                assert small % big == 0, (lat.name, order, p)


def test_dual_involution():
    cat = lattice_catalog()
    for lat in cat.lattices.values():
        double = lat.dual().dual()
        for g in build_w0():
            assert double.act(g) == lat.act(g)
        for sub in (named_subgroup("center"), named_subgroup("A3"), named_subgroup("Z2xS3")):
            assert h1(sub, double) == h1(sub, lat)


def test_dual_acts_by_inverse_transpose():
    for lat in lattice_catalog().lattices.values():
        for g in build_w0():
            product = mat_mul(transpose(lat.dual().act(g)), lat.act(g))
            assert product == identity_matrix(lat.rank)


def test_cocharacter_lattice_is_dual_of_torus_characters():
    cat = lattice_catalog()
    coch = torus_cocharacter_lattice()
    target = cat.maps["g_M"].target
    for g in build_w0():
        assert coch.act(g) == target.dual().act(g)


def test_normalize_subgroup_requires_closure():
    sub = normalize_subgroup(named_subgroup("A3"))
    assert len(sub) == 3
    with pytest.raises(NotAGroup):
        normalize_subgroup([weyl_element(-1, (1, 2, 3)), weyl_element(1, (2, 1, 3))])


def test_all_subgroups_count():
    # D6 of order 12 has 16 subgroups
    assert len(all_subgroups()) == 16
    assert w_identity().key == (1, (1, 2, 3))
