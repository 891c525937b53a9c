"""Seeded inputs for the benchmark's workloads.

Every input is plain data (ints, strings, lists), generated from the seed
alone and carrying the answer that its construction guarantees, so the
oracles never have to ask g2tori for it.  ``run_op`` turns one input into
g2tori calls; everything it does, parsing included, is timed, as the CLI
would do it.
"""

from __future__ import annotations

import random

from oracles import int_sqrt_free, norm, is_prime

# the 200-instance acceptance grid: {split, Cayley} x 10 d x 10 cubics
GRID_OCTONIONS = ((1, 1, 1), (-1, -1, -1))
GRID_DS = (1, -1, 2, -2, 3, -3, 5, -5, 7, -7)
GRID_CUBICS = (
    "split", "partial:2", "partial:-2", "partial:3", "partial:-3", "partial:5",
    "partial:-5", "field:-1,-3,0", "field:-2,0,0", "field:-1,1,0",
)

FRESH_BOUND = 100  # |d|, |e| and the octonion slots are at most this
FRESH_COEFF = 20  # cubic field coefficients lie in [-FRESH_COEFF, FRESH_COEFF]
SMOOTH_PRIMES = [p for p in range(2, 1000) if is_prime(p)]
ENTRY_LIMIT = 10 ** 6  # squarefree part of a form entry before square factors

# invariants: one block holds every h1 pair twice, plus these
BLOCK_H1_SWEEPS = 2
BLOCK_TRANSFERS = 300
BLOCK_FORMS = 80  # split evenly over the four form queries
BLOCK_OVERFLOWS = 1  # forms with a semiprime entry above 10**12
FORM_KINDS = ("isometric", "isotropic", "witt", "subform")

# cli: shares of the three subcommands
CLI_MIX = (("decide", 14), ("h1", 3), ("isometric", 3))


# ---------------------------------------------------------------------------
# decisions

def decision_class(octonion_class: str, d: int, delta_sign: int) -> tuple[str, str]:
    """The paper's closed form: (decision, rule) from the algebra's class."""
    if octonion_class == "split":
        return "YES", "R1"
    if d == 1:
        return "NO", "R2"
    return ("YES" if d < 0 and delta_sign > 0 else "NO"), "R3"


def grid_instances() -> list[dict]:
    """The acceptance grid in its canonical (golden file) order."""
    out = []
    for octonion in GRID_OCTONIONS:
        for d in GRID_DS:
            for cubic in GRID_CUBICS:
                out.append(decision(octonion, "split" if octonion[0] == 1 else "anisotropic", d, cubic))
    return out


def grid_pool(rng: random.Random) -> list[dict]:
    """The grid in seeded order, stratified so that a window that stops
    mid-pass sees the same mix as a whole pass: every run of eight holds
    exactly one exhaustive lambda search (Cayley, d < 0, delta < 0), and
    every five of those cover the five cubics, whose search costs differ."""
    by_cubic, fast = {}, []
    for inst in grid_instances():
        if inst["class"] == "anisotropic" and inst["d"] < 0 and inst["delta_sign"] < 0:
            by_cubic.setdefault(inst["cubic"], []).append(inst)
        else:
            fast.append(inst)
    for group in by_cubic.values():
        rng.shuffle(group)
    slow = []
    for round_ in zip(*by_cubic.values()):
        round_ = list(round_)
        rng.shuffle(round_)
        slow.extend(round_)
    rng.shuffle(fast)
    per = len(fast) // len(slow)
    out = []
    for i, inst in enumerate(slow):
        block = fast[i * per:(i + 1) * per]
        block.insert(rng.randrange(per + 1), inst)
        out.extend(block)
    return out


def decision(octonion, octonion_class, d, cubic) -> dict:
    """A decision input: the algebra's known class and the cubic's delta sign
    travel with it for the oracle."""
    return {
        "kind": "decide",
        "octonion": list(octonion),
        "class": octonion_class,
        "d": d,
        "cubic": cubic,
        "delta_sign": _delta_sign(cubic),
    }


def _delta_sign(cubic: str) -> int:
    if cubic == "split":
        return 1
    kind, _, rest = cubic.partition(":")
    if kind == "partial":
        return 1 if int(rest) > 0 else -1
    return 1 if _cubic_disc(*map(int, rest.split(","))) > 0 else -1


def _cubic_disc(c0, c1, c2) -> int:
    # discriminant of x^3 + c2 x^2 + c1 x + c0
    return c2 * c2 * c1 * c1 - 4 * c1 ** 3 - 4 * c2 ** 3 * c0 - 27 * c0 * c0 + 18 * c2 * c1 * c0


def _random_squarefree(rng, bound) -> int:
    while True:
        v = rng.randint(1, bound)
        if int_sqrt_free(v) == v:
            return v * rng.choice((1, -1))


def _random_field(rng, bound) -> str:
    while True:
        c = [rng.randint(-bound, bound) for _ in range(3)]
        if c[0] != 0 and not _has_integer_root(*c) and _cubic_disc(*c) != 0:
            return "field:" + ",".join(map(str, c))


def _has_integer_root(c0, c1, c2) -> bool:
    # a rational root of a monic integer cubic is an integer dividing c0
    return any(
        x ** 3 + c2 * x * x + c1 * x + c0 == 0
        for r in range(1, abs(c0) + 1) if c0 % r == 0 for x in (r, -r)
    )


def _random_cubic(rng, bound) -> str:
    kind = rng.choice(("split", "partial", "field", "field"))
    if kind == "split":
        return "split"
    if kind == "partial":
        e = 1
        while e == 1:
            e = _random_squarefree(rng, bound)
        return f"partial:{e}"
    return _random_field(rng, FRESH_COEFF)


def fresh_instance(rng: random.Random) -> dict:
    """A random decision whose lambda search stops at a witness or is never
    started: the anisotropic, d < 0, delta < 0 class is redrawn."""
    while True:
        if rng.random() < 0.5:
            k = rng.randint(1, 5)
            slots = [_random_squarefree(rng, FRESH_BOUND), _random_squarefree(rng, FRESH_BOUND), k * k]
            rng.shuffle(slots)
            cls = "split"
        else:
            slots = [-rng.randint(1, FRESH_BOUND) for _ in range(3)]
            cls = "anisotropic"
        d = 1 if rng.random() < 0.1 else _random_squarefree(rng, FRESH_BOUND)
        inst = decision(slots, cls, d, _random_cubic(rng, FRESH_BOUND))
        if not (cls == "anisotropic" and d < 0 and inst["delta_sign"] < 0):
            return inst


# ---------------------------------------------------------------------------
# forms, transfers and h1

def _smooth_entry(rng, sign=None) -> int:
    n = 1
    for p in rng.sample(SMOOTH_PRIMES, rng.randint(1, 3)):
        if n * p <= ENTRY_LIMIT:
            n *= p
    if sign is None:
        sign = rng.choice((1, -1))
    return sign * n


def _is_smooth(n: int) -> bool:
    n = abs(n)
    for p in SMOOTH_PRIMES:
        while n % p == 0:
            n //= p
    return n == 1


def _isometric_copy(rng, diag) -> list[int]:
    """An isometric diagonal form: <a, b> = <a + b, ab(a + b)> on disjoint
    pairs (kept only when a + b is smooth, so factoring stays certifiable),
    then a shuffle and square factors."""
    out = list(diag)
    idx = list(range(len(out)))
    rng.shuffle(idx)
    for i, j in zip(idx[::2], idx[1::2]):
        a, b = out[i], out[j]
        if a + b != 0 and _is_smooth(a + b):
            out[i], out[j] = a + b, a * b * (a + b)
    rng.shuffle(out)
    return [x * rng.choice((1, 4, 9, 25)) for x in out]


def _form_op(rng, kind) -> dict:
    if kind == "isometric":
        left = [_smooth_entry(rng) for _ in range(rng.randint(4, 8))]
        right = _isometric_copy(rng, left)
        same = rng.random() < 0.5
        if not same:
            i = rng.randrange(len(right))
            # a sign flip moves the signature, a prime factor the discriminant
            right[i] *= rng.choice((-1, rng.choice(SMOOTH_PRIMES)))
        return {"kind": kind, "left": left, "right": right, "expect": same}
    if kind == "isotropic":
        if rng.random() < 0.5:
            c = _smooth_entry(rng)
            base = [_smooth_entry(rng) for _ in range(rng.randint(2, 6))] + [c, -c]
            return {"kind": kind, "diag": _isometric_copy(rng, base), "expect": True}
        sign = rng.choice((1, -1))
        base = [_smooth_entry(rng, sign) for _ in range(rng.randint(4, 8))]
        return {"kind": kind, "diag": _isometric_copy(rng, base), "expect": False}
    if kind == "witt":
        sign = rng.choice((1, -1))
        definite = [_smooth_entry(rng, sign) for _ in range(rng.randint(1, 4))]
        planes = rng.randint(1, 2)
        base = list(definite)
        for _ in range(planes):
            c = _smooth_entry(rng)
            base += [c, -c]
        return {"kind": kind, "diag": _isometric_copy(rng, base), "expect": [planes, len(definite)]}
    # subform: s is a summand of q by construction, or q is negative
    # definite and s has a positive entry
    sub = [_smooth_entry(rng) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        rest = [_smooth_entry(rng) for _ in range(rng.randint(2, 4))]
        return {"kind": kind, "diag": _isometric_copy(rng, sub + rest), "sub": sub, "expect": True}
    sub[0] = abs(sub[0])
    diag = [_smooth_entry(rng, -1) for _ in range(rng.randint(4, 6))]
    return {"kind": kind, "diag": _isometric_copy(rng, diag), "sub": sub, "expect": False}


def _semiprime(rng) -> int:
    primes = []
    while len(primes) < 2:
        p = rng.randrange(10 ** 6 + 1, 2 * 10 ** 6, 2)
        if is_prime(p) and p not in primes:
            primes.append(p)
    return primes[0] * primes[1]


def overflow_op(rng) -> dict:
    """An isometry query holding one semiprime entry above 10**12: the
    answer is YES by construction, and today's trial division raises
    FactorizationOverflow on it instead (a documented typed error)."""
    left = [_smooth_entry(rng) for _ in range(rng.randint(3, 7))]
    big = _semiprime(rng) * rng.choice((1, -1))
    right = _isometric_copy(rng, left) + [big]
    return {"kind": "isometric", "left": left + [big], "right": right, "expect": True, "overflow": True}


def transfer_op(rng) -> dict:
    cubic = _random_cubic(rng, FRESH_BOUND)
    while True:
        lam = [rng.randint(-10, 10) for _ in range(3)]
        if norm(cubic, lam) != 0:
            return {"kind": "transfer", "cubic": cubic, "lam": lam}


def invariants_block(rng: random.Random, n_subgroups: int, lattices) -> list[dict]:
    """One block of the invariants stream, in seeded order."""
    block = [
        {"kind": "h1", "group": g, "lattice": name}
        for _ in range(BLOCK_H1_SWEEPS) for g in range(n_subgroups) for name in lattices
    ]
    block += [transfer_op(rng) for _ in range(BLOCK_TRANSFERS)]
    block += [_form_op(rng, FORM_KINDS[i % len(FORM_KINDS)]) for i in range(BLOCK_FORMS)]
    block += [overflow_op(rng) for _ in range(BLOCK_OVERFLOWS)]
    rng.shuffle(block)
    return block


def cli_block(rng: random.Random, n_subgroups: int, lattices) -> list[dict]:
    """One shuffled round of CLI_MIX, in seeded order."""
    kinds = [k for k, w in CLI_MIX for _ in range(w)]
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        if kind == "decide":
            ops.append(fresh_instance(rng))
        elif kind == "h1":
            ops.append({"kind": "h1", "group": rng.randrange(n_subgroups), "lattice": rng.choice(lattices)})
        else:
            ops.append(_form_op(rng, "isometric"))
    return ops


# ---------------------------------------------------------------------------
# running one input

def cubic(spec: str):
    from g2tori import etale

    if spec == "split":
        return etale.CubicEtale.split()
    kind, _, rest = spec.partition(":")
    if kind == "partial":
        return etale.CubicEtale.partial(int(rest))
    return etale.CubicEtale.field(*map(int, rest.split(",")))


def run_op(op: dict, subgroups, catalog):
    """Answer one input in-process; the result is plain data."""
    from g2tori import composition, engine, etale, quadforms, weyl

    kind = op["kind"]
    if kind == "decide":
        algebra = composition.CompositionAlgebra(tuple(op["octonion"]))
        t = etale.TorusType(etale.QuadraticEtale(op["d"]), cubic(op["cubic"]))
        return engine.decide_over_Q(algebra, t).to_json()
    if kind == "h1":
        return weyl.h1(subgroups[op["group"]], catalog.lattices[op["lattice"]])
    if kind == "transfer":
        return list(etale.trace_transfer_form(cubic(op["cubic"]), op["lam"]).diag)
    if kind == "isometric":
        return quadforms.is_isometric(quadforms.QuadForm(tuple(op["left"])), quadforms.QuadForm(tuple(op["right"])))
    q = quadforms.QuadForm(tuple(op["diag"]))
    if kind == "isotropic":
        return quadforms.is_isotropic(q)
    if kind == "witt":
        return list(quadforms.witt_decompose(q))
    return quadforms.represents_subform(q, quadforms.QuadForm(tuple(op["sub"])))


def _group_arg(group) -> str:
    return ",".join(f"{g.sign}:{''.join(map(str, g.perm))}" for g in group)


def cli_argv(op: dict, subgroups) -> list[str]:
    kind = op["kind"]
    if kind == "decide":
        a, b, c = op["octonion"]
        return ["embed", "decide", f"--octonion={a},{b},{c}", f"--quadratic={op['d']}", f"--cubic={op['cubic']}", "--json"]
    if kind == "h1":
        return ["cohomology", "h1", f"--group={_group_arg(subgroups[op['group']])}", f"--lattice={op['lattice']}"]
    return ["form", "isometric", "--left=" + ",".join(map(str, op["left"])), "--right=" + ",".join(map(str, op["right"]))]
