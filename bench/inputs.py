"""Seeded operation generators for the three workloads.

This module does not import posbounds: the inputs depend only on the seed.
A run draws one pass after another from a single ``random.Random(seed)``.
Every pass has the same fixed composition of operation kinds.  Only the
parameters inside each kind, and the order, come from the seed.  The share
of each kind, and so the failure share from defect D1, is the same for
every seed.

Arguments are JSON values; rationals are strings such as ``"3/7"``, big
integers are hex strings (decimal conversion is capped at 4,300 digits) and
a tolerance is the exponent ``E`` of ``10**-E``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import product_space_numbers

WORKLOADS = ("cli-oneshot", "library-sweep", "tight-tolerance")


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict = field(default_factory=dict)
    scale: str | None = None  # per-layer scaling key for fixed-size operations

    def to_json(self) -> dict:
        return {"kind": self.kind, "args": self.args, "scale": self.scale}


def q(x) -> str:
    return str(Fraction(x))


def _rational(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    """A rational in (lo, hi] with denominator at most max_den."""
    while True:
        den = rng.randint(1, max_den)
        first, last = math.floor(lo * den) + 1, math.floor(hi * den)
        if first <= last:
            return Fraction(rng.randint(first, last), den)


def _pairs(rng, ld: tuple[int, int], d2: tuple[int, int]) -> list[list[int]]:
    return [[rng.randint(*ld), rng.randint(*d2)] for _ in range(rng.randint(0, 3))]


def _matsusaka(rng, n: int) -> dict:
    # The default (binomial) policy: at n >= 7 the exact multiple has more
    # than 4,300 decimal digits for every drawn input, so D1 fires there.
    return {
        "n": n,
        "Ln": q(rng.randint(1, 9)),
        "LK": q(rng.randint(0, 10)),
        "LB": q(rng.randint(0, 5)),
        "policy": "demailly",
    }


def canonical_matsusaka(n: int) -> dict:
    return {"n": n, "Ln": "1", "LK": "2", "LB": "0", "policy": "demailly"}


def _surface_golden(rng) -> dict:
    # n = 2, B = 0, lambda = 1: the bound is 4 (LK + 4 Ln)^2 / Ln.
    return {"n": 2, "Ln": q(rng.randint(1, 100)), "LK": q(_rational(rng, Fraction(0), Fraction(20), 10)),
            "LB": "0", "policy": "1"}


def _main_theorem(rng, n: int, Ln: int, minY: dict | None, tol: int) -> dict:
    sigma0 = _rational(rng, Fraction(Ln, 10), Fraction(9 * Ln, 10), 7)
    steps = sorted(rng.sample(range(1, 17), n - 1))
    args = {
        "n": n,
        "sigma0": q(sigma0),
        "a": rng.choice(["0", "1/2", "1"]),
        "beta": ["0"] + [q(Fraction(k, 16)) for k in steps],
        "Ln": q(Ln),
        "tol": tol,
    }
    if minY is not None:
        args["minY"] = minY
    return args


def _poly(rng, max_deg: int) -> list[int]:
    d = rng.randint(1, max_deg)
    return [rng.randint(0, 20) for _ in range(d)] + [rng.randint(1, 20)]


def _windows(rng, max_N: int) -> list[Op]:
    """One drawn search per window lemma.  Nonnegative coefficients keep
    P >= 0 and nondecreasing on [0, oo), the lemmas' precondition."""
    log_N = lambda lo: int(round(10 ** rng.uniform(math.log10(lo), math.log10(max_N))))
    ops = []
    c = _poly(rng, 5)
    ops.append(Op("numpoly.window", {"window": "a", "coeffs": c, "m0": rng.randint(0, 8), "N": log_N(1)}))
    c = _poly(rng, 5)
    ops.append(Op("numpoly.window", {"window": "b", "coeffs": c, "m0": rng.randint(0, 8), "k": rng.randint(1, 40)}))
    c = _poly(rng, 5)
    d = len(c) - 1
    ops.append(Op("numpoly.window", {"window": "c", "coeffs": c, "m0": rng.randint(0, 8),
                                     "N": max(2 * d * d, log_N(2 * d * d))}))
    return ops


def _coprime_curve(rng) -> dict:
    while True:
        u, v = sorted((rng.randint(1, 7), rng.randint(1, 7)))
        if math.gcd(u, v) == 1:
            return {"u": u, "v": v}


def _selfints_mixed(rng, n: int) -> dict:
    vals = [rng.randint(1, 100) for _ in range(n)]
    return {"selfints": [q(v) for v in vals], "mixed": q(rng.randint(0, 120))}


def _chain(rng) -> dict:
    n = rng.randint(2, 4)
    return {"Ln": q(rng.randint(1, 30)), "LH": q(rng.randint(1, 30)), "LnpHp": q(rng.randint(1, 60)),
            "n": n, "p": rng.randint(1, n)}


def _diag(rng) -> dict:
    n = rng.randint(1, 4)
    return {"lambdas": [q(_rational(rng, Fraction(0), Fraction(10), 4)) for _ in range(n)],
            "p": rng.randint(0, n)}


def cli_pass(rng: random.Random) -> list[Op]:
    """25 one-shot CLI invocations at README-like sizes."""
    ops = [
        Op("cli.bounds.siu", {"n": rng.randint(1, 4), "jets": [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]}),
        Op("cli.bounds.reider", {"L2": rng.randint(1, 20), "mode": rng.choice(["spanned", "separation"]),
                                 "divisors": _pairs(rng, (0, 3), (-3, 1))}),
        Op("cli.bounds.bes", {"L2": rng.randint(1, 30), "p": rng.randint(1, 4), "divisors": _pairs(rng, (0, 8), (-3, 5))}),
        Op("cli.bounds.pluri", {"n": rng.randint(1, 4), "case": rng.choice(["general_type", "fano"]),
                                "Kn": rng.choice([None, rng.randint(1, 10)])}),
        Op("cli.bounds.surface", {"jets": [rng.randint(0, 2) for _ in range(rng.randint(1, 2))],
                                  "L2": rng.randint(1, 60), "minLC": rng.randint(1, 60)}),
        Op("cli.jets.main", _main_theorem(rng, (n := rng.randint(2, 3)), rng.randint(2, 200),
                                          {str(p): rng.randint(1, 3000) for p in range(1, n)}, 12)),
        Op("cli.jets.table", {"s": rng.choice([None, rng.randint(0, 5)]), "format": rng.choice(["json", "table"])}),
        Op("cli.jets.mu", {"n": (n := rng.randint(1, 4)), "per_dim": {str(p): rng.randint(1, 10**4) for p in range(1, n + 1)}}),
        Op("cli.matsusaka", _surface_golden(rng)),
        Op("cli.morse", {"n": rng.randint(1, 5), "Fn": q(rng.randint(1, 50)), "FG": q(rng.randint(0, 50))}),
        Op("cli.mult_ideal", {"alpha": [q(_rational(rng, Fraction(0), Fraction(5), 4)) for _ in range(rng.randint(1, 2))]}),
        Op("cli.lelong", _coprime_curve(rng)),
        Op("cli.ht.products", _selfints_mixed(rng, rng.randint(1, 4))),
        Op("cli.ht.chain", _chain(rng)),
        Op("cli.ht.diag", _diag(rng)),
    ]
    for n in rng.sample(range(2, 9), 7):
        ops.append(Op("cli.matsusaka", _matsusaka(rng, n)))
    for w in _windows(rng, 1000):
        ops.append(Op("cli.poly", w.args))
    rng.shuffle(ops)
    return ops


BOXES = ((20, 20), (40, 40), (8, 8, 8), (12, 12, 12), (6, 6, 6, 6))
WINDOW_A_N = (1000, 10000, 100000)
CN_SIZES = (8, 16, 32)
POW_TOLS = (12, 100, 300, 1000)
SIGMA_TOLS = (12, 1000)
PRODUCT_SPACES = ((1, 1), (2,), (1, 2), (3,), (1, 1, 1), (2, 2), (1, 3), (1, 1, 2), (4,))


def scaling_ops() -> list[Op]:
    """The fixed-size operations behind the per-layer growth curves."""
    ops = [Op("matsusaka.main", canonical_matsusaka(n), f"matsusaka.main_ms.n-{n}") for n in range(2, 9)]
    ops += [Op("multiplier.ideal", {"alpha": [q(a) for a in box]}, "multiplier.ideal_ms.box-" + "x".join(map(str, box)))
            for box in BOXES]
    ops += [Op("numpoly.window", {"window": "a", "coeffs": [0, 1], "m0": 0, "N": N}, f"numpoly.window_a_ms.N-{N}")
            for N in WINDOW_A_N]
    ops.append(Op("numpoly.window", {"window": "c", "coeffs": [0, 1], "m0": 0, "N": 100000},
                  "numpoly.window_c_ms.N-100000"))
    ops += [Op("jumping.cn_constant", {"n": n, "tol": 12}, f"jumping.cn_constant_ms.n-{n}") for n in CN_SIZES]
    ops += [Op("core.pow_bracket", {"x": "2", "e": "1/7", "tol": t}, f"core.pow_bracket_ms.tol-{t}") for t in POW_TOLS]
    ops += [Op("jumping.sigma_sequence", {"sigma0": "1", "Ln": "2", "n": 8, "tol": t}, f"jumping.sigma_sequence_ms.tol-{t}")
            for t in SIGMA_TOLS]
    return ops


def _fixture(rng) -> dict:
    dims = list(rng.choice(PRODUCT_SPACES))
    coeffs = [rng.randint(1, 6) for _ in dims]
    Ln, _ = product_space_numbers(dims, coeffs)
    args = _main_theorem(rng, sum(dims), Ln, None, 12)
    return {"dims": dims, "coeffs": coeffs, **args}


def library_pass(rng: random.Random) -> list[Op]:
    """48 in-process calls into the bound families; the fixed sizes are
    the heavy part of every pass."""
    scaled = [op for op in scaling_ops() if not op.kind.startswith("core.") and op.kind != "jumping.sigma_sequence"]
    ops = list(scaled)
    ops += [Op("matsusaka.main", _matsusaka(rng, n)) for n in rng.sample(range(2, 9), 7)]
    ops.append(Op("matsusaka.main", _surface_golden(rng)))
    for p, hi in ((2, 24), (3, 8), (4, 4)):
        alpha = [q(_rational(rng, Fraction(1), Fraction(hi), 6)) for _ in range(p)]
        ops.append(Op("multiplier.ideal", {"alpha": alpha}))
    ops += _windows(rng, 100000)
    ops.append(Op("jumping.cn_constant", {"n": rng.randint(2, 32), "tol": 12}))
    ops += [Op("jumping.main_theorem_fixture", _fixture(rng)) for _ in range(2)]
    ops += [
        Op("adjoint.siu_jet_threshold", {"n": rng.randint(1, 6), "jets": [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]}),
        Op("adjoint.pluricanonical_bounds", {"n": rng.randint(1, 6), "case": rng.choice(["general_type", "fano"]),
                                             "Kn": rng.choice([None, rng.randint(1, 10)])}),
        Op("adjoint.surface_nadel_criterion", {"jets": [rng.randint(0, 3) for _ in range(rng.randint(1, 3))],
                                               "L2": rng.randint(1, 80), "minLC": rng.randint(1, 80)}),
        Op("adjoint.reider_check", {"L2": rng.randint(1, 20), "mode": rng.choice(["spanned", "separation"]),
                                    "divisors": _pairs(rng, (0, 3), (-3, 1))}),
        Op("adjoint.bes_check", {"L2": rng.randint(1, 30), "p": rng.randint(1, 4), "divisors": _pairs(rng, (0, 8), (-3, 5))}),
        Op("convexity.ht_products", _selfints_mixed(rng, rng.randint(1, 5))),
        Op("convexity.diag_form_check", _diag(rng)),
        Op("convexity.morse_existence_threshold", {"n": rng.randint(1, 5), "Fn": q(rng.randint(1, 50)),
                                                   "FG": q(rng.randint(0, 50))}),
        Op("convexity.ht_mixed_chain", _chain(rng)),
        Op("lelong.lelong_numeric", _coprime_curve(rng)),
        Op("lelong.lelong_at", {"components": [[q(_rational(rng, Fraction(0), Fraction(3), 4)), rng.randint(0, 5)]
                                               for _ in range(rng.randint(1, 4))]}),
        Op("lelong.seshadri_upper", {"curves": [[q(rng.randint(0, 30)), rng.randint(1, 6)]
                                                for _ in range(rng.randint(1, 4))]}),
    ]
    rng.shuffle(ops)
    return ops


def _tol_strata(rng) -> list[int]:
    """Three tolerance exponents, one from each third of [12, 1000]: the
    tolerance is log-uniform and every pass covers the whole range."""
    edges = (12, 341, 670, 1001)
    return [rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:])]


def tight_pass(rng: random.Random) -> list[Op]:
    """30 certified-bracket calls with tolerances from 1e-12 to 1e-1000.

    Sizes keep every encoded integer under CPython's 4,300-digit limit, so
    no operation here fails at the seed; D1 is measured by the other two
    workloads."""
    ops = [op for op in scaling_ops() if op.kind in ("core.pow_bracket", "jumping.sigma_sequence")]
    for tol in _tol_strata(rng):
        p, qq = rng.randint(1, 5), rng.randint(2, 9)
        e = Fraction(p, qq) * rng.choice([1, -1])
        ops.append(Op("core.pow_bracket", {"x": q(_rational(rng, Fraction(0), Fraction(1000), 1000)), "e": q(e), "tol": tol}))
    for tol in _tol_strata(rng):
        ops.append(Op("core.nth_root_bracket", {"r": q(_rational(rng, Fraction(0), Fraction(10**6), 1000)),
                                                "q": rng.randint(2, 12), "tol": tol}))
    for tol in _tol_strata(rng):
        qq = rng.randint(2, 9)
        ops.append(Op("core.iroot", {"a": hex(rng.randrange(10 ** (tol * qq - 1), 10 ** (tol * qq))), "q": qq, "tol": tol}))
    for tol in _tol_strata(rng):
        ops.append(Op("jumping.cn_constant", {"n": rng.randint(2, 6), "tol": tol}))
    for tol in _tol_strata(rng):
        Ln = rng.randint(2, 1000)
        ops.append(Op("jumping.sigma_sequence", {"sigma0": q(_rational(rng, Fraction(Ln, 10), Fraction(9 * Ln, 10), 7)),
                                                 "Ln": q(Ln), "n": rng.randint(2, 8), "tol": tol}))
    for tol in _tol_strata(rng):
        n = rng.randint(2, 5)
        minY = {str(p): rng.randint(1, 5000) for p in range(1, n)}
        ops.append(Op("jumping.main_theorem_check", _main_theorem(rng, n, rng.randint(2, 500), minY, tol)))
    for tol in _tol_strata(rng):
        n = rng.randint(1, 6)
        ops.append(Op("jumping.mu_invariant", {"n": n, "per_dim": {str(p): rng.randint(1, 10**6) for p in range(1, n + 1)},
                                               "tol": tol}))
    for tol in _tol_strata(rng):
        n = rng.randint(2, 3)
        lows = [_rational(rng, Fraction(1), Fraction(100), 9) for _ in range(n)]
        sel = [[q(lo), q(lo + _rational(rng, Fraction(0), Fraction(5), 9))] for lo in lows]
        # mixed lands above, inside or below the range of geometric means.
        gm_lo = math.prod(lows) ** (1.0 / n)
        regime = rng.choice([Fraction(3, 2), Fraction(1), Fraction(1, 2)])
        mixed = Fraction(round(gm_lo * 64)) / 64 * regime
        ops.append(Op("convexity.ht_products_brackets", {"selfints": sel, "mixed": q(mixed), "tol": tol}))
    rng.shuffle(ops)
    return ops


PASSES = {"cli-oneshot": cli_pass, "library-sweep": library_pass, "tight-tolerance": tight_pass}


def passes(workload: str, seed: int | str):
    """Endless sequence of passes for one run, determined by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = PASSES[workload]
    while True:
        yield make(rng)
