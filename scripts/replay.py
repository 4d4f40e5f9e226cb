#!/usr/bin/env python3
"""Replay the CLI goldens and a seeded corpus of library calls against the
recorded bytes.

    PYTHONPATH=src python scripts/replay.py           # check; exits 1 on a mismatch
    PYTHONPATH=src python scripts/replay.py --record  # rewrite replay_hashes.json

Stdlib only, so it runs under every supported interpreter, with or without
pytest.  It runs every command of ``tests/cli_golden.json`` through
``cli.main`` (at the default tolerance) and compares stdout byte for byte;
then, for each family, it takes the SHA-256 of the reprs of a fixed, seeded
list of library calls at tolerances 1e-12..1e-1000 and compares it with
``replay_hashes.json``.  It prints one line per family.  A change that moves
a family's values re-records its hash and declares it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Iterator

from posbounds import cli
from posbounds.convexity import ht_products
from posbounds.core import Bracket, floor_powers, grid_bits, iroot, nth_root_bracket, pow_bracket
from posbounds.jumping import (
    cn_constant, main_theorem_check, mu_invariant, recursion_bound, sigma_sequence,
)
from posbounds.lelong import ParamCurve, lelong_numeric

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "cli_golden.json"
HASHES = Path(__file__).with_name("replay_hashes.json")
TOLS = [F(1, 10**12), F(1, 10**100), F(1, 10**300), F(1, 10**1000)]


def _fraction(rng: random.Random, top: int) -> F:
    return F(rng.randrange(1, top), rng.randrange(1, top))


def _iroot() -> Iterator[object]:
    rng = random.Random(1)
    for q in [*range(2, 21), 24, 32, 40, 64, 100]:
        for bits in (40, 64, 100, 200, 400, 1000, 3322):  # bits of the root
            r = rng.getrandbits(bits) | 1 << bits - 1
            for a in (*[rng.getrandbits(q * bits) | 1 << q * bits - 1 for _ in range(4)],
                      r**q - 1, r**q, r**q + 1):
                yield iroot(a, q)


def _floor_powers() -> Iterator[object]:
    rng = random.Random(2)
    for tol in TOLS:
        for n in [*range(2, 13), 16, 32]:
            for r in (_fraction(rng, 10**9) / 10**9, _fraction(rng, 10**30), _fraction(rng, 10)**n):
                yield floor_powers(r.numerator, r.denominator, n, grid_bits(tol))


def _nth_root_bracket() -> Iterator[object]:
    rng = random.Random(3)
    for tol in TOLS:
        for q in range(2, 17):
            yield nth_root_bracket(_fraction(rng, 10**12), q, tol)
        yield nth_root_bracket(F(7, 3) ** 5, 5, tol)  # a perfect power: a point


def _pow_bracket() -> Iterator[object]:
    rng = random.Random(4)
    for tol in TOLS:
        for _ in range(12):
            e = F(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(2, 10))
            yield pow_bracket(_fraction(rng, 10**6), e, tol)


def _sigma_sequence() -> Iterator[object]:
    rng = random.Random(5)
    for tol in TOLS:
        for n in (2, 3, 5, 8, 12, 16, 32):
            sigma0 = F(rng.randrange(1, 20), rng.randrange(1, 4))
            yield sigma_sequence(sigma0, sigma0 + _fraction(rng, 100), n, tol).sigma_p


def _cn_constant() -> Iterator[object]:
    for tol in TOLS:
        for n in [*range(2, 13), 16, 32]:
            yield cn_constant(n, tol)


def _mu_invariant() -> Iterator[object]:
    rng = random.Random(6)
    for tol in TOLS:
        for n in (2, 3, 4, 6):
            yield mu_invariant({p: rng.randrange(1, 10**6) for p in range(1, n + 1)}, n, tol)


def _ht_products() -> Iterator[object]:
    rng = random.Random(7)
    for tol in TOLS:
        for n in (2, 3, 4):
            points = [_fraction(rng, 50) for _ in range(n)]
            boxes = [Bracket(x, x + F(1, rng.randrange(1, 9))) for x in points]
            mixed = _fraction(rng, 50)
            yield ht_products(points, mixed, tol)
            yield ht_products(boxes, mixed, tol)


def _main_theorem_check() -> Iterator[object]:
    rng = random.Random(8)
    for tol in TOLS:
        for n in (2, 3, 4, 6, 12):
            beta = [F(p, n) for p in range(n)]
            minY = {p: rng.randrange(1, 10**4) for p in range(1, n)}
            yield main_theorem_check(n, rng.randrange(1, 9), _fraction(rng, 10), beta, minY,
                                     rng.randrange(10, 10**3), tol)


def _recursion_bound() -> Iterator[object]:
    for tol in TOLS:
        yield recursion_bound(8, 1, 1, [0, F(1, 4), F(1, 2)], 2, 2, tol)
        yield recursion_bound(5, 3, F(1, 2), [0, F(1, 3)], 7, 40, tol)
        yield recursion_bound(4, 2, F(2, 3), [0, F(1, 5), F(2, 5)], 3, 9, tol)


def _curve_density() -> Iterator[object]:
    for tol in TOLS:
        for u, v in ((1, 2), (2, 3), (3, 5), (6, 7)):
            yield lelong_numeric(ParamCurve(u, v), [F(1, 2), F(1, 10), F(1, 1000)], tol)


FAMILIES: dict[str, Callable[[], Iterator[object]]] = {
    "iroot": _iroot,
    "floor_powers": _floor_powers,
    "nth_root_bracket": _nth_root_bracket,
    "pow_bracket": _pow_bracket,
    "sigma_sequence": _sigma_sequence,
    "cn_constant": _cn_constant,
    "mu_invariant": _mu_invariant,
    "ht_products": _ht_products,
    "main_theorem_check": _main_theorem_check,
    "recursion_bound": _recursion_bound,
    "curve_density": _curve_density,
}


def family_hash(name: str) -> str:
    """SHA-256 of the reprs of the family's results, one per line."""
    digest = hashlib.sha256()
    for result in FAMILIES[name]():
        digest.update(repr(result).encode() + b"\n")
    return digest.hexdigest()


def golden_mismatches() -> list[str]:
    """The golden commands whose exit code or stdout differs from the record."""
    os.environ.pop("POSBOUNDS_TOL", None)
    bad = []
    for command, want in json.loads(GOLDEN.read_text()).items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(shlex.split(command))
        if code != cli.EXIT_OK or out.getvalue() != want:
            bad.append(command)
    return bad


def main(argv: list[str]) -> int:
    if argv not in ([], ["--record"]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    hashes = {name: family_hash(name) for name in FAMILIES}
    if argv:
        HASHES.write_text(json.dumps(hashes, indent=1) + "\n")
        print(f"recorded {len(hashes)} family hashes in {HASHES.name}")
        return 0
    failed = 0
    bad = golden_mismatches()
    print(f"cli goldens: {'MISMATCH ' + ', '.join(bad) if bad else 'ok'}")
    failed += bool(bad)
    recorded = json.loads(HASHES.read_text())
    for name, got in hashes.items():
        ok = recorded.get(name) == got
        print(f"{name}: {got[:16]} {'ok' if ok else 'MISMATCH, recorded ' + str(recorded.get(name))}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
