"""Byte pins at tolerance 1e-1000.

The goldens in ``cli_golden.json`` run at tol 1e-12, so their dyadic ends
have about 40-bit denominators.  Here every result has denominators of
thousands of bits, where a wrong reduction of num / (c 2^k) would show: the
SHA-256 of each command's stdout, and of the ``repr`` of library results, is
pinned as it was printed before the dyadic constructor replaced
``Fraction(num, c << k)``; the ht-products pins as printed once the slack
became the roots of the products of the self-intersections' ends.
"""

import hashlib
import shlex
from fractions import Fraction as F

import pytest

from posbounds.cli import EXIT_OK, main
from posbounds.convexity import ht_products
from posbounds.core import Bracket, pow_bracket
from posbounds.jumping import cn_constant, recursion_bound, sigma_sequence

TOL = F(1, 10**1000)

CLI_PINS = {
    # p = 1 positive, p = 2 negative, p = 3 missing
    "jets main --n 4 --sigma0 8 --a 1 --beta 0,1/27,1/2,1 --min 1=100,2=1 --Ln 64":
        "ebb440bc81535b2bd30cc77c30cebd46fb72cedf2f5b1996ece664f31acae312",
    "jets main --n 3 --sigma0 8 --a 1 --beta 0,1/27,1 --min 1=300,2=300 --Ln 64":
        "7d2817bef1bf7192bbd0546dd93acc5cd9eb3c684005c1eba1093808c42b4c9a",
    "ht products --selfints 2,3 --mixed 3":
        "08caf71f243efb7ed29f9b674fd869e2ba0dba25e057f55e2e5c42bbcf836f0c",
    "ht products --selfints 2,3,5 --mixed 2":
        "413521f942f0f039dc2515c4c525b334d39d2d8ae2cf8b94ad5c3c0c0f06fd12",
    "ht products --selfints 4/9,2 --mixed 1":
        "c817e290827a34d9f6f659e098bce0e619a85f310e848fde8fd31feac50613bd",
    "ht products --selfints 4/9,2,3 --mixed 2":
        "77ea12c17b35132807161d0cc0e34303051ad98397929bea73bed87f421e7195",
    "ht products --selfints 8/27,27,5 --mixed 3":
        "643a9bf8738717b31f4c9d2fb1ce0f14a98f2df27f1eec4e42132676d71b617c",
    "ht products --selfints 0,7 --mixed 0":
        "6cdfb263d08650093af74d9d8387cb00d13d74582bd559afae0428e4c62a3e77",
    "jets mu --n 3 --per-dim 1=3,2=9,3=20":
        "8adf1c39f73f4d4448f75ee0a898177e2f9571d60433e4cb559d5ed1db9d329b",
    "jets mu --n 4 --per-dim 1=5,2=12,3=64,4=80":
        "a553e891ca2fb40647d2fae779999df3d68e972091e8c7810c632b6e56134fc3",
    "lelong --u 2 --v 3 --radii 0.1,0.01,0.001":
        "00dcc78e16e7989b4f7fafe14cd023286d433820c6a9e4a9c1ea5ee856d6b903",
}


def library_results() -> dict:
    """Library calls at TOL whose repr is pinned in LIBRARY_PINS."""
    return {
        "sigma_sequence(1, 2, 8)": sigma_sequence(1, 2, 8, TOL).sigma_p,
        "sigma_sequence(8, 64, 3)": sigma_sequence(8, 64, 3, TOL).sigma_p,
        "sigma_sequence(1/3, 7/2, 5)": sigma_sequence(F(1, 3), F(7, 2), 5, TOL).sigma_p,
        "cn_constant(9)": cn_constant(9, TOL),
        "cn_constant(8)": cn_constant(8, TOL),
        "ht_products(brackets)": ht_products(
            [Bracket(F(1), F(2)), Bracket.point(F(4, 9)), Bracket(F(1, 3), F(9, 4))], 2, TOL),
        "ht_products(points, unknown)": ht_products(
            [Bracket(F(4, 9), F(9, 4)), Bracket.point(7)], F(5, 2), TOL),
        "recursion_bound(8, 1, 1, [0, 1/4, 1/2], 2, 2)":
            recursion_bound(8, 1, 1, [0, F(1, 4), F(1, 2)], 2, 2, TOL),
        "recursion_bound(5, 3, 1/2, [0, 1/3], 7, 40)":
            recursion_bound(5, 3, F(1, 2), [0, F(1, 3)], 7, 40, TOL),
        "pow_bracket(3/7, -5/3)": pow_bracket(F(3, 7), F(-5, 3), TOL),
        "pow_bracket(12, -1/2)": pow_bracket(12, F(-1, 2), TOL),
    }


LIBRARY_PINS = {
    "sigma_sequence(1, 2, 8)": "5aeae98a9ff1937be1f5fa4a52f02555f34853dc8b86c93cb5908dc9f63f6779",
    "sigma_sequence(8, 64, 3)": "8392ed98eac84eb26f0c0fc6dc92ae0df894fc0f6dd0be5bf5d5813e807958c4",
    "sigma_sequence(1/3, 7/2, 5)": "5d12e6f38be7608f16d93a8698d98c65a5f2f8bbbd5a8a5e0ba9ff549cef2206",
    "cn_constant(9)": "d2501b894db9c17c55810d512d165b2924f5a416431bb0bfefdf98f61063e2c9",
    "cn_constant(8)": "50865e74df900b9a351a3edc2d389e0ae91e2c93b70aacbb2a233a3a56062708",
    "ht_products(brackets)": "66cbd4f0a8cda1272a431625bbac1b11e25c8b8bf93056a820e8518cc17fd378",
    "ht_products(points, unknown)": "23a8589c7003e1e2607fe1ab7d17de7b828dc0f205a5d901d509d870f267fab9",
    "recursion_bound(8, 1, 1, [0, 1/4, 1/2], 2, 2)": "30bb7d613f261fa3d90c01d3b2f623fe16a59ead98d9014d8eec1fd897d7034d",
    "recursion_bound(5, 3, 1/2, [0, 1/3], 7, 40)": "67d219145889b8b30fcd861ed370e53cd558c875fad55dc00e5ebaea7159f963",
    "pow_bracket(3/7, -5/3)": "63664db8c002481651dbc333cb0e4ddd5adeedf8d7389c5105224f539b134ef1",
    "pow_bracket(12, -1/2)": "17834f1f4fd8fa6c90b2015254f4c7deb10e458f6dd3209f7f074cbb09589703",
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", CLI_PINS)
def test_cli_stdout_at_tol_1e1000_matches_its_pin(capsys, monkeypatch, command):
    monkeypatch.setenv("POSBOUNDS_TOL", "1e-1000")
    assert main(shlex.split(command)) == EXIT_OK
    assert sha(capsys.readouterr().out) == CLI_PINS[command]


def test_library_results_at_tol_1e1000_match_their_pins():
    got = {name: sha(repr(value)) for name, value in library_results().items()}
    assert got == LIBRARY_PINS
