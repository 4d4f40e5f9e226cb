"""One-shot CLI operations: the argv for each drawn input, and the check of
the printed report.  Only schema, theorem, verdict and threshold are read.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import checks
from checks import bracket_of, require


def argv(op) -> list[str]:
    a = op.args
    kind = op.kind.split(".")[1:]
    if kind == ["bounds", "siu"]:
        return ["bounds", "siu", "--n", str(a["n"]), "--jets", ",".join(map(str, a["jets"]))]
    if kind == ["bounds", "reider"]:
        return ["bounds", "reider", "--L2", str(a["L2"]), "--mode", a["mode"], "--divisors", _pairs(a["divisors"])]
    if kind == ["bounds", "bes"]:
        return ["bounds", "bes", "--L2", str(a["L2"]), "--p", str(a["p"]), "--divisors", _pairs(a["divisors"])]
    if kind == ["bounds", "pluri"]:
        kn = [] if a["Kn"] is None else ["--Kn", str(a["Kn"])]
        return ["bounds", "pluri", "--n", str(a["n"]), "--case", a["case"], *kn]
    if kind == ["bounds", "surface"]:
        return ["bounds", "surface", "--jets", ",".join(map(str, a["jets"])), "--L2", str(a["L2"]),
                "--minLC", str(a["minLC"])]
    if kind == ["jets", "main"]:
        return ["jets", "main", "--n", str(a["n"]), "--sigma0", a["sigma0"], "--a", a["a"], "--beta", ",".join(a["beta"]),
                "--min", ",".join(f"{p}={v}" for p, v in a["minY"].items()), "--Ln", a["Ln"]]
    if kind == ["jets", "table"]:
        s = [] if a["s"] is None else ["--s", str(a["s"])]
        return ["jets", "table", *s, "--format", a["format"]]
    if kind == ["jets", "mu"]:
        return ["jets", "mu", "--n", str(a["n"]), "--per-dim", ",".join(f"{p}={v}" for p, v in a["per_dim"].items())]
    if kind == ["matsusaka"]:
        return ["matsusaka", "--n", str(a["n"]), "--Ln", a["Ln"], "--LK", a["LK"], "--LB", a["LB"], "--policy", a["policy"]]
    if kind == ["morse"]:
        return ["morse", "--n", str(a["n"]), "--Fn", a["Fn"], "--FG", a["FG"]]
    if kind == ["mult_ideal"]:
        return ["mult-ideal", "--alpha", ",".join(a["alpha"])]
    if kind == ["lelong"]:
        return ["lelong", "--u", str(a["u"]), "--v", str(a["v"])]
    if kind == ["poly"]:
        extra = ["--k", str(a["k"])] if a["window"] == "b" else ["--N", str(a["N"])]
        return ["poly", "--coeffs", ",".join(map(str, a["coeffs"])), "--window", a["window"], "--m0", str(a["m0"]), *extra]
    if kind == ["ht", "products"]:
        return ["ht", "products", "--selfints", ",".join(a["selfints"]), "--mixed", a["mixed"]]
    if kind == ["ht", "chain"]:
        return ["ht", "chain", "--Ln", a["Ln"], "--LH", a["LH"], "--LnpHp", a["LnpHp"], "--n", str(a["n"]), "--p", str(a["p"])]
    if kind == ["ht", "diag"]:
        return ["ht", "diag", "--lambdas", ",".join(a["lambdas"]), "--p", str(a["p"])]
    raise ValueError(f"unknown CLI operation {op.kind}")


def _pairs(pairs) -> str:
    return ",".join(f"{a}:{b}" for a, b in pairs)


def _check_table(a, stdout: str) -> None:
    """The Markdown surface table against the golden values."""
    t = checks.SURFACE_TABLE
    rows = [f"| spanned | {t['spanned'][0]} | {t['spanned'][1]} |"]
    rows += [f"| separation | {x} | {y} |" for x, y in t["separation"]]
    if a["s"] is not None:
        s = a["s"]
        rows.append(f"| s-jets | {(2 + s) ** 2} | {2 + 3 * s + s * s} |")
    rows.append(f"| constants | spanned for m >= {t['spanned_m']} | very ample for m >= {t['very_ample_m']} |")
    lines = stdout.splitlines()
    require(all(row in lines for row in rows), "surface table lacks a golden row")


def check(op, stdout: str) -> None:
    """Check the stdout of a CLI call that exited 0."""
    a = op.args
    kind = op.kind.split(".", 1)[1]
    if kind == "jets.table" and a["format"] == "table":
        _check_table(a, stdout)
        return
    lines = stdout.splitlines()
    require(len(lines) == 1, "expected exactly one report line")
    doc = json.loads(lines[0])
    require(isinstance(doc.get("schema"), int) and doc["schema"] >= 1, "report has no schema version")
    theorem, verdict, threshold = doc.get("theorem"), doc.get("verdict"), doc.get("threshold")

    def expect(name, want_verdict=None, want_threshold=None):
        require(theorem == name, f"theorem {theorem!r} != {name!r}")
        if want_verdict is not None:
            require(verdict == want_verdict, f"verdict {verdict!r} != {want_verdict!r}")
        if want_threshold is not None:
            require(bracket_of(threshold) == (want_threshold, want_threshold), f"threshold != {want_threshold}")

    if kind == "bounds.siu":
        expect("siu-jets", None, checks.siu_expected(a["n"], a["jets"]))
    elif kind == "bounds.reider":
        expect("reider", checks.reider_expected(a["L2"], a["mode"], a["divisors"])[0], 5 if a["mode"] == "spanned" else 10)
    elif kind == "bounds.bes":
        expect("bes-jets", checks.bes_expected(a["L2"], a["p"], a["divisors"])[0], 4 * a["p"])
    elif kind == "bounds.pluri":
        expect("pluricanonical", None, checks.pluri_expected(a["n"], a["case"], a["Kn"])[0])
    elif kind == "bounds.surface":
        p, v = checks.surface_expected(a["jets"], a["L2"], a["minLC"])
        expect("surface-nadel", v, p)
    elif kind == "jets.main":
        expect("jumping-main")
        checks.check_main_theorem(a["n"], F(a["sigma0"]), F(a["a"]), [F(b) for b in a["beta"]],
                                  {int(p): v for p, v in a["minY"].items()}, F(a["Ln"]), F(1, 10 ** a["tol"]),
                                  verdict, threshold)
    elif kind == "jets.table":
        expect("surface-table", "table")
        require(threshold is None, "table report has a threshold")
    elif kind == "jets.mu":
        expect("mu-invariant")
        checks.check_mu({int(p): v for p, v in a["per_dim"].items()}, a["n"], F(1, 10**12), bracket_of(threshold))
    elif kind == "matsusaka":
        expect("matsusaka-main")
        checks.check_matsusaka(a["n"], F(a["Ln"]), F(a["LB"]), F(a["LK"]), a["policy"], threshold)
    elif kind == "morse":
        expect("morse-existence", None, checks.morse_expected(a["n"], F(a["Fn"]), F(a["FG"])))
    elif kind == "mult_ideal":
        trivial = sum(1 / F(x) for x in a["alpha"]) > 1
        expect("monomial-multiplier-ideal", "trivial" if trivial else "nontrivial")
    elif kind == "lelong":
        expect("density-quadrature", None, a["u"])
    elif kind == "poly":
        expect(f"poly-window-{a['window']}")
        target, last = checks.window_spec(a["window"], a["coeffs"], a["m0"], a.get("N"), a.get("k"))
        checks.check_window(a["coeffs"], a["m0"], target, last, int(bracket_of(threshold).lo))
    elif kind == "ht.products":
        expect("ht-products")
        checks.check_ht_exact([F(s) for s in a["selfints"]], F(a["mixed"]), verdict, bracket_of(threshold))
    elif kind == "ht.chain":
        expect("ht-chain")
        checks.check_chain(F(a["Ln"]), F(a["LH"]), F(a["LnpHp"]), a["n"], a["p"], verdict, bracket_of(threshold))
    elif kind == "ht.diag":
        expect("ht-diag")
        checks.check_diag([F(x) for x in a["lambdas"]], a["p"], verdict, bracket_of(threshold))
    else:
        raise ValueError(f"unknown CLI operation {op.kind}")
