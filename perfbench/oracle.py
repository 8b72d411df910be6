"""Rank oracle and output checks, independent of the fourfold engine.

For a closed simply connected four-manifold M with b2 >= 2 the loop-space
homology H_*(OM; Q) has Poincare series 1 / (1 - b2 t + t^2): the attaching
map of the top cell is inert (Halperin-Lemaire 1987).  By Milnor-Moore and
Poincare-Birkhoff-Witt (Felix-Halperin-Thomas, Rational Homotopy Theory,
GTM 205, section 33) the same series is

    prod_{i odd} (1 + t^i)^{r_{i+1}} / prod_{i even} (1 - t^i)^{r_{i+1}}

with r_k = rk pi_k(M).  The factor for i contributes r_{i+1} t^i plus higher
terms, so the ranks can be solved for degree by degree in integers.  For
b2 <= 1 the manifold is rationally S^4 or CP^2, whose ranks are the elliptic
tables below.

`check_output` compares one command's stdout against these ranks.  It never
imports the program, so it cannot inherit the program's mistakes.
"""

from __future__ import annotations

import json
import re
from math import comb

# Rational homotopy of S^4 (b2 = 0) and CP^2 (b2 = 1); every other rank is 0.
ELLIPTIC = {0: {4: 1, 7: 1}, 1: {2: 1, 5: 1}}


def loop_space_series(b2: int, n: int) -> list[int]:
    """Coefficients a_0..a_n of 1 / (1 - b2 t + t^2)."""
    a = [1, b2]
    while len(a) <= n:
        a.append(b2 * a[-1] - a[-2])
    return a[: n + 1]


def homotopy_ranks(b2: int, max_degree: int) -> dict[int, int]:
    """rk pi_r for 2 <= r <= max_degree."""
    if b2 < 0:
        raise ValueError("b2 must be nonnegative")
    if b2 in ELLIPTIC:
        return {r: ELLIPTIC[b2].get(r, 0) for r in range(2, max_degree + 1)}
    top = max_degree - 1
    a = loop_space_series(b2, top)
    product = [1] + [0] * top  # the PBW product of the factors solved so far
    ranks = {}
    for i in range(1, top + 1):
        rank = a[i] - product[i]
        if rank < 0:
            raise ArithmeticError(f"negative rank in degree {i + 1}")
        ranks[i + 1] = rank
        if not rank:
            continue
        # (1 + t^i)^rank for odd i, (1 - t^i)^-rank for even i
        factor = [
            comb(rank, k) if i % 2 else comb(rank + k - 1, k)
            for k in range(top // i + 1)
        ]
        product = [
            sum(factor[k] * product[m - k * i] for k in range(m // i + 1))
            for m in range(top + 1)
        ]
    return {r: ranks[r] for r in range(2, max_degree + 1)}


def _int_keys(mapping) -> dict[int, int]:
    return {int(r): v for r, v in mapping.items()}


def _parse_ranks(items: str) -> dict[int, int]:
    """'2:3, 3:5' -> {2: 3, 3: 5}"""
    pairs = (item.split(":") for item in items.split(",") if item.strip())
    return {int(r): int(v) for r, v in pairs}


def _compare(expected: dict, got: dict, what: str) -> str | None:
    if got != expected:
        bad = sorted(r for r in set(expected) | set(got) if expected.get(r) != got.get(r))
        return (
            f"{what}: degree {bad[0]} has {got.get(bad[0])}, "
            f"oracle says {expected.get(bad[0])}"
        )
    return None


def _check_model_json(text: str, check: dict) -> str | None:
    doc = json.loads(text)
    b2, top = check["b2"], check["max_degree"]
    problem = _compare(homotopy_ranks(b2, top), _int_keys(doc["ranks"]), "ranks")
    if problem:
        return problem
    counts: dict[int, int] = {}
    for g in doc["generators"]:
        counts[g["degree"]] = counts.get(g["degree"], 0) + 1
    return _compare(
        homotopy_ranks(b2, top), {r: counts.get(r, 0) for r in range(2, top + 1)},
        "generator counts",
    )


_VERIFY_LINE = re.compile(r"\[PASS\] b2=(\d+) split \((\d+),(\d+)\)  ranks \{([^}]*)\}")


def _check_verify_text(text: str, check: dict) -> str | None:
    top = check["max_degree"]
    seen = set()
    for match in _VERIFY_LINE.finditer(text):
        b2, plus, minus = (int(match.group(k)) for k in (1, 2, 3))
        got = _parse_ranks(match.group(4))
        problem = _compare(homotopy_ranks(b2, top), got, f"b2={b2} split {plus},{minus}")
        if problem:
            return problem
        seen.add((b2, plus, minus))
    wanted = {(b2, p, b2 - p) for b2 in check["b2s"] for p in range(b2 + 1)}
    if seen != wanted:
        return f"verify reported cells {sorted(seen)}, expected {sorted(wanted)}"
    if not text.rstrip().endswith("all checks passed"):
        return "verify did not end with 'all checks passed'"
    return None


def _check_formula(doc: dict, b2: int) -> str | None:
    formula = _int_keys(doc["formula"])
    oracle = homotopy_ranks(b2, 7)
    if doc["finite_tail"] != (b2 <= 2):
        return f"finite_tail is {doc['finite_tail']} at b2={b2}"
    if doc["finite_tail"]:
        formula = {r: formula.get(r, 0) for r in oracle}
    return _compare({r: oracle[r] for r in formula}, formula, "closed-form table")


def _check_ranks_json(text: str, check: dict) -> str | None:
    return _check_formula(json.loads(text), check["b2"])


def _check_examples_json(text: str, check: dict) -> str | None:
    doc = json.loads(text)
    b2, top = check["b2"], check["max_degree"]
    if doc["meta"]["b2"] != b2:
        return f"example has b2={doc['meta']['b2']}, expected {b2}"
    problem = _check_formula(doc, b2)
    if problem:
        return problem
    if doc["engine"] is None:
        return "engine table missing"
    return _compare(homotopy_ranks(b2, top), _int_keys(doc["engine"]), "engine ranks")


def _check_classify_json(text: str, check: dict) -> str | None:
    doc = json.loads(text)
    if doc["equivalent"] is not True:
        return "congruent forms reported as not equivalent"
    for form in doc["forms"]:
        got = (form["rank"], form["sigma"], form["connected_sum"]["plus"],
               form["connected_sum"]["minus"])
        plus, minus = check["plus"], check["minus"]
        if got != (plus + minus, plus - minus, plus, minus):
            return f"form {form['name']} reported (rank, sigma, p, q) = {got}"
    return None


_PARTIAL = re.compile(r"partial ranks before the guard tripped: \{([^}]*)\}")


def _check_guard(text: str, check: dict) -> str | None:
    match = _PARTIAL.search(text)
    got = _parse_ranks(match.group(1)) if match else {}
    if not got:
        return None
    oracle = homotopy_ranks(check["b2"], max(got))
    return _compare({r: oracle[r] for r in got}, got, "partial ranks")


CHECKS = {
    "model_json": _check_model_json,
    "verify_text": _check_verify_text,
    "ranks_json": _check_ranks_json,
    "examples_json": _check_examples_json,
    "classify_json": _check_classify_json,
    "guard": _check_guard,
    "exit_only": lambda text, check: None,
}


def check_output(text: str, check: dict) -> str | None:
    """None when the stdout agrees with the oracle, else what disagrees."""
    try:
        return CHECKS[check["kind"]](text, check)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
