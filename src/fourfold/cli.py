"""Command-line interface.

Subcommands: `ranks` (closed-form tables, optionally with the model engine's
ranks checked against the loop-space series), `model` (the minimal model
itself), `classify` (rational equivalence of two intersection forms),
`examples` (the classical surface catalog) and `verify` (the full invariant
suite).

Exit codes are a stable contract: 0 success, 1 verification failure, 2 input
error, 3 basis guard exceeded (partial results are still printed).  Identical
inputs produce byte-identical output; JSON is emitted with sorted keys and
rationals rendered as exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import groupby

from . import forms
from .forms import (
    IntersectionForm,
    RankTable,
    algebra_from_split,
    canonical_connected_sum,
    closed_form_ranks,
    complete_intersection_b2,
    hypersurface_b2,
    loop_space_ranks,
    make_form,
    rationally_equivalent,
)
from .gca import DEFAULT_GUARD, BasisTooLarge, format_poly
from .linalg import NotSymmetric
from .sullivan import MinimalModelStage, build, verify_stage

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


class InputError(Exception):
    pass


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


NAMED_FORMS = {
    "s4": (forms.empty_form, "S^4"),
    "cp2": (lambda: forms.diagonal_form([1]), "CP^2"),
    "cp2bar": (lambda: forms.diagonal_form([-1]), "CP^2-bar"),
    "hyperbolic": (forms.hyperbolic_form, "S^2xS^2"),
    "s2xs2": (forms.hyperbolic_form, "S^2xS^2"),
    "e8": (forms.e8_form, "E8"),
    "k3": (forms.k3_form, "K3"),
}


def _load_form_file(path: str) -> tuple[IntersectionForm, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read form file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise InputError(f"form file {path} cannot be parsed as JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InputError(f'form file {path} must be an object with a "matrix" key')
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InputError(f"form file {path}: matrix must be a list of rows")
    try:
        form = make_form(matrix)
    except (ValueError, NotSymmetric) as exc:
        raise InputError(f"form file {path}: {exc}") from exc
    label = doc.get("name") if isinstance(doc.get("name"), str) else path
    return form, label


def _resolve_form_source(text: str) -> tuple[IntersectionForm, str]:
    """A form source: builtin name, diag:…, sum:p,q, or a JSON file path."""
    key = text.lower()
    if key in NAMED_FORMS:
        factory, label = NAMED_FORMS[key]
        return factory(), label
    if key.startswith("diag:"):
        try:
            entries = [int(x) for x in text[5:].split(",") if x.strip()]
            return forms.diagonal_form(entries), f"diag({text[5:]})"
        except ValueError as exc:
            raise InputError(f"bad diagonal form {text!r}: {exc}") from exc
    if key.startswith("sum:"):
        try:
            p, q = (int(x) for x in text[4:].split(","))
            if p < 0 or q < 0:
                raise ValueError("negative counts")
            return forms.connected_sum_form(p, q), f"#{p} CP^2 # {q} CP^2-bar"
        except ValueError as exc:
            raise InputError(f"bad connected sum {text!r}: {exc}") from exc
    return _load_form_file(text)


def _parse_split(text: str) -> tuple[int, int]:
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"--split expects P,Q integers, got {text!r}") from exc
    if p < 0 or q < 0:
        raise InputError("--split entries must be nonnegative")
    return p, q


def _resolve_source(args) -> tuple[str, int, int, int]:
    """Resolve --b2/--split/--form into (label, b2, plus, minus)."""
    if args.form is not None and args.b2 is not None:
        raise InputError("give exactly one of --b2 or --form")
    if args.form is not None and args.split is not None:
        raise InputError("--split goes with --b2; a --form file fixes its own split")
    if args.form is not None:
        form, label = _load_form_file(args.form)
        return label, form.b2, form.b2_plus, form.b2_minus
    if args.b2 is None:
        raise InputError("a source is required: --b2 N or --form PATH")
    if args.b2 < 0:
        raise InputError("--b2 must be nonnegative")
    if args.split is not None:
        plus, minus = _parse_split(args.split)
        if plus + minus != args.b2:
            raise InputError(f"--split {args.split} does not add up to b2={args.b2}")
    else:
        plus, minus = args.b2, 0
    return f"b2={args.b2}", args.b2, plus, minus


def _meta(b2: int, plus: int, minus: int, max_degree: int) -> dict:
    return {
        "b2": b2,
        "b2plus": plus,
        "b2minus": minus,
        "sigma": plus - minus,
        "max_degree": max_degree,
    }


def _check_engine_options(args) -> None:
    if args.max_degree < 2:
        raise InputError(f"--max-degree must be at least 2, got {args.max_degree}")
    if args.guard < 0:
        raise InputError(f"--guard must be nonnegative, got {args.guard}")


def _tail_note(table: RankTable) -> str:
    if table.finite_tail:
        return "all unlisted degrees have rank 0"
    return "degrees without a closed form are omitted (rationally hyperbolic)"


# ------------------------------------------------------------------- ranks


def _rank_rows(formula: RankTable, engine: RankTable | None):
    degrees = set(formula.ranks)
    if engine is not None:
        degrees |= set(engine.ranks)
    rows = []
    for r in sorted(degrees):
        frank = formula.rank(r)
        erank = engine.rank(r) if engine is not None else None
        rows.append((r, frank, erank))
    return rows


def _mismatches(b2: int, engine: RankTable, max_degree: int) -> dict:
    """Engine degrees whose rank differs from the loop-space series: r -> series rank."""
    expected = loop_space_ranks(b2, max_degree)
    return {r: expected[r] for r, v in engine.ranks.items() if v != expected[r]}


def cmd_ranks(args) -> int:
    label, b2, plus, minus = _resolve_source(args)
    formula = closed_form_ranks(b2)
    engine_table = None
    agreement = None
    if args.engine:
        _check_engine_options(args)
        _, engine_table, _ = build(
            algebra_from_split(plus, minus), args.max_degree, guard=args.guard
        )
        bad = _mismatches(b2, engine_table, args.max_degree)
        agreement = not bad
    rows = _rank_rows(formula, engine_table)
    if args.format == "json":
        doc = {
            "command": "ranks",
            "meta": _meta(b2, plus, minus, args.max_degree),
            "formula": {str(r): v for r, v in formula.ranks.items()},
            "finite_tail": formula.finite_tail,
            "engine": None
            if engine_table is None
            else {str(r): v for r, v in engine_table.ranks.items()},
            "agreement": agreement,
        }
        _emit_json(doc)
    else:
        print(f"homotopy group ranks for {label}")
        if engine_table is None:
            print("  r   rk pi_r")
            for r, f, _ in rows:
                print(f"  {r:<3} {f if f is not None else '-'}")
        else:
            print("  r   formula   engine    verdict")
            for r, f, e in rows:
                verdict = "-" if e is None else ("MISMATCH" if r in bad else "ok")
                ftxt = "-" if f is None else str(f)
                etxt = "-" if e is None else str(e)
                print(f"  {r:<3} {ftxt:<9} {etxt:<9} {verdict}")
        print(f"  ({_tail_note(formula)})")
    if agreement is False:
        return EXIT_VERIFICATION
    return EXIT_OK


# ------------------------------------------------------------------- model


def _json_block(brackets: str, items: list, depth: int) -> str:
    """`items` in `brackets` at nesting `depth`, laid out as `json.dumps(indent=2)` does."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def model_document(stage: MinimalModelStage, table: RankTable, meta: dict) -> str:
    """The model's JSON text, byte for byte `json.dumps(doc, indent=2, sort_keys=True)`.

    Rendered directly, since with `indent` set `json` falls back to its
    pure-Python encoder.  Each [name, exponent] factor is rendered once and
    reused; string leaves go through `json.dumps` (the C string encoder).
    """
    names = [json.dumps(g.name) for g in stage.gens]
    factors: dict = {}  # (generator, exponent) -> rendered factor
    # One template for every term: its monomial is never empty (degree >= 3).
    term = _json_block("{}", ['"coeff": %s', '"monomial": ' + _json_block("[]", ["%s"], 5)], 4)
    comma = ",\n" + "  " * 6
    generators = []
    for i, g in enumerate(stage.gens):
        terms = []
        for mono, coeff in sorted(stage.diff.image(i).terms.items()):
            monomial = []
            for j, run in groupby(mono):
                key = (j, len(list(run)))
                if key not in factors:
                    factors[key] = _json_block("[]", [names[j], str(key[1])], 6)
                monomial.append(factors[key])
            terms.append(term % (json.dumps(str(coeff)), comma.join(monomial)))
        differential = _json_block("[]", terms, 3)
        generators.append(_json_block("{}", [
            f'"degree": {g.degree}', f'"differential": {differential}', f'"name": {names[i]}'
        ], 2))
    fields = {"generators": _json_block("[]", generators, 1)}
    ranks = {str(r): v for r, v in table.ranks.items()}
    for key, doc in (("meta", meta), ("ranks", ranks)):  # flat dicts of ints
        pairs = [f"{json.dumps(k)}: {v}" for k, v in sorted(doc.items())]
        fields[key] = _json_block("{}", pairs, 1)
    return _json_block("{}", [f"{json.dumps(k)}: {v}" for k, v in fields.items()], 0)


def cmd_model(args) -> int:
    label, b2, plus, minus = _resolve_source(args)
    _check_engine_options(args)
    stage, table, _ = build(
        algebra_from_split(plus, minus), args.max_degree, guard=args.guard
    )
    meta = _meta(b2, plus, minus, args.max_degree)
    if args.format == "json":
        print(model_document(stage, table, meta))
    else:
        print(
            f"minimal model of {label} (split {plus},{minus}, sigma {plus - minus}) "
            f"through degree {args.max_degree}"
        )
        if not len(stage.gens):
            print("  no generators below degree", args.max_degree + 1)
        for i, g in enumerate(stage.gens):
            image = stage.diff.image(i)
            print(f"  {g.name} (degree {g.degree})  d = {format_poly(stage.gens, image)}")
        ranks = ", ".join(f"pi_{r}={v}" for r, v in sorted(table.ranks.items()))
        print(f"  ranks: {ranks}")
    bad = _mismatches(b2, table, args.max_degree)
    if bad:
        r = min(bad)
        print(
            f"error: the engine gives rk pi_{r} = {table.ranks[r]}, "
            f"the loop-space series {bad[r]}",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


# ----------------------------------------------------------------- classify


def cmd_classify(args) -> int:
    first, label_a = _resolve_form_source(args.first)
    second, label_b = _resolve_form_source(args.second)
    equivalent = rationally_equivalent(first, second)
    reps = [canonical_connected_sum(first), canonical_connected_sum(second)]
    if args.format == "json":
        doc = {
            "command": "classify",
            "equivalent": equivalent,
            "forms": [
                {
                    "name": label,
                    "rank": form.rank,
                    "sigma": form.signature,
                    "connected_sum": {"plus": rep[0], "minus": rep[1]},
                }
                for label, form, rep in (
                    (label_a, first, reps[0]),
                    (label_b, second, reps[1]),
                )
            ],
        }
        _emit_json(doc)
        return EXIT_OK
    for label, form, rep in ((label_a, first, reps[0]), (label_b, second, reps[1])):
        print(
            f"  {label}: rank {form.rank}, sigma {form.signature}, "
            f"connected sum ({rep[0]}, {rep[1]})"
        )
    verdict = "EQUIVALENT" if equivalent else "NOT equivalent"
    print(f"  rational homotopy type: {verdict}")
    return EXIT_OK


# ----------------------------------------------------------------- examples


def cmd_examples(args) -> int:
    which = args.which
    params = args.params
    if which == "hypersurface":
        if params is None:
            raise InputError("hypersurface needs a degree, e.g. `examples hypersurface 3`")
        try:
            d = int(params)
        except ValueError as exc:
            raise InputError(f"bad degree {params!r}") from exc
        if d < 1:
            raise InputError("degree must be positive")
        b2 = hypersurface_b2(d)
        label = f"degree-{d} hypersurface (b2={b2})"
        split = (b2, 0)
    elif which == "ci":
        if params is None:
            raise InputError("ci needs degrees, e.g. `examples ci 2,2`")
        try:
            degrees = [int(x) for x in params.split(",") if x.strip()]
        except ValueError as exc:
            raise InputError(f"bad degree list {params!r}") from exc
        if not degrees or any(d < 1 for d in degrees):
            raise InputError("degrees must be positive integers")
        b2 = complete_intersection_b2(degrees)
        label = f"complete intersection {tuple(degrees)} (b2={b2})"
        split = (b2, 0)
    elif which == "k3":
        if params is not None:
            raise InputError(f"k3 takes no parameter, got {params!r}")
        form = forms.k3_form()
        b2 = form.b2
        label = f"K3 surface (b2={b2}, sigma={form.signature})"
        split = (form.b2_plus, form.b2_minus)
    elif which == "connected-sum":
        if params is None:
            raise InputError("connected-sum needs p,q, e.g. `examples connected-sum 2,1`")
        p, q = _parse_split(params)
        b2 = p + q
        label = f"#{p} CP^2 # {q} CP^2-bar (b2={b2})"
        split = (p, q)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown example {which!r}")
    args.b2 = b2
    args.form = None
    args.split = f"{split[0]},{split[1]}"
    if args.engine:
        _check_engine_options(args)
    if args.format != "json":
        print(f"{label}")
    return cmd_ranks(args)


# ------------------------------------------------------------------- verify


def _verify_one(split: tuple[int, int], max_degree: int, guard: int):
    stage, table, _ = build(algebra_from_split(*split), max_degree, guard=guard)
    report = verify_stage(stage, guard=guard)
    return table, [f"{check.name}: {check.detail}" for check in report.failures()]


def cmd_verify(args) -> int:
    _check_engine_options(args)
    if args.b2 is not None:
        if args.b2 < 0:
            raise InputError("--b2 must be nonnegative")
        b2_range = [args.b2]
    else:
        b2_range = list(range(0, 7))
    any_failure = False
    for b2 in b2_range:
        split_list = (
            [(p, b2 - p) for p in range(b2 + 1)] if args.all_splits else [(b2, 0)]
        )
        tables = []
        for split in split_list:
            table, failures = _verify_one(split, args.max_degree, args.guard)
            tables.append(table)
            status = "PASS" if not failures else "FAIL"
            ranks = ", ".join(f"{r}:{v}" for r, v in sorted(table.ranks.items()))
            print(f"  [{status}] b2={b2} split ({split[0]},{split[1]})  ranks {{{ranks}}}")
            for f in failures:
                print(f"         {f}")
                any_failure = True
        if args.all_splits and any(t.ranks != tables[0].ranks for t in tables):
            print(f"  [FAIL] b2={b2}: rank table depends on the split")
            any_failure = True
        elif args.all_splits and len(tables) > 1:
            print(f"  [PASS] b2={b2}: all {len(tables)} splits give identical tables")
    if any_failure:
        print("verification FAILED")
        return EXIT_VERIFICATION
    print("all checks passed")
    return EXIT_OK


# -------------------------------------------------------------------- parser


def _add_source_options(sub) -> None:
    sub.add_argument("--b2", type=int, default=None, help="second Betti number")
    sub.add_argument(
        "--split",
        default=None,
        metavar="P,Q",
        help="signature split b2+ and b2- (default: all plus)",
    )
    sub.add_argument("--form", default=None, metavar="PATH", help="JSON form file")


def _add_engine_options(sub, default_degree: int = 5) -> None:
    sub.add_argument(
        "--max-degree", type=int, default=default_degree, metavar="D",
        help=f"build stages through this degree (default {default_degree})",
    )
    sub.add_argument(
        "--guard", type=int, default=DEFAULT_GUARD, metavar="N",
        help="largest allowed monomial basis per degree",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourfold",
        description=(
            "Ranks of rational homotopy groups of closed oriented simply "
            "connected four-manifolds, computed from intersection-form data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ranks = sub.add_parser("ranks", help="closed-form rank table, optional engine check")
    _add_source_options(ranks)
    _add_engine_options(ranks)
    ranks.add_argument("--engine", action="store_true", help="cross-check with the model engine")
    ranks.add_argument("--format", choices=("table", "json"), default="table")
    ranks.set_defaults(func=cmd_ranks)

    model = sub.add_parser("model", help="construct the minimal model")
    _add_source_options(model)
    _add_engine_options(model)
    model.add_argument("--format", choices=("table", "json"), default="table")
    model.set_defaults(func=cmd_model)

    classify = sub.add_parser("classify", help="compare two forms up to rational equivalence")
    classify.add_argument("first", help="form: name, diag:…, sum:p,q or JSON path")
    classify.add_argument("second", help="form: name, diag:…, sum:p,q or JSON path")
    classify.add_argument("--format", choices=("table", "json"), default="table")
    classify.set_defaults(func=cmd_classify)

    examples = sub.add_parser("examples", help="rank tables for the classical surfaces")
    examples.add_argument(
        "which", choices=("hypersurface", "ci", "k3", "connected-sum")
    )
    examples.add_argument("params", nargs="?", default=None)
    _add_engine_options(examples)
    examples.add_argument("--engine", action="store_true")
    examples.add_argument("--format", choices=("table", "json"), default="table")
    examples.set_defaults(func=cmd_examples)

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--b2", type=int, default=None, help="restrict to one rank")
    verify.add_argument("--all-splits", action="store_true", help="try every signature split")
    _add_engine_options(verify, default_degree=4)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except BasisTooLarge as exc:
            print(f"error: {exc}", file=sys.stderr)
            partial = exc.partial_ranks.ranks if exc.partial_ranks is not None else {}
            if partial:
                ranks = ", ".join(f"{r}:{v}" for r, v in sorted(partial.items()))
                print(f"partial ranks before the guard tripped: {{{ranks}}}")
            return EXIT_GUARD
        finally:
            if sys.stdout is not None:  # None when started with stdout closed
                sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout (`| head`): it chose to stop
        # Point stdout at devnull, so that the interpreter's final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
