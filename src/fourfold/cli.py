"""Command-line interface.

Subcommands: `ranks` (closed-form tables, optionally with the model engine's
ranks checked against the loop-space series), `model` (the minimal model
itself), `classify` (rational equivalence of two intersection forms),
`examples` (the classical surface catalog) and `verify` (the full invariant
suite).  Every source of a manifold (`--b2`/`--split`, `--form`, a catalog
example, a `verify` split, a `classify` name, `diag:`, `sum:` or file) is
resolved to one `(label, CohomologyAlgebra)`, which every command reads
and `build` takes as it is; a split source builds no matrix.  `_run_engine`
is the one place that builds, for `ranks --engine`, `examples --engine`,
`model` and `verify`; `main` checks `--max-degree` and `--guard` before any
command runs.

Exit codes are a stable contract: 0 success, 1 verification failure, 2 input
error, 3 basis guard exceeded (partial results are still printed).  Identical
inputs produce byte-identical output; JSON is emitted with sorted keys and
rationals rendered as exact "p/q" strings.  `model --format json` is written
to stdout as it is rendered, one generator at a time, so the memory it takes
does not grow with the document.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import Iterator

from . import forms
from .forms import (
    CohomologyAlgebra,
    RankTable,
    algebra_from_split,
    closed_form_ranks,
    cohomology_algebra,
    complete_intersection_split,
    loop_space_mismatches,
    make_form,
    rationally_equivalent,
)
from .gca import format_poly
from .sullivan import DEFAULT_GUARD, BasisTooLarge, MinimalModelStage, build, verify_stage

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


def _load_form_file(path: str) -> tuple[str, CohomologyAlgebra]:
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
    except ValueError as exc:
        raise InputError(f"form file {path}: {exc}") from exc
    label = doc.get("name") if isinstance(doc.get("name"), str) else path
    return label, cohomology_algebra(form)


def _resolve_form_source(text: str) -> tuple[str, CohomologyAlgebra]:
    """A form source: builtin name, diag:…, sum:p,q, or a JSON file path."""
    key = text.lower()
    if key in NAMED_FORMS:
        factory, label = NAMED_FORMS[key]
        return label, cohomology_algebra(factory())
    if key.startswith("diag:"):
        try:
            entries = [int(x) for x in text[5:].split(",") if x.strip()]
            return f"diag({text[5:]})", forms.diagonal_algebra(entries)
        except ValueError as exc:
            raise InputError(f"bad diagonal form {text!r}: {exc}") from exc
    if key.startswith("sum:"):
        algebra = _parse_split(text[4:], "sum:p,q")
        return f"#{algebra.b2_plus} CP^2 # {algebra.b2_minus} CP^2-bar", algebra
    return _load_form_file(text)


def _parse_split(text: str, source: str) -> CohomologyAlgebra:
    """The algebra of the split P,Q in `text`; errors name `source`, where it came from."""
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"{source} expects P,Q integers, got {text!r}") from exc
    if p < 0 or q < 0:
        raise InputError(f"{source} entries must be nonnegative")
    return algebra_from_split(p, q)


def _resolve_source(args) -> tuple[str, CohomologyAlgebra]:
    """Resolve --b2/--split/--form into (label, algebra)."""
    if args.form is not None and args.b2 is not None:
        raise InputError("give exactly one of --b2 or --form")
    if args.form is not None and args.split is not None:
        raise InputError("--split goes with --b2; a --form file fixes its own split")
    if args.form is not None:
        return _load_form_file(args.form)
    if args.b2 is None:
        raise InputError("a source is required: --b2 N or --form PATH")
    if args.b2 < 0:
        raise InputError("--b2 must be nonnegative")
    if args.split is None:
        return f"b2={args.b2}", algebra_from_split(args.b2, 0)
    algebra = _parse_split(args.split, "--split")
    if algebra.b2 != args.b2:
        raise InputError(f"--split {args.split} does not add up to b2={args.b2}")
    return f"b2={args.b2}", algebra


def _meta(algebra: CohomologyAlgebra, max_degree: int) -> dict:
    return {
        "b2": algebra.b2,
        "b2plus": algebra.b2_plus,
        "b2minus": algebra.b2_minus,
        "sigma": algebra.signature,
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


def _run_engine(args, algebra: CohomologyAlgebra):
    """The one place that builds: the stage, its table and the degrees where
    the table differs from the loop-space series."""
    stage, table, _ = build(algebra, args.max_degree, guard=args.guard)
    return stage, table, loop_space_mismatches(algebra.b2, table.ranks)


def _print_ranks(args, label: str, algebra: CohomologyAlgebra) -> int:
    """The rank table of `ranks` and `examples`."""
    formula = closed_form_ranks(algebra.b2)
    engine_table = None
    agreement = None
    if args.engine:
        _, engine_table, bad = _run_engine(args, algebra)
        agreement = not bad
    if args.format == "json":
        doc = {
            "command": "ranks",
            "meta": _meta(algebra, args.max_degree),
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
            for r, f in sorted(formula.ranks.items()):
                print(f"  {r:<3} {f}")
        else:
            print("  r   formula   engine    verdict")
            for r in sorted(set(formula.ranks) | set(engine_table.ranks)):
                f, e = formula.rank(r), engine_table.rank(r)
                verdict = "-" if e is None else ("MISMATCH" if r in bad else "ok")
                ftxt = "-" if f is None else str(f)
                etxt = "-" if e is None else str(e)
                print(f"  {r:<3} {ftxt:<9} {etxt:<9} {verdict}")
        print(f"  ({_tail_note(formula)})")
    if agreement is False:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_ranks(args) -> int:
    label, algebra = _resolve_source(args)
    return _print_ranks(args, label, algebra)


# ------------------------------------------------------------------- model


# The layout `json.dumps(indent=2)` gives an [name, exponent] factor of a
# monomial (depth 6), and the separator between two factors.
_FACTOR = "[\n              %s,\n              %d\n            ]"
_FACTOR_SEP = ",\n            "


def model_document(stage: MinimalModelStage, table: RankTable, meta: dict) -> Iterator[str]:
    """The model's JSON text in pieces, byte for byte `json.dumps(doc, indent=2, sort_keys=True)`.

    Yields one piece per generator, so the whole document is never held in
    memory.  Rendered directly, since with `indent` set `json` falls back to
    its pure-Python encoder.  Each term of a differential (depth 4) is one
    f-string over that layout, and so is each generator (depth 2).  A
    square-free word's factor list joins the exponent-1 factors of its
    letters, rendered once per call; any other word's goes through `groupby`.
    A coefficient is an int or a Fraction (`linalg.exact`), whose text holds
    only digits, "-" and "/", so it needs no escaping; names go through
    `encode_basestring_ascii`, the C routine `json.dumps` calls for a string.
    """
    names = [encode_basestring_ascii(g.name) for g in stage.gens]
    letters = [_FACTOR % (name, 1) for name in names]  # each letter to the power 1
    yield '{\n  "generators": ['
    sep, close = "\n", "]"
    for g, name, image in zip(stage.gens, names, stage.diff.images):
        terms = []
        for mono in sorted(image):
            coeff = image[mono]
            if len(set(mono)) == len(mono):
                factors = _FACTOR_SEP.join([letters[j] for j in mono])
            else:
                factors = _FACTOR_SEP.join(
                    [_FACTOR % (names[j], len(list(run))) for j, run in groupby(mono)]
                )
            terms.append(
                f'\n        {{\n          "coeff": "{coeff!s}",\n          "monomial": [\n'
                f"            {factors}\n          ]\n        }}"
            )
        differential = f'[{",".join(terms)}\n      ]' if terms else "[]"
        yield (
            f'{sep}    {{\n      "degree": {g.degree},\n      "differential": {differential},'
            f'\n      "name": {name}\n    }}'
        )
        sep, close = ",\n", "\n  ]"
    ranks = {str(r): v for r, v in table.ranks.items()}
    meta_text, ranks_text = (  # flat, never empty; without `indent` the C encoder runs
        "{\n    %s\n  }" % json.dumps(doc, sort_keys=True, separators=(",\n    ", ": "))[1:-1]
        for doc in (meta, ranks)
    )
    yield f'{close},\n  "meta": {meta_text},\n  "ranks": {ranks_text}\n}}'


def cmd_model(args) -> int:
    label, algebra = _resolve_source(args)
    stage, table, bad = _run_engine(args, algebra)
    meta = _meta(algebra, args.max_degree)
    if args.format == "json":
        out = sys.stdout
        if out is not None:  # None when started with stdout closed: nothing to write
            out.writelines(model_document(stage, table, meta))  # one write per piece
            out.write("\n")
    else:
        print(
            f"minimal model of {label} (split {algebra.b2_plus},{algebra.b2_minus}, "
            f"sigma {algebra.signature}) "
            f"through degree {args.max_degree}"
        )
        if not len(stage.gens):
            print("  no generators below degree", args.max_degree + 1)
        for i, g in enumerate(stage.gens):
            image = format_poly(stage.gens, stage.diff.images[i])
            print(f"  {g.name} (degree {g.degree})  d = {image}")
        ranks = ", ".join(f"pi_{r}={v}" for r, v in sorted(table.ranks.items()))
        print(f"  ranks: {ranks}")
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
    sides = [_resolve_form_source(args.first), _resolve_form_source(args.second)]
    (_, first), (_, second) = sides
    equivalent = rationally_equivalent(first, second)
    if args.format == "json":
        doc = {
            "command": "classify",
            "equivalent": equivalent,
            "forms": [
                {
                    "name": label,
                    "rank": algebra.b2,
                    "sigma": algebra.signature,
                    "connected_sum": {"plus": algebra.b2_plus, "minus": algebra.b2_minus},
                }
                for label, algebra in sides
            ],
        }
        _emit_json(doc)
        return EXIT_OK
    for label, algebra in sides:
        print(
            f"  {label}: rank {algebra.b2}, sigma {algebra.signature}, "
            f"connected sum ({algebra.b2_plus}, {algebra.b2_minus})"
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
        algebra = algebra_from_split(*complete_intersection_split([d]))
        label = f"degree-{d} hypersurface (b2={algebra.b2})"
    elif which == "ci":
        if params is None:
            raise InputError("ci needs degrees, e.g. `examples ci 2,2`")
        try:
            degrees = [int(x) for x in params.split(",") if x.strip()]
        except ValueError as exc:
            raise InputError(f"bad degree list {params!r}") from exc
        if not degrees or any(d < 1 for d in degrees):
            raise InputError("degrees must be positive integers")
        algebra = algebra_from_split(*complete_intersection_split(degrees))
        label = f"complete intersection {tuple(degrees)} (b2={algebra.b2})"
    elif which == "k3":
        if params is not None:
            raise InputError(f"k3 takes no parameter, got {params!r}")
        algebra = cohomology_algebra(forms.k3_form())
        label = f"K3 surface (b2={algebra.b2}, sigma={algebra.signature})"
    elif which == "connected-sum":
        if params is None:
            raise InputError("connected-sum needs p,q, e.g. `examples connected-sum 2,1`")
        algebra = _parse_split(params, "connected-sum")
        label = f"#{algebra.b2_plus} CP^2 # {algebra.b2_minus} CP^2-bar (b2={algebra.b2})"
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown example {which!r}")
    if args.format != "json":
        print(label)
    return _print_ranks(args, f"b2={algebra.b2}", algebra)


# ------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    if args.b2 is not None:
        if args.b2 < 0:
            raise InputError("--b2 must be nonnegative")
        b2_range = [args.b2]
    else:
        b2_range = range(7)
    any_failure = False
    for b2 in b2_range:
        # one split at a time: a b2 over the guard trips on the first build
        pluses = range(b2 + 1) if args.all_splits else (b2,)
        tables = []
        for plus in pluses:
            algebra = algebra_from_split(plus, b2 - plus)
            stage, table, _ = _run_engine(args, algebra)
            failures = [f"{c.name}: {c.detail}" for c in verify_stage(stage).failures()]
            tables.append(table)
            status = "PASS" if not failures else "FAIL"
            ranks = ", ".join(f"{r}:{v}" for r, v in sorted(table.ranks.items()))
            print(f"  [{status}] b2={b2} split ({plus},{b2 - plus})  ranks {{{ranks}}}")
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


class _Parser(argparse.ArgumentParser):
    """Reads a negative P,Q pair such as -1,3 as a value, as argparse reads -1,
    and reports a rejected token as an input error instead of exiting."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+(,-?\d+)+$")

    def error(self, message):
        raise InputError(message)


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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as it is."""
    parser = _Parser(
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
            if hasattr(args, "max_degree"):  # a command given _add_engine_options
                _check_engine_options(args)
            return args.func(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except BasisTooLarge as exc:
            print(f"error: {exc}", file=sys.stderr)
            partial = exc.partial_ranks.ranks
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
