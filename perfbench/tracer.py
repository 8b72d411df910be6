"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each traced function with a wrapper at every
place the fourfold package binds it: the defining module, every module that
imported it by name (`sullivan` imports `basis`, `complement_in` and
`row_reduce`; `cli` imports `build` and `verify_stage`) and the class that
owns a method.  Each call records a span (operation, parent span, function,
start, end, counts) in memory; `uninstall` puts the originals back.

Counting the work of a call (matrix entries, nonzeros, coefficient sizes)
can take as long as the call itself, so the tracer stops its clock while it
does bookkeeping: span times exclude it, and it shows only in the traced
pass's total, whose excess over an untraced pass is the tracing overhead.

The engine is single-threaded and has no queues, so no span ever waits and
there is no waiting time to report.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _entries(rows, ncols):
    return {"rows": len(rows), "entries": len(rows) * ncols,
            "nonzeros": sum(1 for row in rows for x in row if x)}


def _coeff_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if x:
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _measure_row_reduce(args, result):
    rows, ncols = args[0], args[1]
    reduced, pivots = result
    return {**_entries(rows, ncols), "rank": len(pivots),
            "coeff_bits": _coeff_bits(reduced[: len(pivots)])}


def _measure_from_vectors(args, result):
    ambient, vectors = args[0], args[1]
    return {**_entries(vectors, ambient), "rank": result.dim,
            "coeff_bits": _coeff_bits(result.basis)}


def _measure_complement(args, result):
    sub, within = args[0], args[1]
    return {"ambient": sub.ambient_dim, "swept": within.dim, "kept": result.dim}


PACKAGE = "fourfold"

# (module, qualified name, layer group, counts of a call from its arguments and result)
TARGETS = (
    ("linalg", "complement_in", "linalg.complement", _measure_complement),
    ("linalg", "row_reduce", "linalg.elim", _measure_row_reduce),
    ("linalg", "Subspace.from_vectors", "linalg.elim", _measure_from_vectors),
    ("linalg", "kernel_from_reduced", "linalg.elim", None),
    ("linalg", "kernel_basis_from_rows", "linalg.elim", None),
    ("linalg", "kernel_basis", "linalg.elim", None),
    ("linalg", "rref", "linalg.elim", None),
    ("gca", "Derivation.apply_mono", "gca.apply_mono",
     lambda args, result: {"terms": len(result.terms)}),
    ("gca", "basis", "gca.basis", lambda args, result: {"monomials": len(result)}),
    ("gca", "check_d_squared", "sullivan.verify", None),
    ("sullivan", "verify_stage", "sullivan.verify", None),
    ("sullivan", "stage_cohomology", "sullivan.verify", None),
    ("sullivan", "build", "sullivan.extend", None),
    ("sullivan", "init_stage", "sullivan.extend", None),
    ("sullivan", "extend_stage", "sullivan.extend", None),
    ("sullivan", "QuasiMorphism.on_poly", "sullivan.stage_map", None),
    ("gca", "decomposable_subspace", "sullivan.crosscheck", None),
    ("forms", "make_form", "forms", None),
    ("linalg", "congruence_diagonalize", "forms", None),
    ("linalg", "determinant", "forms", None),
    ("forms", "diagonal_form", "forms", None),
    ("forms", "e8_form", "forms", None),
    ("forms", "k3_form", "forms", None),
    ("forms", "hyperbolic_form", "forms", None),
    ("forms", "connected_sum_form", "forms", None),
    ("forms", "algebra_from_split", "forms", None),
    ("forms", "closed_form_ranks", "forms", None),
    ("cli", "main", "cli", None),
    ("cli", "cmd_ranks", "cli", None),
    ("cli", "cmd_model", "cli", None),
    ("cli", "cmd_classify", "cli", None),
    ("cli", "cmd_examples", "cli", None),
    ("cli", "cmd_verify", "cli", None),
    ("cli", "model_document", "cli", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function name per target index
        self.groups: list[str] = []  # layer group per target index
        self.missing: list[str] = []
        self.spans: list = []  # (op, parent, target, start, end, error, counts)
        self.op = -1
        self._stack: list[int] = []
        self._paused = 0.0
        self._patches: list = []  # (owner, attribute, original)
        self._wrappers: list = []  # (module or class, attribute, original, wrapper)
        self._prepare()

    def _prepare(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, qualname, group, measure in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            index = len(self.names)
            self.names.append(f"{module_name}.{qualname}")
            self.groups.append(group)
            if path:  # a method or static method of a class
                func = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(func, index, measure)
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper)
                self._wrappers.append((owner, attr, raw, wrapper))
                continue
            wrapper = self._wrap(raw, index, measure)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._wrappers.append((module, name, raw, wrapper))

    def _wrap(self, func, index, measure):
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entered = perf_counter()
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            began = perf_counter()
            self._paused += began - entered
            start = began - self._paused
            error = None
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                ended = perf_counter()
                stack.pop()
                counts = None
                if measure is not None and error is None:
                    counts = measure(args, result)
                spans[sid] = (self.op, parent, index, start, ended - self._paused, error, counts)
                self._paused += perf_counter() - ended

        return traced

    def install(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._paused = 0.0
        for owner, attr, original, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layers(self, speed: list[float]) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since `install`.

        Self times of operation i are multiplied by speed[i], the factor
        that rescales that operation's time to nominal host speed.
        """
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        acc: dict[str, dict] = {}
        for sid, (op, _, index, start, end, error, counts) in enumerate(self.spans):
            group = acc.setdefault(self.groups[index], {"self_s": 0.0, "calls": 0, "errors": 0})
            group["self_s"] += (end - start - child[sid]) * speed[op]
            group["calls"] += 1
            group["errors"] += error is not None
            for key, value in (counts or {}).items():
                if key in ("ambient", "coeff_bits"):
                    group[key] = max(group.get(key, 0), value)
                else:
                    group[key] = group.get(key, 0) + value
        return _layer_metrics(acc)

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (op, parent, index, start, end, error, counts) in enumerate(self.spans):
                record = {"id": sid, "op": op, "parent": parent, "name": self.names[index],
                          "layer": self.groups[index], "start_s": start, "end_s": end}
                if error is not None:
                    record["error"] = error
                if counts:
                    record.update(counts)
                handle.write(json.dumps(record) + "\n")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _layer_metrics(acc: dict) -> dict[str, float]:
    def g(group, key, default=0):
        return acc.get(group, {}).get(key, default)

    out = {}
    for group in ("linalg.complement", "linalg.elim", "gca.apply_mono", "gca.basis",
                  "sullivan.verify", "sullivan.extend", "sullivan.stage_map",
                  "sullivan.crosscheck", "forms", "cli"):
        out[f"{group}.self_s"] = g(group, "self_s", 0.0)
        out[f"{group}.calls"] = g(group, "calls")
    out["linalg.complement.ambient_max"] = g("linalg.complement", "ambient")
    out["linalg.complement.kept_ratio"] = _ratio(
        g("linalg.complement", "kept"), g("linalg.complement", "swept"))
    out["linalg.elim.entries"] = g("linalg.elim", "entries")
    out["linalg.elim.nonzeros"] = g("linalg.elim", "nonzeros")
    out["linalg.elim.rank_ratio"] = _ratio(g("linalg.elim", "rank"), g("linalg.elim", "rows"))
    out["linalg.elim.max_coeff_bits"] = g("linalg.elim", "coeff_bits")
    out["gca.apply_mono.terms"] = g("gca.apply_mono", "terms")
    out["gca.basis.monomials"] = g("gca.basis", "monomials")
    out["gca.basis.errors"] = g("gca.basis", "errors")
    return out
