"""The three workloads: seeded operation lists over the fourfold command line.

Each operation is a dict with the argv given to `fourfold.cli.main`, the
exit code the command line documents for it (0 ok, 2 input error, 3 guard
tripped) and how `oracle.check_output` checks its stdout.  The seed orders
the operations and, on `catalog`, draws the congruences, the malformed form
file and the bad split; the program sees only the argv and the files
written here.
"""

from __future__ import annotations

import json
import os
import random

# (b2, split or None for all-plus, max degree)
DEEP_CELLS = ((3, (1, 2), 8), (4, None, 6), (6, None, 5), (6, (3, 3), 5), (7, (4, 3), 5))

# verify --b2 N --all-splits --max-degree D
SWEEP_CELLS = ((0, 9), (1, 9), (2, 8), (3, 6), (4, 5))

CATALOG_DEGREE = 3
CLASSIFY_PAIRS = 10


def _op(argv, check, expect_exit=0):
    return {"argv": argv, "expect_exit": expect_exit, "check": check}


def deep_ops(rng: random.Random, workdir: str) -> list[dict]:
    ops = []
    for b2, split, top in DEEP_CELLS:
        argv = ["model", "--b2", str(b2), "--max-degree", str(top), "--format", "json"]
        if split is not None:
            argv[3:3] = ["--split", f"{split[0]},{split[1]}"]
        ops.append(_op(argv, {"kind": "model_json", "b2": b2, "max_degree": top}))
    return ops


def sweep_ops(rng: random.Random, workdir: str) -> list[dict]:
    ops = [_op(["verify", "--all-splits"],
               {"kind": "verify_text", "b2s": list(range(7)), "max_degree": 4})]
    for b2, top in SWEEP_CELLS:
        ops.append(_op(
            ["verify", "--b2", str(b2), "--all-splits", "--max-degree", str(top)],
            {"kind": "verify_text", "b2s": [b2], "max_degree": top},
        ))
    return ops


# ------------------------------------------------------------ form files


def _e8(sign: int) -> list[list[int]]:
    rows = [[2 * sign if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)):
        rows[i][j] = rows[j][i] = -sign
    return rows


def _block_sum(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


HYPERBOLIC = [[0, 1], [1, 0]]
K3 = _block_sum([HYPERBOLIC] * 3 + [_e8(-1)] * 2)  # b2 22, split (3, 19)
E8_PLUS_H = _block_sum([_e8(1), HYPERBOLIC])  # b2 10, split (9, 1)


def scrambled(matrix: list[list[int]], rng: random.Random, target: int = 1000) -> list[list[int]]:
    """A random integral congruence P^T A P, P unimodular, with entries near `target`.

    Adds +-1 times one basis vector to another (the same operation on rows
    and columns), which keeps the form symmetric, unimodular and of the same
    signature, until some entry reaches `target`.
    """
    a = [row[:] for row in matrix]
    n = len(a)
    while max(abs(x) for row in a for x in row) < target:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in a:
            row[i] += c * row[j]
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


MALFORMED = (
    '{"name": "ragged", "matrix": [[1, 0], [0]]}',
    '{"name": "float", "matrix": [[1.0, 0], [0, 1]]}',
    '{"name": "asymmetric", "matrix": [[1, 1], [0, 1]]}',
    '{"name": "degenerate", "matrix": [[2, 0], [0, 1]]}',
    '{"name": "truncated", "matrix": [[1, 0], [0, 1]',
    '{"matrix": "not a list"}',
)


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def catalog_ops(rng: random.Random, workdir: str) -> list[dict]:
    top = CATALOG_DEGREE
    engine = ["--engine", "--max-degree", str(top), "--format", "json"]
    # (example argv, b2): hypersurface b2 = d(6 - 4d + d^2) - 2
    examples = [(["k3"], 22), (["ci", "2,2"], 6), (["connected-sum", "2,1"], 3)]
    examples += [(["hypersurface", str(d)], d * (6 - 4 * d + d * d) - 2) for d in range(1, 6)]
    ops = [
        _op(["examples", *which, *engine],
            {"kind": "examples_json", "b2": b2, "max_degree": top})
        for which, b2 in examples
    ]
    ops += [
        _op(["ranks", "--b2", str(b2), "--format", "json"], {"kind": "ranks_json", "b2": b2})
        for b2 in range(31)
    ]
    for k in range(CLASSIFY_PAIRS):
        base, named, split = (K3, "k3", (3, 19)) if k % 2 == 0 else (E8_PLUS_H, "sum:9,1", (9, 1))
        doc = {"name": f"congruent-{named}-{k}", "matrix": scrambled(base, rng)}
        path = _write(workdir, f"form{k}.json", json.dumps(doc))
        pair = [path, named] if rng.random() < 0.5 else [named, path]
        ops.append(_op(["classify", *pair, "--format", "json"],
                       {"kind": "classify_json", "plus": split[0], "minus": split[1]}))
    bad_form = _write(workdir, "malformed.json", rng.choice(MALFORMED))
    b2 = rng.randint(3, 9)
    ops += [
        # exit-contract probes
        _op(["ranks", "--b2", "3", "--engine", "--max-degree", "1"], {"kind": "exit_only"}, 2),
        _op(["model", "--b2", "8", "--max-degree", "6", "--guard", "2000"],
            {"kind": "guard", "b2": 8}, 3),
        _op(["model", "--b2", str(b2), "--split", f"{b2 - 1},{rng.randint(2, 5)}"],
            {"kind": "exit_only"}, 2),
        _op(["ranks", "--form", bad_form], {"kind": "exit_only"}, 2),
    ]
    return ops


BUILDERS = {"deep": deep_ops, "sweep": sweep_ops, "catalog": catalog_ops}
WORKLOADS = tuple(BUILDERS)


def make_ops(workload: str, seed: int, workdir: str) -> list[dict]:
    """The seeded operation list of one workload; form files go to `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](rng, workdir)
    rng.shuffle(ops)
    return ops
