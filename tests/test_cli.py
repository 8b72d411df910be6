import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from fourfold import cli, sullivan
from fourfold.cli import main
from fourfold.forms import RankTable, algebra_from_split
from fourfold.gca import Derivation, Poly, mul
from fourfold.sullivan import MinimalModelStage, build

import json_reference
from test_golden import GOLDEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- ranks


def test_ranks_k3_numbers(capsys):
    code, out, _ = run(capsys, "ranks", "--b2", "22")
    assert code == 0
    assert "2   22" in out
    assert "3   252" in out
    assert "4   3520" in out


def test_ranks_rank_zero_lists_tail(capsys):
    code, out, _ = run(capsys, "ranks", "--b2", "0")
    assert code == 0
    assert "4   1" in out
    assert "7   1" in out
    assert "rank 0" in out


def test_ranks_engine_agreement_at_rank_three(capsys):
    code, out, _ = run(capsys, "ranks", "--b2", "3", "--engine", "--max-degree", "5")
    assert code == 0
    assert "MISMATCH" not in out
    assert "5   10        10        ok" in out


def test_ranks_engine_checks_degrees_without_a_closed_form(capsys):
    code, out, _ = run(capsys, "ranks", "--b2", "4", "--engine", "--max-degree", "6")
    assert code == 0
    assert "5   -         45        ok" in out
    assert "6   -         144       ok" in out


def wrong_table_build(algebra, max_degree, guard):
    # the engine's stage with pi_5 off by one, beyond the closed forms at b2=4
    stage, table, reports = build(algebra, max_degree, guard=guard)
    ranks = dict(table.ranks)
    ranks[5] += 1
    return stage, RankTable(ranks, table.finite_tail), reports


def test_ranks_engine_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build", wrong_table_build)
    code, out, _ = run(capsys, "ranks", "--b2", "4", "--engine", "--max-degree", "6")
    assert code == 1
    assert "5   -         46        MISMATCH" in out
    assert "6   -         144       ok" in out


def test_model_mismatch_exits_one(capsys, monkeypatch):
    _, expected, _ = run(capsys, "model", "--b2", "4", "--max-degree", "5")
    monkeypatch.setattr(cli, "build", wrong_table_build)
    code, out, err = run(capsys, "model", "--b2", "4", "--max-degree", "5")
    assert code == 1
    assert out == expected.replace("pi_5=45", "pi_5=46")
    assert err.count("\n") == 1
    assert "pi_5 = 46" in err and "45" in err


def test_ranks_json_round_trip(capsys):
    code, out, _ = run(capsys, "ranks", "--b2", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out.strip() == json.dumps(doc, indent=2, sort_keys=True)
    assert doc["formula"] == {"2": 4, "3": 9, "4": 16}
    assert doc["finite_tail"] is False
    assert doc["engine"] is None


def test_ranks_requires_one_source(capsys):
    code, _, err = run(capsys, "ranks")
    assert code == 2
    assert "source" in err


def test_ranks_rejects_inconsistent_split(capsys):
    code, _, err = run(capsys, "ranks", "--b2", "3", "--split", "1,1")
    assert code == 2
    assert "split" in err


@pytest.mark.parametrize("command", ["ranks", "model"])
def test_split_next_to_a_form_file_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"matrix": [[0, 1], [1, 0]]}))
    for split in ("7,7", "1,1"):
        code, out, err = run(capsys, command, "--form", str(path), "--split", split)
        assert code == 2
        assert out == ""
        assert "--split" in err


def test_ranks_guard_exceeded_prints_partial(capsys):
    code, out, err = run(capsys, "ranks", "--b2", "5", "--engine", "--guard", "10")
    assert code == 3
    assert "guard" in err
    assert "partial" in out


# -------------------------------------------------------------------- model


def test_model_rank_one(capsys):
    code, out, _ = run(capsys, "model", "--b2", "1")
    assert code == 0
    assert "x1 (degree 2)  d = 0" in out
    assert "v5_1 (degree 5)  d = x1^3" in out


def test_model_rank_two_signs_follow_split(capsys):
    code, out, _ = run(capsys, "model", "--b2", "2", "--split", "2,0")
    assert code == 0
    assert "x1^2 - x2^2" in out
    assert "x1*x2" in out
    code, out, _ = run(capsys, "model", "--b2", "2", "--split", "1,1")
    assert code == 0
    assert "x1^2 + x2^2" in out


def test_model_rank_zero_through_degree_seven(capsys):
    code, out, _ = run(capsys, "model", "--b2", "0", "--max-degree", "7")
    assert code == 0
    assert "u4_1 (degree 4)  d = 0" in out
    assert "v7_1 (degree 7)  d = u4_1^2" in out


def test_model_json_document(capsys):
    code, out, _ = run(capsys, "model", "--b2", "2", "--split", "1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out.strip() == json.dumps(doc, indent=2, sort_keys=True)
    assert doc["meta"] == {
        "b2": 2,
        "b2plus": 1,
        "b2minus": 1,
        "sigma": 0,
        "max_degree": 5,
    }
    assert doc["ranks"] == {"2": 2, "3": 2, "4": 0, "5": 0}
    names = [g["name"] for g in doc["generators"]]
    assert names == ["x1", "x2", "v3_1", "v3_2"]
    v3_1 = doc["generators"][2]["differential"]
    assert v3_1 == [
        {"coeff": "1", "monomial": [["x1", 2]]},
        {"coeff": "1", "monomial": [["x2", 2]]},
    ]


# (b2, (b2+, b2-), D): every split at D=5; b2=0 at D=3, with no generators;
# b2=1 at D=9, where d v5 = x^3 has an exponent-3 factor; b2=3 split 1,2 at
# D=7, whose differentials have coefficients -1/2 and 1/2.
REFERENCE_CELLS = (
    [(b2, (p, b2 - p), 5) for b2 in range(7) for p in range(b2 + 1)]
    + [(0, (0, 0), 3), (1, (1, 0), 9), (1, (0, 1), 9), (3, (1, 2), 7)]
)


@pytest.mark.parametrize(
    "cell", REFERENCE_CELLS, ids=lambda c: f"b2={c[0]}:{c[1][0]},{c[1][1]}:D={c[2]}"
)
def test_model_json_matches_the_reference_encoder(cell):
    b2, (plus, minus), max_degree = cell
    stage, table, _ = build(algebra_from_split(plus, minus), max_degree)
    meta = cli._meta(b2, plus, minus, max_degree)
    text = cli.model_document(stage, table, meta)
    assert text == json_reference.model_text(stage, table, meta)


def test_model_json_matches_the_reference_on_random_rational_coefficients():
    # Each differential scaled by a seeded random p/q: multi-digit, negative
    # and non-integer coefficients in every term.
    rng = random.Random(9)
    stage, table, _ = build(algebra_from_split(1, 2), 7)
    images = [
        image.scaled(Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999)))
        for image in stage.diff.images
    ]
    scaled = MinimalModelStage(
        stage.algebra, stage.gens, Derivation(stage.gens, images), stage.qm, stage.k
    )
    meta = cli._meta(3, 1, 2, 7)
    text = cli.model_document(scaled, table, meta)
    assert "/" in text
    assert text == json_reference.model_text(scaled, table, meta)


def test_model_json_never_runs_the_pure_python_encoder(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    code, out, _ = run(capsys, "model", "--b2", "6", "--split", "3,3", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(6, 3, 3)]


# ----------------------------------------------------------------- classify


def test_classify_equivalent_pair(capsys):
    code, out, _ = run(capsys, "classify", "diag:1,-1", "hyperbolic")
    assert code == 0
    assert "EQUIVALENT" in out
    assert "connected sum (1, 1)" in out


def test_classify_distinguishes_signature(capsys):
    code, out, _ = run(capsys, "classify", "diag:1,1", "hyperbolic")
    assert code == 0
    assert "NOT equivalent" in out


def test_classify_e8_against_diagonal(capsys):
    code, out, _ = run(capsys, "classify", "e8", "diag:1,1,1,1,1,1,1,1")
    assert code == 0
    assert "EQUIVALENT" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "k3", "sum:3,19", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["forms"][0]["rank"] == 22
    assert doc["forms"][0]["sigma"] == -16


def test_classify_reads_form_files(tmp_path, capsys):
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps({"name": "quadric", "matrix": [[0, 1], [1, 0]]}))
    code, out, _ = run(capsys, "classify", str(path), "diag:1,-1")
    assert code == 0
    assert "quadric" in out
    assert "EQUIVALENT" in out


def test_classify_rejects_float_entries(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[1.0]]}))
    code, _, err = run(capsys, "classify", str(path), "cp2")
    assert code == 2
    assert "integer" in err


def test_classify_rejects_asymmetric_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[0, 1], [2, 0]]}))
    code, _, err = run(capsys, "classify", str(path), "cp2")
    assert code == 2


@pytest.mark.parametrize("command", ["ranks", "classify"])
def test_form_file_with_an_over_long_integer_is_an_input_error(tmp_path, capsys, command):
    # json.load refuses integers beyond the interpreter's digit limit
    # (4300 by default) with a plain ValueError.
    path = tmp_path / "huge.json"
    path.write_text('{"matrix": [[' + "1" * 5000 + "]]}")
    argv = ["ranks", "--form", str(path)] if command == "ranks" else ["classify", str(path), "cp2"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert str(path) in err


def test_classify_rejects_non_unimodular(capsys):
    code, _, err = run(capsys, "classify", "diag:2", "cp2")
    assert code == 2
    assert "determinant" in err


@pytest.mark.parametrize(
    "matrix, det", [([[0, 2], [2, 0]], -4), ([[1, 1], [1, 1]], 0)]
)
def test_classify_non_unimodular_file_message(tmp_path, capsys, matrix, det):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, out, err = run(capsys, "classify", str(path), "cp2")
    assert code == 2
    assert out == ""
    assert err == f"error: form file {path}: determinant is {det}, expected +1 or -1\n"


def test_classify_non_unimodular_diagonal_message(capsys):
    code, out, err = run(capsys, "classify", "diag:2,3", "cp2")
    assert code == 2
    assert out == ""
    assert err == "error: bad diagonal form 'diag:2,3': determinant is 6, expected +1 or -1\n"


# ----------------------------------------------------------------- examples


def test_examples_hypersurface(capsys):
    code, out, _ = run(capsys, "examples", "hypersurface", "3")
    assert code == 0
    assert "b2=7" in out
    assert "2   7" in out
    assert "3   27" in out
    assert "4   105" in out


def test_examples_complete_intersection(capsys):
    code, out, _ = run(capsys, "examples", "ci", "2,2")
    assert code == 0
    assert "b2=6" in out
    assert "3   20" in out  # 6*7/2 - 1
    assert "4   64" in out  # 6*32/3


def test_examples_k3(capsys):
    code, out, _ = run(capsys, "examples", "k3")
    assert code == 0
    assert "3   252" in out
    assert "4   3520" in out


def test_examples_connected_sum(capsys):
    code, out, _ = run(capsys, "examples", "connected-sum", "2,1")
    assert code == 0
    assert "b2=3" in out
    assert "5   10" in out


def test_examples_bad_parameters(capsys):
    code, _, err = run(capsys, "examples", "hypersurface", "zero")
    assert code == 2
    code, _, err = run(capsys, "examples", "ci")
    assert code == 2


def test_examples_k3_takes_no_parameter(capsys):
    code, out, err = run(capsys, "examples", "k3", "junk")
    assert code == 2
    assert out == ""
    assert "k3 takes no parameter" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("examples", "connected-sum", "2"), "connected-sum expects P,Q integers, got '2'"),
        (("examples", "connected-sum", "2,-1"), "connected-sum entries must be nonnegative"),
        (("model", "--b2", "2", "--split", "2"), "--split expects P,Q integers, got '2'"),
        (("ranks", "--b2", "2", "--split", "3,-1"), "--split entries must be nonnegative"),
    ],
)
def test_split_errors_name_the_argument_given(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("ranks", "--b2", "3", "--engine", "--max-degree", "1"),
        ("model", "--b2", "3", "--max-degree", "1"),
        ("examples", "connected-sum", "2,1", "--engine", "--max-degree", "0"),
        ("examples", "k3", "--engine", "--max-degree", "0"),
        ("verify", "--b2", "3", "--max-degree", "-1"),
    ],
    ids=["ranks", "model", "examples", "examples-k3", "verify"],
)
def test_max_degree_below_two_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""  # nothing is printed before the options are checked
    assert "--max-degree" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ranks", "--b2", "3", "--engine", "--guard", "-5"),
        ("model", "--b2", "3", "--guard", "-5"),
        ("examples", "connected-sum", "2,1", "--engine", "--guard", "-1"),
        ("verify", "--b2", "3", "--guard", "-5"),
    ],
    ids=["ranks", "model", "examples", "verify"],
)
def test_negative_guard_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --guard must be nonnegative, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("ranks", "--b2", "1000000", "--engine", "--max-degree", "3"),
        ("model", "--b2", "99999999999999999999", "--max-degree", "3"),
    ],
    ids=["ranks", "model"],
)
def test_guard_trips_at_degree_two_before_any_generator(capsys, monkeypatch, argv):
    def no_stage(algebra):
        raise AssertionError("init_stage ran although the guard trips at degree 2")

    monkeypatch.setattr(sullivan, "init_stage", no_stage)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: monomial basis in degree 2 exceeds the guard limit 200000\n"


def test_guard_at_degree_four_keeps_partial_ranks(capsys):
    code, out, err = run(capsys, "ranks", "--b2", "2000", "--engine", "--max-degree", "3")
    assert code == 3
    assert out == "partial ranks before the guard tripped: {2:2000}\n"
    assert err == "error: monomial basis in degree 4 exceeds the guard limit 200000\n"


def test_k3_guard_trips_in_degree_seven_within_64_mib(capsys):
    # The degree-6 basis (111090 monomials) passes the guard and is built
    # before the degree-7 count trips it; its words must stay small.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "examples", "k3", "--engine", "--max-degree", "5")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out.endswith("partial ranks before the guard tripped: {2:22, 3:252, 4:3520}\n")
    assert err == "error: monomial basis in degree 7 exceeds the guard limit 200000\n"
    assert peak < 64 << 20


# ------------------------------------------------------------------- verify


def test_verify_single_rank_all_splits(capsys):
    code, out, _ = run(
        capsys, "verify", "--b2", "3", "--max-degree", "5", "--all-splits"
    )
    assert code == 0
    assert out.count("[PASS]") == 5  # four splits plus the identity-of-tables line
    assert "all checks passed" in out


def test_verify_detects_injected_fault(capsys, monkeypatch):
    def broken_build(algebra, max_degree, guard):
        # d(v3_1) = x1^2 is a d-closed image, but the stage map sends it to
        # the fundamental class instead of zero
        stage, table, reports = build(algebra, max_degree, guard=guard)
        gens = stage.gens
        x1 = Poly.monomial(gens, (gens.index("x1"),))
        images = list(stage.diff.images)
        images[gens.index("v3_1")] = mul(gens, x1, x1)
        broken = MinimalModelStage(
            algebra, gens, Derivation(gens, images), stage.qm, stage.k
        )
        return broken, table, reports

    monkeypatch.setattr(cli, "build", broken_build)
    code, out, _ = run(capsys, "verify", "--b2", "2", "--max-degree", "4")
    assert code == 1
    assert "[FAIL]" in out
    assert "chain_map" in out
    assert "verification FAILED" in out


def test_verify_rank_zero(capsys):
    code, out, _ = run(capsys, "verify", "--b2", "0", "--max-degree", "7")
    assert code == 0
    assert "4:1" in out and "7:1" in out


def test_verify_default_range(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.count("[PASS]") == 7  # b2 = 0..6 at the default degree
    assert "all checks passed" in out


def test_output_is_deterministic_across_runs(capsys):
    first = run(capsys, "model", "--b2", "3", "--split", "2,1", "--format", "json")
    second = run(capsys, "model", "--b2", "3", "--split", "2,1", "--format", "json")
    assert first == second
    third = run(capsys, "ranks", "--b2", "6", "--engine")
    fourth = run(capsys, "ranks", "--b2", "6", "--engine")
    assert third == fourth


# ------------------------------------------------------- closed stdout


# (argv, bytes read before the reader closes the pipe).  The model document
# is over 256 KiB, more than a pipe holds, so its writer is still writing.
CLOSED_STDOUT = [
    (["model", "--b2", "6", "--max-degree", "5", "--format", "json"], 10),
    (["verify", "--b2", "2", "--all-splits"], 0),
    (["ranks", "--b2", "4", "--engine"], 0),
    (["examples", "k3"], 0),
    (["classify", "k3", "sum:3,19"], 0),
]


@pytest.mark.parametrize("argv, nread", CLOSED_STDOUT, ids=[a[0] for a, _ in CLOSED_STDOUT])
def test_closed_stdout_exits_zero_without_a_traceback(argv, nread):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fourfold", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(nread)) == nread
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


# ------------------------------------------------------------------- README


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"```\n(.*?)```", readme.split("## Command line", 1)[1], re.S)
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in block.group(1).splitlines()
        if line.startswith("fourfold ")
    ]
    assert len(commands) >= 11
    snippet = next(
        text for text in re.findall(r"```json\n(.*?)```", readme, re.S) if '"matrix"' in text
    )
    (tmp_path / "form.json").write_text(snippet, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_readme_library_block_runs():
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    assert "from fourfold import" in block.group(1)
    exec(compile(block.group(1), str(README), "exec"), {})
