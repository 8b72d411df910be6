import hashlib
import json
import math
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

from fourfold import cli, forms, sullivan
from fourfold.cli import main
from fourfold.forms import RankTable, algebra_from_split, loop_space_ranks
from fourfold.gca import Derivation, Poly, mul
from fourfold.sullivan import MinimalModelStage, build

import json_reference
from test_acceptance import congruent_form
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


# sha256 of the stdout of each command, recorded before the closed forms were
# derived from the divisor-sum formula; every byte must stay the same.
RANKS_DIGESTS = {
    "ranks --b2 0": "b6c9788598915fb06486f88af35dcedfc75be56afb7475861d0367a31666304c",
    "ranks --b2 0 --format json": "09264b89c63f86b1f5e1c1407e0baed04efffee2ce3e439c54014da5ac45da7d",
    "ranks --b2 1": "0dc1eae5f47df7417e821bff773e188c1136af85f4394658d79c21163f43a33a",
    "ranks --b2 1 --format json": "774507fa1b56062f560684f8682fb6a259c918970a84bd94b5a4baff67de8ba0",
    "ranks --b2 2": "fe4a8e2cde6ab5c46689bf740b26e68345b708f100febe7cd431bb5cb0240e4e",
    "ranks --b2 2 --format json": "c99660eca7684488f3cecbaed837187a5874754ff5ce29d5089536d9c1d868b5",
    "ranks --b2 3": "c190b1ad00b29506831a350f0ed060f8fefd05accf114e350c0c5c0cd32a8467",
    "ranks --b2 3 --format json": "a7c2d562063715bfdff668820d76d5eb5efb51fa29eaa30d0a430e37d8f97496",
    "ranks --b2 4": "8ff78d88d148d93f70259698e811768791dd6d0e4994eca74bd40596da25c7f2",
    "ranks --b2 4 --format json": "9f98818b4b1d3cb5ca71ab15192bda69b83aa351d3835f4dd31b12d8bfcbd059",
    "ranks --b2 5": "bce3f37926a707784c7c0c1b8edb030cf03a4351019edad4424d2794c5fc73a9",
    "ranks --b2 5 --format json": "7086821a7d5a43d496e5075b022ba06dc389accfe02ad2ca653f4a4bd51b9fec",
    "ranks --b2 6": "b20b8256b0c576f7901ec304e85889dafdefd8666839ad03f4d61d839b380643",
    "ranks --b2 6 --format json": "6189df37d02bb2f2cca52351c179f2ef7eac61b9089ddc748afccdbc1e12571c",
    "ranks --b2 7": "5488c682d4a6fbbd45fdc05c1e96bbdcb70c4025c97623582bd8d6c16398ca20",
    "ranks --b2 7 --format json": "cafce9143f960ede87cef7f3c89d7d2dce4267c1d4d5eaa6f185b16304431358",
    "ranks --b2 8": "5c6bc7112a300a49051df94d3513d175d91ca8d632bbaeeba13bd70ecfb76487",
    "ranks --b2 8 --format json": "cdc4a29f0f4cd813badb5397f6918b7dd5397fecf6a53c9e81f1dd094ad169d1",
    "ranks --b2 9": "06e47b8e4b837a3736d41123143bd187466eefa76f5e12598c7a25a33df5a053",
    "ranks --b2 9 --format json": "bbc9880df335e6343b2160b5f0fb4dfd62765c4ddc05814f009c127e72f6d9c2",
    "ranks --b2 10": "388c401ca95c419ca4a369c34eed2bc5cf31d70d6fba89976b81e6f09675358e",
    "ranks --b2 10 --format json": "7bda46279ca72345518a270ba18432c00b5767fc9ecc3d11447f4863c0e79a93",
    "ranks --b2 11": "9a0f9ac82c46571ea0c6fe68b25a15a8936d6002a87b7f76ef7c82979eb5d921",
    "ranks --b2 11 --format json": "98acfb92aeb8a8d36eef61b6b877f9457e0cca3d958fbad681f99b40b07bb091",
    "ranks --b2 12": "d44d20f7c81624103cee38ef9e65cb63715a7416b4915d0306bf78e35080e469",
    "ranks --b2 12 --format json": "3805608c96c43dcdb269eaa3e073f7f503bc1382eeb595092c9cf99454ff2f1d",
    "ranks --b2 13": "c5a143b40aa7ceda6193eb4b7de41a4a8b9d3e8bdfd54554ca945320a1fd3704",
    "ranks --b2 13 --format json": "77c9af7ea20636f2823c404191b0fb71ee78709d3ee9c6accb6e0d2caa00350f",
    "ranks --b2 14": "00ebba84410f802a028bd49d75135ab028fb5f5c7d4e510ac956e1f5821a9032",
    "ranks --b2 14 --format json": "e21b293848b7ee7d08628ef08ea36c47a0169a3f0aa8b6ad3d57222e6a884339",
    "ranks --b2 15": "2c7c06610070aeab0d9797115eab65ca5e7a04ad67d52a5932ee09e7eb2895af",
    "ranks --b2 15 --format json": "2f61401f3974df77e773495092e7bc141fbed69424f23f87a6dca92f724e2a60",
    "ranks --b2 16": "e5de53711292071ea305e25b5a4e7ec3c44d056519dc7cd49b6534a9a441067b",
    "ranks --b2 16 --format json": "ad403d6e429e5ef648f3d439fb55c261b01f8dd58a4ca11df0eedb13aa42c6d1",
    "ranks --b2 17": "745b929a278e048953fe9809109b3d0b96b59fd87a15a1da43f6c55279f7576f",
    "ranks --b2 17 --format json": "d5983089ce798f9e0361ba618b01312ef02328561cd8225706877a276995ad02",
    "ranks --b2 18": "d33ab33be9719df1774d4d20be244f766a0ab43532d3e8d2f9277b6ef481cefa",
    "ranks --b2 18 --format json": "4c711ec4394c721bbd43add8c49d4533b3af5877667e01a0b70f478836def46d",
    "ranks --b2 19": "76f7b52e393f6dc878cc4fc0fa84cf7c3eb622907b337e9bb9b685c38469fb96",
    "ranks --b2 19 --format json": "fcae5a74dfa5923020a5f6992fed0c748edf0227c8c28c1452f210e3fcc61504",
    "ranks --b2 20": "9afcca7d0c1e2a65afef13f500985105c50ee6ba13d7b1270d968ea1a98b7cc3",
    "ranks --b2 20 --format json": "46aea6706fb6774f14ba36f476e7181da867a2d8af2da70c3e09f67b5301e13b",
    "ranks --b2 21": "a151e1a33102517b7f4403f5b29a0d9c8832632d790fe6d92f2222c6b6b137b0",
    "ranks --b2 21 --format json": "b45cbe77b2da9a2a1af54e5081aefbc01bb39072ca7571bca689e74e313edbc7",
    "ranks --b2 22": "b3d94a2efa850ecc7d933c1f920d7a829c0f33e7df29cc05267ab7cdc759cc52",
    "ranks --b2 22 --format json": "9d9a9249b01486243325f66bf7214e2fba5d9c76fc5f1f183972a8a1c2a02e10",
    "ranks --b2 23": "e539b62f5d96ffcb2349b6439f4dc6dad4030f6afa06f7bb159ade5908b1ff07",
    "ranks --b2 23 --format json": "7c484206ac286a61d267174860ede829407ca94ca9d14bd2e51750835f847133",
    "ranks --b2 24": "4ccac972aef82bebc9e4102db02e5d5c3359eb705cb05dd740a085fe7817e5ae",
    "ranks --b2 24 --format json": "ab4719910b0053dde3c5eb3a500fde4b8236af4eaf6ae2f574e3d70ba4afb662",
    "ranks --b2 25": "bfa7edd3e11e0af2f9fddd988e08aceececccdc4732c9873736abb7361da5d2b",
    "ranks --b2 25 --format json": "ecdfc7e26140ef672ea7ca356ab67cece812e733fbcfbf9f423dc1bd9e0ca9e8",
    "ranks --b2 26": "8440c2b783cec37522560598124516fb70973679f8cde2c9ee94683c0407397e",
    "ranks --b2 26 --format json": "0515b2a39cf82c883e76107408227cab292c58e704b33ced6fed2c220bdaf28d",
    "ranks --b2 27": "ecc82990df989805cb422b44c619f6c4cfd2b51694f9e734208bc5a005766762",
    "ranks --b2 27 --format json": "47e980ae5d23483f323899f2587d5e102d1f0e83097350864db05572f01b943c",
    "ranks --b2 28": "9ac72af49d29555c2483afca0672de130761b8554b18bad5582a1e6d48254b58",
    "ranks --b2 28 --format json": "8e9dac7730195d631f80b3de028ca61dfef840d35f667dda42a9f73b8934d58c",
    "ranks --b2 29": "36ca48fdf7cd236b28acfb0c13394f69b7e9d82d6e5a396a0e42f613e11ae3c7",
    "ranks --b2 29 --format json": "d31768b73685b51567eef8b8783c7463590712f2dc65f47116e15089e9b2ad29",
    "ranks --b2 30": "98b4e8d35e8a0caa2cd9baefdf419ed7ae467359f346a9d418295ab9a0b89d2c",
    "ranks --b2 30 --format json": "4902ed01bcdf79316ff8aed2ca59de460643a94c9625a314897007f0014d34f3",
    "examples k3": "641ac6a379b3cd6572e2f0bb031ed96d44a766c5e4c2b80c4a03b857c0ccc150",
    "examples hypersurface 3": "357246843429f26b19471f2dffa223f4ee7a703ee07569a5f2d74309f83104b9",
}


@pytest.mark.parametrize("command", sorted(RANKS_DIGESTS))
def test_ranks_stdout_is_byte_identical(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RANKS_DIGESTS[command]


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


def _form_matrix(kind):
    if kind == "diagonal":
        return forms.diagonal_form([1, -1, -1, 1]).matrix
    e8_plus_h = [list(row) + [0, 0] for row in forms.e8_form().matrix]
    e8_plus_h += [[0] * 8 + [0, 1], [0] * 8 + [1, 0]]
    return congruent_form(random.Random(24), forms.make_form(e8_plus_h)).matrix


@pytest.mark.parametrize("kind, split", [("diagonal", "2,2"), ("scrambled-e8-h", "9,1")])
def test_form_file_and_split_give_the_same_engine_ranks(tmp_path, capsys, kind, split):
    # Every source comes to one algebra; the ranks depend on b2 alone.
    matrix = _form_matrix(kind)
    assert kind == "diagonal" or any(matrix[i][j] for i in range(10) for j in range(i))
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"name": kind, "matrix": matrix}))
    argv = ("ranks", "--engine", "--max-degree", "5", "--format", "json")
    by_form = run(capsys, *argv, "--form", str(path))
    by_split = run(capsys, *argv, "--b2", str(len(matrix)), "--split", split)
    assert by_form == by_split
    assert by_form[0] == 0


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
    _, (plus, minus), max_degree = cell
    stage, table, _ = build(algebra_from_split(plus, minus), max_degree)
    meta = cli._meta(stage.algebra, max_degree)
    text = "".join(cli.model_document(stage, table, meta))
    assert text == json_reference.model_text(stage, table, meta)


def test_model_json_matches_the_reference_on_random_rational_coefficients():
    # Each differential scaled by a seeded random p/q: multi-digit, negative
    # and non-integer coefficients in every term.
    rng = random.Random(9)
    stage, table, _ = build(algebra_from_split(1, 2), 7)
    scales = [Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999)) for _ in stage.gens]
    images = [{m: c * q for m, c in image.items()} for image, q in zip(stage.diff.images, scales)]
    scaled = MinimalModelStage(stage.algebra, Derivation(stage.gens, images), stage.qm, stage.k)
    meta = cli._meta(stage.algebra, 7)
    text = "".join(cli.model_document(scaled, table, meta))
    assert "/" in text
    assert text == json_reference.model_text(scaled, table, meta)


def test_model_json_matches_the_reference_on_hand_built_words():
    # Words the built cells do not reach: square-free of length 3, x1^2*x2,
    # cubes and a fourth power, odd letters, and a name that JSON escapes.
    base, table, _ = build(algebra_from_split(2, 0), 2)
    gens = base.gens.extended([("a", 3), ("\u03b2", 3), ("v", 5), ("w", 6), ("z", 7)])
    poly = lambda terms: Poly.from_terms(gens, terms).terms
    images = [
        {},
        {},
        poly({(0, 0): 1, (1, 1): -1}),
        poly({(0, 1): Fraction(1, 2)}),
        poly({(0, 0, 0): 1, (0, 0, 1): -2, (2, 3): 1, (1, 1, 1): 5}),
        poly({(0, 1, 2): 1, (0, 0, 3): -1, (0, 4): Fraction(-3, 2)}),
        poly({(0, 2, 3): 1, (0, 0, 0, 0): 7, (1, 5): -1, (0, 1, 1, 1): 2}),
    ]
    qm = base.qm.extended([{}] * 5)
    stage = MinimalModelStage(base.algebra, Derivation(gens, images), qm, 7)
    meta = cli._meta(base.algebra, 7)
    text = "".join(cli.model_document(stage, table, meta))
    assert text == json_reference.model_text(stage, table, meta)
    assert '"\\u03b2"' in text


def test_model_json_streams_in_less_memory_than_it_prints():
    # One generator's piece at a time, plus each letter's exponent-1 factor,
    # rendered once per call and kept for it: the whole text is never held,
    # and nothing is kept per word.
    stage, table, _ = build(algebra_from_split(1, 2), 8)
    meta = cli._meta(stage.algebra, 8)
    tracemalloc.start()
    try:
        size = sum(len(piece) for piece in cli.model_document(stage, table, meta))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 300_000
    assert peak < size


# sha256 of `model ... --format json` for deep cells outside the golden grid,
# recorded before H^{k+2} of the construction came from the verifier's
# cohomology routine.
DEEP_DIGESTS = {
    "--b2 3 --split 1,2 --max-degree 8":
        "c3501ab2de590828428751dc8a36ada49da4e19567bf7d462993751f3ebb6602",
    "--b2 4 --max-degree 6":
        "dd9f9392e2aad0bfdfb8e6fa88708a1778a7a5aea0127bb534fd0848a5498119",
    "--b2 7 --split 4,3 --max-degree 5":
        "cb63a5ad30ef9b1f92c031e2d24af521a909b4b8f62c1c17c1538b8017b72b63",
}


@pytest.mark.parametrize("cell", sorted(DEEP_DIGESTS))
def test_deep_model_json_is_byte_identical(capsys, cell):
    code, out, err = run(capsys, "model", *cell.split(), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_DIGESTS[cell]


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


def test_classify_decides_the_oriented_type(capsys):
    # the README's example: opposite signatures are different oriented types
    code, out, _ = run(capsys, "classify", "cp2", "cp2bar")
    assert code == 0
    assert out.splitlines()[-1] == "  rational homotopy type: NOT equivalent"


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


@pytest.mark.parametrize("pair, line", [
    (("sum:400,0", "cp2"), "#400 CP^2 # 0 CP^2-bar: rank 400, sigma 400, connected sum (400, 0)"),
    (("k3", "k3"), "K3: rank 22, sigma -16, connected sum (3, 19)"),
], ids=["sum", "k3"])
def test_classify_catalog_forms_skip_the_elimination(monkeypatch, capsys, pair, line):
    # Their split is read off the diagonal or added up over the blocks.
    def refuse(rows):
        raise AssertionError(f"_inertia ran on a {len(rows)} x {len(rows)} matrix")

    monkeypatch.setattr(forms, "_inertia", refuse)
    code, out, _ = run(capsys, "classify", *pair)
    assert code == 0
    assert f"  {line}\n" in out


@pytest.mark.parametrize("p", [3000, 10**21])
def test_classify_sum_builds_no_matrix(capsys, p):
    # sum:p,q is read as a split; a p x p matrix would need O(p^2) memory.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "classify", f"sum:{p},0", "cp2")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert out == (
        f"  #{p} CP^2 # 0 CP^2-bar: rank {p}, sigma {p}, connected sum ({p}, 0)\n"
        "  CP^2: rank 1, sigma 1, connected sum (1, 0)\n"
        "  rational homotopy type: NOT equivalent\n"
    )
    assert peak < 4 << 20


def test_classify_diag_builds_no_matrix(capsys):
    # diag:e1,...,en is read as a split, as sum:p,q is; the n x n matrix
    # took some 69 MiB at n = 3000.
    entries = ",".join(["1"] * 2000 + ["-1"] * 1000)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "classify", f"diag:{entries}", "cp2")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert out == (
        f"  diag({entries}): rank 3000, sigma 1000, connected sum (2000, 1000)\n"
        "  CP^2: rank 1, sigma 1, connected sum (1, 0)\n"
        "  rational homotopy type: NOT equivalent\n"
    )
    assert peak < 4 << 20


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


@pytest.mark.parametrize("example", [("hypersurface", "4"), ("ci", "2,3"), ("ci", "2,2,2")])
def test_k3_complete_intersections_print_what_k3_prints(capsys, example):
    # Each is a K3 surface, so it has K3's split (3, 19), not (22, 0).
    flags = ("--engine", "--max-degree", "3", "--format", "json")
    expected = run(capsys, "examples", "k3", *flags)
    assert run(capsys, "examples", *example, *flags) == expected
    assert json.loads(expected[1])["meta"]["sigma"] == -16


@pytest.mark.parametrize("d", range(1, 7))
def test_hypersurface_split_has_b2_plus_of_twice_the_geometric_genus_plus_one(capsys, d):
    # b2+ = 2 p_g + 1, and a degree-d surface in CP^3 has p_g = C(d - 1, 3).
    code, out, _ = run(capsys, "examples", "hypersurface", str(d), "--format", "json")
    meta = json.loads(out)["meta"]
    assert code == 0
    assert meta["b2plus"] == 2 * math.comb(d - 1, 3) + 1
    assert meta["b2plus"] + meta["b2minus"] == meta["b2"]


def test_examples_connected_sum(capsys):
    code, out, _ = run(capsys, "examples", "connected-sum", "2,1")
    assert code == 0
    assert "b2=3" in out
    assert "5   10" in out


def test_examples_checks_its_options_once_and_keeps_its_arguments(capsys, monkeypatch):
    # main checks the engine options once, before the command runs; the
    # command leaves the parsed arguments as the check saw them.
    checks = []
    real = cli._check_engine_options

    def check(args):
        checks.append((args, dict(vars(args))))
        real(args)

    monkeypatch.setattr(cli, "_check_engine_options", check)
    code, out, _ = run(
        capsys, "examples", "connected-sum", "2,1", "--engine", "--max-degree", "4"
    )
    assert code == 0
    assert len(checks) == 1
    args, before = checks[0]
    assert vars(args) == before
    assert out.startswith("#2 CP^2 # 1 CP^2-bar (b2=3)\n")


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
        (("ranks", "--b2", "2", "--split", "-1,3"), "--split entries must be nonnegative"),
        (("model", "--b2", "2", "--split", "-1,3"), "--split entries must be nonnegative"),
        (("examples", "connected-sum", "-1,3"), "connected-sum entries must be nonnegative"),
        (("classify", "sum:2,-1", "cp2"), "sum:p,q entries must be nonnegative"),
        (("classify", "sum:2", "cp2"), "sum:p,q expects P,Q integers, got '2'"),
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
        ("ranks", "--b2", "3", "--max-degree", "1"),
        ("ranks", "--engine", "--max-degree", "1"),
        ("model", "--b2", "3", "--max-degree", "1"),
        ("examples", "connected-sum", "2,1", "--engine", "--max-degree", "0"),
        ("examples", "k3", "--engine", "--max-degree", "0"),
        ("examples", "k3", "--max-degree", "0"),
        ("verify", "--b2", "3", "--max-degree", "-1"),
    ],
    ids=["ranks", "ranks-no-engine", "ranks-no-source", "model", "examples", "examples-k3",
         "examples-k3-no-engine", "verify"],
)
def test_max_degree_below_two_is_an_input_error(capsys, argv):
    # with or without --engine, and before the source is resolved
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""  # nothing is printed before the options are checked
    assert err == f"error: --max-degree must be at least 2, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("ranks", "--b2", "3", "--engine", "--guard", "-5"),
        ("ranks", "--b2", "3", "--guard", "-5"),
        ("model", "--b2", "3", "--guard", "-5"),
        ("examples", "connected-sum", "2,1", "--engine", "--guard", "-1"),
        ("examples", "k3", "--guard", "-1"),
        ("verify", "--b2", "3", "--guard", "-5"),
    ],
    ids=["ranks", "ranks-no-engine", "model", "examples", "examples-k3-no-engine", "verify"],
)
def test_negative_guard_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --guard must be nonnegative, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (("model", "--b2", "x"), "argument --b2: invalid int value: 'x'"),
        (("ranks", "--b2", "3", "--max-degree", "5.0"),
         "argument --max-degree: invalid int value: '5.0'"),
        (("model", "--guard", ""), "argument --guard: invalid int value: ''"),
        (("frobnicate",), "argument command: invalid choice: 'frobnicate' "
         "(choose from 'ranks', 'model', 'classify', 'examples', 'verify')"),
        ((), "the following arguments are required: command"),
    ],
    ids=["b2", "max-degree", "guard", "subcommand", "bare"],
)
def test_rejected_tokens_return_exit_two_with_one_error_line(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {line}\n"


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
    assert err == (
        f"error: monomial basis in degree 2 exceeds the guard limit 200000: {argv[2]} words\n"
    )


def test_guard_at_degree_four_keeps_partial_ranks(capsys):
    code, out, err = run(capsys, "ranks", "--b2", "2000", "--engine", "--max-degree", "3")
    assert code == 3
    assert out == "partial ranks before the guard tripped: {2:2000}\n"
    assert err == (
        "error: monomial basis in degree 4 exceeds the guard limit 200000: 2001000 words\n"
    )


def test_guard_zero_leaves_degree_zero_unguarded(capsys):
    # H^0 needs the degree-0 basis, the unit, which no guard limits
    code, out, err = run(capsys, "verify", "--b2", "0", "--guard", "0", "--max-degree", "3")
    assert (code, err) == (0, "")
    assert out == "  [PASS] b2=0 split (0,0)  ranks {2:0, 3:0}\nall checks passed\n"


def test_verify_and_model_pass_a_carried_degree_over_the_guard(capsys):
    # Stage 4 adjoins u4_1, one degree-4 word, over a guard of 0.  The step
    # carries degree 4 already eliminated, so neither command builds it.
    argv = ("--b2", "0", "--guard", "0", "--max-degree", "4")
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert out.endswith("all checks passed\n")
    code, out, err = run(capsys, "model", *argv)
    assert (code, err) == (0, "")
    assert out.endswith("  ranks: pi_2=0, pi_3=0, pi_4=1\n")


def test_a_guard_trip_of_one_word_says_word(capsys):
    code, out, err = run(capsys, "model", "--b2", "1", "--guard", "0")
    assert (code, out) == (3, "")
    assert err == "error: monomial basis in degree 2 exceeds the guard limit 0: 1 word\n"


TRIP_GUARDS = (0, 1, 2, 5, 10, 30, 55, 100, 234, 1000, 5000)


def test_verify_trips_exactly_where_its_build_does(capsys):
    # Every (b2, D, guard) cell of the guards above, and seeded draws between
    # them: verify --b2 B runs the split (B, 0), so it exits 3 exactly when
    # that split's model does, with the same error line, and passes otherwise.
    rng = random.Random(32)
    cells = [(b2, d, g) for b2 in range(6) for d in range(2, 8) for g in TRIP_GUARDS]
    cells += [(rng.randint(0, 5), rng.randint(2, 7), rng.randint(0, 6000)) for _ in range(60)]
    for b2, d, g in cells:
        argv = ("--b2", str(b2), "--max-degree", str(d), "--guard", str(g))
        code, _, err = run(capsys, "verify", *argv)
        model_code, _, model_err = run(capsys, "model", *argv, "--split", f"{b2},0")
        if model_code == 3:
            assert (code, err) == (3, model_err), argv
        else:
            assert (code, err, model_code) == (0, "", 0), argv


def test_verify_all_splits_over_the_guard_makes_one_split(capsys):
    # The first split's build trips the degree-2 guard at once; the other
    # 10**6 splits are never made.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--b2", "1000000", "--all-splits")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == (
        "error: monomial basis in degree 2 exceeds the guard limit 200000: 1000000 words\n"
    )
    assert peak < 8 << 20


# sha256 of the stdout of `examples k3 --engine --max-degree 5 --guard 1000000`
K3_PI5_DIGEST = "8e5430fa127030b8d66c3d78829f6d3d72a4b9f915b548d0553b76ab7c370f09"


def test_k3_pi5_under_a_raised_guard(capsys):
    # The default guard trips on the degree-7 count (next test); a raised one
    # lets the engine reach pi_5 and check it against the loop-space series.
    code, out, err = run(
        capsys, "examples", "k3", "--engine", "--max-degree", "5", "--guard", "1000000"
    )
    assert (code, err) == (0, "")
    row = re.search(r"^  5 +- +(\d+) +ok$", out, re.M)
    assert int(row.group(1)) == loop_space_ranks(22, 5)[5] == 57960
    assert hashlib.sha256(out.encode()).hexdigest() == K3_PI5_DIGEST


def test_k3_guard_trips_in_degree_seven_within_64_mib(capsys):
    # The degree-6 count (111090 monomials) passes the guard and the
    # degree-7 count trips it before the degree-6 basis is built.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "examples", "k3", "--engine", "--max-degree", "5")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out.endswith("partial ranks before the guard tripped: {2:22, 3:252, 4:3520}\n")
    assert err == (
        "error: monomial basis in degree 7 exceeds the guard limit 200000: 950796 words\n"
    )
    assert peak < 64 << 20


# ------------------------------------------------------------------- verify


def test_verify_single_rank_all_splits(capsys):
    code, out, _ = run(
        capsys, "verify", "--b2", "3", "--max-degree", "5", "--all-splits"
    )
    assert code == 0
    assert out.count("[PASS]") == 5  # four splits plus the identity-of-tables line
    assert "all checks passed" in out


# sha256 of the stdout of each sweep benchmark command, recorded before
# `_diff_data`, the H^n reading and `verify_stage` moved onto
# `linalg.kernel`.
VERIFY_DIGESTS = {
    "verify --all-splits":
        "ac2ca90a090c74b15df3f9b844fa7bc41e9c28647fb689541c8da4ec88a94dda",
    "verify --b2 0 --all-splits --max-degree 9":
        "063964ac4a9ad708eec48a1bb4d9c2f8be7b71830f8050deb92f08c76ba32ac2",
    "verify --b2 1 --all-splits --max-degree 9":
        "9a0e6a6fe8e39e1bdbe7cdc023947586ddf0bfbe281a860a709a95725b32a9a5",
    "verify --b2 2 --all-splits --max-degree 8":
        "c10c21e6effb0537c8722e18d1dc61c2016c504c79b5fa728dbffd8eb5f5c4bf",
    "verify --b2 3 --all-splits --max-degree 6":
        "c8fede388384213732d6e7223b93933572414fc3201e28b5f8ee28eb0cabff34",
    "verify --b2 4 --all-splits --max-degree 5":
        "dcfa271a70afc2a04b12198c0bab92c086400e85200b843ac0e4bdda70165784",
}


@pytest.mark.parametrize("command", sorted(VERIFY_DIGESTS))
def test_verify_stdout_is_byte_identical(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[command]


def test_verify_detects_injected_fault(capsys, monkeypatch):
    def broken_build(algebra, max_degree, guard):
        # d(v3_1) = x1^2 is a d-closed image, but the stage map sends it to
        # the fundamental class instead of zero
        stage, table, reports = build(algebra, max_degree, guard=guard)
        gens = stage.gens
        x1 = Poly.from_terms(gens, {(gens.index("x1"),): 1})
        images = list(stage.diff.images)
        images[gens.index("v3_1")] = mul(gens, x1, x1).terms
        broken = MinimalModelStage(algebra, Derivation(gens, images), stage.qm, stage.k)
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


def test_one_parser_serves_every_call_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    alone = run(capsys, "ranks", "--b2", "3")
    assert run(capsys, "ranks", "--b2", "3", "--engine", "--max-degree", "3")[0] == 0
    assert run(capsys, "ranks", "--b2", "3") == alone
    assert run(capsys, "ranks", "--b2", "x")[0] == 2  # a rejected token, then
    assert run(capsys, "ranks", "--b2", "3") == alone


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
    with subprocess.Popen(
        [sys.executable, "-m", "fourfold", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert len(proc.stdout.read(nread)) == nread
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize("argv", [a for a, _ in CLOSED_STDOUT], ids=[a[0] for a, _ in CLOSED_STDOUT])
def test_stdout_closed_at_start_exits_zero_without_a_traceback(argv):
    # With file descriptor 1 closed, the interpreter sets sys.stdout to None.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" -m fourfold "$@" >&-', sys.executable, *argv],
        stderr=subprocess.PIPE, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")


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
