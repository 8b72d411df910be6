"""Golden bytes of `model --format json` on a fixed grid.

The reduced echelon basis of a subspace is unique, so the model depends only
on the graded-lex column order, never on how the elimination proceeds.  The
digests below were recorded from the dense-elimination engine; any change to
the linear algebra must reproduce every one of them byte for byte.
"""

import hashlib

import pytest

from fourfold.cli import main

MAX_DEGREE = 5

# (b2, b2+, b2-) -> sha256 of stdout of
# `model --b2 B2 --split P,Q --max-degree 5 --format json`
GOLDEN = {
    (0, 0, 0): "aa799e6c71582423506db75141c2d0dfd4f79efc606b2d349073bdf5d5516ae2",
    (1, 0, 1): "3b10632985cfb5be228e054706055d8fccf6e5cdbb17730af0b77bfa12ae6e91",
    (1, 1, 0): "3b1bea029f1682ba1d2a4579dc418628a46da25b8b2c7c979bc02cda653dbc30",
    (2, 0, 2): "68f7543bf14834cc8c5a5329c75970ff46d2527fbe895b1cd9d717c0fe0b4d45",
    (2, 1, 1): "3b3861a90f2e3a953d95bd43d66575a5fd1f948efdd039367bfb31c97eae3330",
    (2, 2, 0): "696f4b04025198a08052522deee6e6a11f449d8da2aa16c68d23574f95b043a1",
    (3, 0, 3): "1b26782c9bc24830b29fb7db890ce347c004d9f152223e2d9868d874afc1e985",
    (3, 1, 2): "cd7960809ee77ec4eac39e34ad5c672f2182a7d1ac174de5809468f52cb249b3",
    (3, 2, 1): "a9e143cf478661bfcf2290950202ba7fd0b461d628cfc4de44050f7956e2593a",
    (3, 3, 0): "028d02269b9fafc4551b354b8d6e0bce8ffe84077dc23fabf55257dcaa4c1e98",
    (4, 0, 4): "ea9f0b3be8bef8d357e47b5d839c9b37cf7bd7f325d305d6159f5dc887a0043d",
    (4, 1, 3): "911e480b49469cfe7c194966fd318baa26d9c71415802725036a84bd6225254a",
    (4, 2, 2): "b5932f3f0cc94c250f5e792a32b69cbde81f7d28626380b3a054fac1c041d55c",
    (4, 3, 1): "bf2554068ab0440819eb5500c4e8a3ad562b92007fafd6fb2ce0daf17b3d2e67",
    (4, 4, 0): "557eec6bb83b915f7d4f57e58ae74dd0786181775adbfd433c8946e60aa337f9",
    (5, 0, 5): "a3c78861f73fe8649c26f78ffa1f9926ea6de125c001211a06e46300acb67aa8",
    (5, 1, 4): "4c114a761a6bcee6fde6be151b8570cd9040ba1af772c0e664caf4f8ada8f8bd",
    (5, 2, 3): "236c8f41cc7d1b1edd7dcd995e993a74e6fa2c365e32d875128cb95ea9fc3f54",
    (5, 3, 2): "1d8a65a566705a4ea78bb1fcb9a2afc72318a4f3df9b78919255b539fe2b8242",
    (5, 4, 1): "d1b28436f83e3c88e9fdefa0354db13f71965162b75e0c4a430682c8aa40cac8",
    (5, 5, 0): "a1b2d86a53d55c7ebdfc9f7db290b226b929d6b8c6903c905200b8d03490ccc3",
    (6, 0, 6): "a79b55d9cd26eab00486e02e8b1e626d732f63c8c17bef74aa8c02b77e290570",
    (6, 1, 5): "0ac353f4641543f619c445a4542fe89fb38f281299b67c7d5d439f9e9acc0a83",
    (6, 2, 4): "0311142719b68ae17617600d9abae69038187e6f5a9933c4c0d9aff7bf82a625",
    (6, 3, 3): "10ea3d1411e7d11ff4509f836e9e718e2196ccfc8b1ce94978dff363b1072d8f",
    (6, 4, 2): "eb53392dea1b86819946db96124454dcd9592dd17b02023bdd118bf3ce13b234",
    (6, 5, 1): "2cc4ad64953826365aff180db1ed2ebd58914263a74c1efed998b82799fbe162",
    (6, 6, 0): "a853e2931569765bf1a3eabc901e9ef075c4d3f8331e84d699e80ac010c86e16",
}


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: f"b2={c[0]}:{c[1]},{c[2]}")
def test_model_json_is_byte_identical(capsys, cell):
    b2, plus, minus = cell
    argv = ["model", "--b2", str(b2), "--split", f"{plus},{minus}",
            "--max-degree", str(MAX_DEGREE), "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[cell]


# (b2, (b2+, b2-), D) -> sha256 of stdout of
# `model --b2 B2 --split P,Q --max-degree D --format json`.  Deeper than the
# grid above: these reach squared even generators with a nonzero
# differential and even generators after an odd prefix, the cases where the
# Leibniz coefficient e_i and the sign (-1)^{|x_i|*|prefix|} matter.
DEEP_GOLDEN = {
    (3, (1, 2), 7): "9277097d50eadd924c0e9abaf444f6805d7abd98daada000924ca90e0a2b0f22",
    (3, (3, 0), 7): "95b90b68a4f283262dc22ba004898ddb07f6d5bcd14cb2c7bdb3abcbb9f50b21",
    (4, (2, 2), 6): "070fe4dcededd94a08c9f371080535fb8b9b207a0acdbe844e63ffbef22f58d1",
    (0, (0, 0), 9): "8e106dae19a80fdf27c27af219f273ec014d8d373b779b83670b66219356ea55",
    (1, (0, 1), 9): "07999d4c682ef5fd61a750d5a26d9b14d3b812d95805cae836c887d5acc37dfe",
    (2, (1, 1), 8): "bce1d0d0d762c13ef91584c2eb7b5545ea323de16bb557b590fee626987db911",
    # K3: the stage map pairs 19 negative classes, the first cell with many
    # negative squares at b2 > 6.
    (22, (3, 19), 3): "ad90f6d071abb3cfba756f9797767e7e6341c08571c4018c471ae4d58f88c19d",
    # Recorded before kernels were read off a column-reversed reduction: the
    # widest differentials that still run in under a second.
    (3, (3, 0), 9): "06ab08e02076014333f44fbb7abd82143b454c08fad0c5144076122928dff8e7",
    (6, (6, 0), 6): "4b9655c8242580b128397f2dcd3561e57ecf34a9d73f0aaad32f28c157053dbc",
    # Recorded with dense exponent-vector monomials: K3 through degree 4 has
    # the longest of them, up to 3794 entries.
    (22, (3, 19), 4): "9cc58b83b133c1f8456b64b368a3fcfc53cc58e31f52907bf24de7e5c86b65ac",
}


@pytest.mark.parametrize(
    "cell", sorted(DEEP_GOLDEN), ids=lambda c: f"b2={c[0]}:{c[1][0]},{c[1][1]}:D={c[2]}"
)
def test_deep_model_json_is_byte_identical(capsys, cell):
    b2, (plus, minus), max_degree = cell
    argv = ["model", "--b2", str(b2), "--split", f"{plus},{minus}",
            "--max-degree", str(max_degree), "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_GOLDEN[cell]


# (b2, (b2+, b2-), D) -> sha256 of stdout of the text format,
# `model --b2 B2 --split P,Q --max-degree D`, which prints each differential
# through gca.format_poly.  Recorded with dense exponent-vector monomials.
TEXT_GOLDEN = {
    (3, (1, 2), 7): "c0ac3d02e38f9d735ed5b31cd065668f2f0d18a169763941b56419b8c8989d66",
    (1, (0, 1), 9): "731e60c4e7c0070b5d6b45fb6cfffb7a2158b07322085dbdb8992c0b2d066eee",
    (22, (3, 19), 3): "70dbd5f5e02f2c00e34cddc1a4ae4c02f06982166fa7e4d72ecd61bb34748550",
}


@pytest.mark.parametrize(
    "cell", sorted(TEXT_GOLDEN), ids=lambda c: f"b2={c[0]}:{c[1][0]},{c[1][1]}:D={c[2]}"
)
def test_model_text_is_byte_identical(capsys, cell):
    b2, (plus, minus), max_degree = cell
    argv = ["model", "--b2", str(b2), "--split", f"{plus},{minus}",
            "--max-degree", str(max_degree)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_GOLDEN[cell]
