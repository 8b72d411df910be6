"""The per-word Leibniz loop, kept as a test oracle.

`gca.Derivation.rows` assembles the differential of a whole list of words
in one pass, scanning runs in place and listing odd letters once per run,
straight into the rows that `linalg.kernel` eliminates.  `apply_mono` is the
earlier routine, which differentiates one word at a time and takes every
term's sign from `mono_mul`; `split_rows` takes those rows apart into one
column per word, so the tests can compare the two word for word.
"""

from fourfold.gca import Derivation, Mono, mono_mul


def apply_mono(deriv: Derivation, mono: Mono) -> dict:
    """D(mono) = sum_i e_i (-1)^(|x_i| |p_i|) d(x_i) * (mono / x_i), keyed by word.

    p_i is the part of mono before x_i; the sign is negative exactly when
    x_i and p_i both have odd degree.
    """
    gens = deriv.gens
    degs = gens.degrees
    acc: dict = {}
    prefix = 0
    k = 0
    while k < len(mono):  # one pass per run x_i^e, which starts at k
        i = mono[k]
        e = mono.count(i)
        rest = mono[:k] + mono[k + 1 :]
        outer = -e if prefix & degs[i] & 1 else e
        for t, c in deriv.images[i].items():
            sm = mono_mul(gens, t, rest)
            if sm is not None:
                sign, m = sm
                acc[m] = acc.get(m, 0) + c * sign * outer
        prefix += e * degs[i]
        k += e
    return {m: c for m, c in acc.items() if c}


def split_rows(rows: dict, count: int) -> list:
    """The columns, D of each of `count` words as a dict keyed by word, of
    rows in `linalg.kernel`'s convention: word j sits at key j."""
    columns = [{} for _ in range(count)]
    for target, row in rows.items():
        for j, c in row.items():
            columns[j][target] = c
    return columns
