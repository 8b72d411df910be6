"""Dense exponent-vector references for the word monomials of `fourfold.gca`.

The package stores a monomial as its ascending word of generator indices.
These are the earlier exponent-vector routines (trailing zeros trimmed),
kept so that tests can compare the basis order and the product signs of the
word form against them.
"""

from bisect import bisect_right


def trim(exps) -> tuple:
    i = len(exps)
    while i and not exps[i - 1]:
        i -= 1
    return tuple(exps[:i])


def to_word(exps) -> tuple:
    """The ascending word of generator indices of an exponent vector."""
    return tuple(i for i, e in enumerate(exps) for _ in range(e))


def dense_basis(gens, degree: int) -> list:
    """Exponent vectors of the given degree, higher powers of earlier generators first."""
    if degree == 0:
        return [()]
    degs = gens.degrees
    n = len(degs)
    exps = [0] * n
    out = []
    # An entry (i, remaining, e) sets the exponent of generator i - 1 to e.
    stack = [(0, degree, 0)]
    while stack:
        i, remaining, e = stack.pop()
        if i:
            exps[i - 1] = e
        if remaining == 0:
            out.append(trim(exps[:i]))
            continue
        if i == n:
            continue
        d = degs[i]
        top = remaining // d
        if d % 2 and top > 1:
            top = 1
        stack.extend((i + 1, remaining - e * d, e) for e in range(top + 1))
    return out


def dense_mono_mul(gens, a: tuple, b: tuple):
    """(sign, exponent vector) of a product, or None when an odd square kills it."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    degs = gens.degrees
    a_odd = [i for i, e in enumerate(a) if e and degs[i] % 2]
    b_odd = [i for i, e in enumerate(b) if e and degs[i] % 2]
    inversions = 0
    if a_odd and b_odd:
        aset = set(a_odd)
        for j in b_odd:
            if j in aset:
                return None
            inversions += len(a_odd) - bisect_right(a_odd, j)
    if len(a) < len(b):
        a, b = b, a
    prod = list(a)
    for i, e in enumerate(b):
        if e:
            prod[i] += e
    return (-1 if inversions & 1 else 1), tuple(prod)
