"""The series-product solver for the loop-space ranks, kept as a test oracle.

`forms.loop_space_ranks` solves the Moebius-inverted divisor sums of the
logarithm of the loop-space Poincare series.  This is the earlier solver,
which multiplies out the Poincare-Birkhoff-Witt factors degree by degree, so
the tests can compare the two.
"""

import math

from fourfold.forms import closed_form_ranks


def loop_space_ranks(b2: int, max_degree: int) -> dict[int, int]:
    """rk pi_r for every 2 <= r <= max_degree, from the loop-space homology.

    For b2 >= 2 the top cell is attached by an inert map (Halperin-Lemaire,
    Math. Scand. 1987), so H_*(Omega M; Q) has Poincare series
    1 / (1 - b2 t + t^2).  By Milnor-Moore and Poincare-Birkhoff-Witt
    (Felix-Halperin-Thomas, Rational Homotopy Theory, section 33) the same
    series is prod_{i odd} (1 + t^i)^r_{i+1} / prod_{i even} (1 - t^i)^r_{i+1}
    with r_k = rk pi_k.  The factor for i begins 1 + r_{i+1} t^i, so r_{i+1}
    is the series coefficient of t^i less that of the factors below i.  For
    b2 <= 1 the manifold is rationally S^4 or CP^2 and the elliptic tables
    apply.  Integer arithmetic throughout.
    """
    if b2 <= 1:
        table = closed_form_ranks(b2, max_degree)
        return {r: table.rank(r) for r in range(2, max_degree + 1)}
    top = max_degree - 1
    series = [1, b2]
    while len(series) <= top:
        series.append(b2 * series[-1] - series[-2])
    product = [1] + [0] * top  # factors below i, truncated after t^top
    ranks = {}
    for i in range(1, top + 1):
        rank = series[i] - product[i]
        ranks[i + 1] = rank
        if not rank:
            continue
        # times (1 + t^i)^rank for odd i, (1 - t^i)^-rank for even i
        factor = [
            math.comb(rank, k) if i % 2 else math.comb(rank + k - 1, k)
            for k in range(top // i + 1)
        ]
        product = [
            sum(factor[k] * product[m - k * i] for k in range(m // i + 1))
            for m in range(top + 1)
        ]
    return ranks
