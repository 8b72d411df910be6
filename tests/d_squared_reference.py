"""The Leibniz-rule check of d^2 = 0, kept as a test oracle.

`sullivan.verify_stage` tests d(dx) = 0 by asking whether dx lies in the
cocycle kernel of its degree, which the construction has already
eliminated.  This is the earlier check, which applies the derivation to
every monomial of every generator's differential, so the tests can compare
the two verdicts and witnesses.
"""

from dataclasses import dataclass

from fourfold.gca import Derivation, GeneratorSet, Poly


@dataclass(frozen=True)
class DSquaredReport:
    ok: bool
    witness: str | None = None
    value: Poly | None = None


def check_d_squared(gens: GeneratorSet, deriv: Derivation) -> DSquaredReport:
    """Check D(D(x)) = 0 on every generator x.

    D has odd degree, so D^2 = [D, D] / 2 is a derivation; it vanishes on the
    whole algebra exactly when it vanishes on the generators.
    """
    for g, img in zip(gens, deriv.images):
        if not img:
            continue
        sq = deriv.apply(Poly(img, g.degree + 1))
        if not sq.is_zero():
            return DSquaredReport(False, g.name, sq)
    return DSquaredReport(True)
