"""Free graded-commutative algebras with Koszul signs.

Generators all have degree >= 2.  A monomial is its word of generator
indices in ascending order, one entry per factor: x1^2*x5 is (0, 0, 4) and
the unit is ().  Indices never move, so values built at one stage stay valid
after more generators are appended.  Odd-degree generators square to zero,
so an odd index appears at most once; the sign of a product counts the
crossings of odd factors when the two words are merged.

The monomial basis of a fixed degree is enumerated in lexicographic order of
words: higher powers of earlier generators come first (x1^2, x1*x2, x2^2).
Within one degree no word is a proper prefix of another, so this is the
graded-lex order of exponent vectors, and plain `sorted` on the words of a
polynomial gives it.  Every matrix built over the basis inherits that order,
so output is reproducible.

A derivation D is given by its generator images and extended by the graded
Leibniz rule.  On a monomial m = x_0^e_0 ... x_n^e_n it is
D(m) = sum_i e_i (-1)^(|x_i| |p_i|) d(x_i) * (m / x_i), where p_i is the part
of m before x_i: the sign is negative exactly when x_i and p_i both have odd
degree.  No two terms share a word, as t * (m / x_i) = t' * (m / x_j) with
i != j needs t = x_i * s, |s| = 1; so `Derivation.rows`, which writes D of
word j of a list straight into column j of the rows that `linalg.kernel`
eliminates, sets each entry once.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from itertools import accumulate, groupby
from math import comb
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import Subspace, add_scaled, exact

__all__ = [
    "DEFAULT_GUARD",
    "BasisTooLarge",
    "DegreeMismatch",
    "Generator",
    "GeneratorSet",
    "Mono",
    "Poly",
    "Derivation",
    "basis",
    "basis_count",
    "mul",
    "mono_mul",
    "decomposable_subspace",
    "format_poly",
]

DEFAULT_GUARD = 200_000
_NO_DEGREE = 1 << 60  # above every degree: the least degree of no generator

Mono = tuple  # ascending word of generator indices


class BasisTooLarge(RuntimeError):
    """A monomial basis exceeded the configured guard limit."""

    def __init__(self, degree: int, limit: int):
        super().__init__(
            f"monomial basis in degree {degree} exceeds the guard limit {limit}"
        )
        self.degree = degree
        self.limit = limit
        # build() attaches what was finished before the guard tripped
        self.partial_ranks = None
        self.reports: list = []


class DegreeMismatch(ValueError):
    """A derivation image does not raise degree by exactly one."""


class Generator(NamedTuple):
    name: str
    degree: int


class GeneratorSet:
    """Ordered generators of a free graded-commutative algebra."""

    __slots__ = ("generators", "_index", "_degrees", "_odd", "_suffix_min", "_multiplicity")

    def __init__(self, generators: Iterable):
        self.generators = self._degrees = self._odd = ()
        self._index: dict = {}
        self._multiplicity: dict = {}  # degree -> number of generators of it
        self._append(generators)

    def _append(self, more: Iterable) -> None:
        """Append `more` while the set is being made, checking only them."""
        gens = []
        for g in more:
            if not isinstance(g, Generator):
                name, degree = g
                g = Generator(str(name), int(degree))
            if g.degree < 2:
                raise ValueError(f"generator {g.name} has degree {g.degree} < 2")
            gens.append(g)
        index = dict(self._index)
        index.update(zip([g.name for g in gens], range(len(index), len(index) + len(gens))))
        if len(index) != len(self._index) + len(gens):
            raise ValueError("generator names must be unique")
        degrees = tuple([g.degree for g in gens])
        self.generators += tuple(gens)
        self._index = index
        self._degrees += degrees
        # The least degree from each position on, and none past the end.
        least = list(accumulate(reversed(self._degrees), min))
        self._suffix_min = (*reversed(least), _NO_DEGREE)
        self._odd += tuple([d % 2 == 1 for d in degrees])
        multiplicity = dict(self._multiplicity)
        for d in dict.fromkeys(degrees):
            multiplicity[d] = multiplicity.get(d, 0) + degrees.count(d)
        self._multiplicity = multiplicity

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, i: int) -> Generator:
        return self.generators[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorSet) and self.generators == other.generators

    def __repr__(self) -> str:
        inner = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"GeneratorSet({inner})"

    def index(self, name: str) -> int:
        return self._index[name]

    @property
    def degrees(self) -> tuple:
        return self._degrees

    @property
    def multiplicity(self) -> dict:
        """The number of generators of each degree, in order of first appearance."""
        return dict(self._multiplicity)

    def extended(self, more: Iterable) -> "GeneratorSet":
        grown = copy(self)
        grown._append(more)
        return grown

    def monomial_degree(self, mono: Mono) -> int:
        # A plain loop: a generator or map costs more than the short sum.
        degs = self._degrees
        degree = 0
        for i in mono:
            degree += degs[i]
        return degree


def basis_count(gens: GeneratorSet, degree: int, guard: int = DEFAULT_GUARD) -> int:
    """Number of monomials of the given total degree; BasisTooLarge above the guard."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return 1  # the unit alone, never guarded
    # counts[n] is the number of degree-n monomials in the generators of the
    # degrees seen so far.  The m generators of degree d multiply its
    # generating function by (1 + x^d)^m when d is odd (each at most once)
    # and divide it by (1 - x^d)^m when d is even: one pass per degree with
    # the binomials C(m, e) for e up to degree // d, signed (-1)^(e+1) when
    # d is even, so the cost stays bounded however many generators share d.
    counts = [1] + [0] * degree
    for d, m in gens._multiplicity.items():
        top = min(m, degree // d)
        odd = d % 2
        steps = range(degree, d - 1, -1) if odd else range(d, degree + 1)
        ways = [(e * d, comb(m, e) if odd or e % 2 else -comb(m, e)) for e in range(1, top + 1)]
        for n in steps:
            for shift, w in ways:
                if shift > n:
                    break
                counts[n] += w * counts[n - shift]
    if counts[degree] > guard:
        raise BasisTooLarge(degree, guard)
    return counts[degree]


def basis(gens: GeneratorSet, degree: int, guard: int = DEFAULT_GUARD) -> list:
    """All monomials of the given total degree, in graded-lex order."""
    basis_count(gens, degree, guard)  # the guard trips before any monomial is built
    n = len(gens)
    degs = gens._degrees
    odd = gens._odd
    sufmin = gens._suffix_min
    out: list[Mono] = []
    # Depth-first over words, children in ascending index so that the words
    # come out in lexicographic order.  An entry (word, start, remaining)
    # extends word by indices >= start; a child is pushed only if it is
    # complete or some generator from its start on still fits.
    stack = [((), 0, degree)]
    while stack:
        word, start, remaining = stack.pop()
        if not remaining:
            out.append(word)
            continue
        children = []
        for i in range(start, n):
            if remaining < sufmin[i]:
                break
            rest = remaining - degs[i]
            nxt = i + 1 if odd[i] else i
            if rest >= sufmin[nxt] or not rest:
                children.append((word + (i,), nxt, rest))
        children.reverse()
        stack.extend(children)
    return out


def _koszul_sign(a_odd: list, b_odd: list) -> int:
    """Sign of the product a * b from the ascending odd letters of each word.

    (-1) to the number of pairs of an odd letter of a above one of b, or 0
    when they share one; the one sign rule of `mono_mul` and `Derivation.rows`.
    """
    inversions = 0
    for j in b_odd:
        pos = bisect_right(a_odd, j)
        if pos and a_odd[pos - 1] == j:
            return 0
        inversions += len(a_odd) - pos
    return -1 if inversions & 1 else 1


def mono_mul(gens: GeneratorSet, a: Mono, b: Mono):
    """Product of monomials: (sign, monomial), or None when an odd square kills it."""
    odd = gens._odd
    sign = _koszul_sign([i for i in a if odd[i]], [i for i in b if odd[i]])
    return (sign, tuple(sorted(a + b))) if sign else None


class Poly:
    """Homogeneous rational linear combination of monomials.

    Coefficients follow the rule of `linalg.exact`, an int when integral and
    a Fraction otherwise; `from_terms` and `scaled` put their input in it.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms: dict | None = None, degree: int | None = None):
        self.terms = terms or {}
        self.degree = degree if terms else None

    @staticmethod
    def from_terms(gens: GeneratorSet, items: Mapping) -> "Poly":
        terms: dict = {}
        degree = None
        for mono, coeff in items.items():
            coeff = exact(coeff)
            if not coeff:
                continue
            prev = -1
            for i in mono:
                if not 0 <= i < len(gens):
                    raise ValueError(f"monomial {mono}: index {i} is out of range")
                if i < prev or (i == prev and gens._odd[i]):
                    raise ValueError(f"monomial {mono}: indices must ascend, odd ones once")
                prev = i
            d = gens.monomial_degree(mono)
            if degree is None:
                degree = d
            elif degree != d:
                raise ValueError("terms are not homogeneous")
            terms[mono] = terms.get(mono, 0) + coeff
        terms = {m: c for m, c in terms.items() if c}
        return Poly(terms, degree if terms else None)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degrees")
        terms = add_scaled(dict(self.terms), 1, other.terms)
        return Poly(terms, self.degree if terms else None)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self.degree)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scaled(self, coeff) -> "Poly":
        coeff = exact(coeff)
        if not coeff or self.is_zero():
            return Poly()
        return Poly({m: c * coeff for m, c in self.terms.items()}, self.degree)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        inner = ", ".join(f"{m}: {c}" for m, c in sorted(self.terms.items()))
        return f"Poly({inner})"


def mul(gens: GeneratorSet, a: Poly, b: Poly) -> Poly:
    """Graded-commutative product of two homogeneous polynomials."""
    if a.is_zero() or b.is_zero():
        return Poly()
    acc: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            sm = mono_mul(gens, ma, mb)
            if sm is None:
                continue
            sign, m = sm
            c = ca * cb if sign > 0 else -(ca * cb)
            prev = acc.get(m)
            if prev is None:
                acc[m] = c
            else:
                nc = prev + c
                if nc:
                    acc[m] = nc
                else:
                    del acc[m]
    if not acc:
        return Poly()
    return Poly(acc, a.degree + b.degree)


def _appended_images(gens: GeneratorSet, images: tuple, more: Sequence[dict]) -> tuple:
    """`images` then `more`, one per generator of `gens`; only `more` is checked,
    each image by the degree of every one of its words."""
    more = tuple(more)
    if len(images) + len(more) != len(gens):
        raise ValueError("one image per generator is required")
    degs = gens._degrees
    for g, img in zip(gens.generators[len(images) :], more):
        expected = g.degree + 1
        for word in img:
            degree = 0
            for i in word:  # monomial_degree inlined: this runs on every word
                degree += degs[i]
            if degree != expected:
                raise DegreeMismatch(
                    f"image of {g.name} has degree {degree}, expected {expected}"
                )
    return images + more


class Derivation:
    """Degree +1 derivation of the free algebra, given by generator images.

    Each image is a word dict {word: coeff}, homogeneous of degree one above
    its generator, and {} for a closed generator.  The extension to the
    whole algebra follows the graded Leibniz rule
    D(ab) = D(a) b + (-1)^{|a|} a D(b).
    """

    __slots__ = ("gens", "images")

    def __init__(self, gens: GeneratorSet, images: Sequence[dict]):
        self.gens = gens
        self.images = _appended_images(gens, (), images)

    def extended(self, gens: GeneratorSet, new_images: Sequence[dict]) -> "Derivation":
        """The derivation on `gens`, which extends `self.gens`, with images appended."""
        grown = copy(self)
        grown.gens = gens
        grown.images = _appended_images(gens, self.images, new_images)
        return grown

    def minimality_witness(self):
        """First (generator name, monomial) whose image has a linear term."""
        for g, img in zip(self.gens, self.images):
            for mono in img:
                if len(mono) < 2:
                    return g.name, mono
        return None

    def rows(self, words: Sequence[Mono]) -> dict:
        """D of a word list in one pass, as the rows `linalg.kernel` eliminates.

        Maps each target word to {j: its coefficient in D(words[j])}.
        """
        degs, odd, images = self.gens._degrees, self.gens._odd, self.images
        out: dict = {}
        for position, mono in enumerate(words):
            prefix = k = 0
            while k < len(mono):  # one pass per run x_i^e, from k to end
                i = mono[k]
                end = k + 1
                while end < len(mono) and mono[end] == i:
                    end += 1
                if images[i]:
                    rest = mono[:k] + mono[k + 1 :]
                    rest_odd = [j for j in rest if odd[j]]
                    outer = k - end if prefix & degs[i] & 1 else end - k
                    for t, c in images[i].items():
                        t_odd = rest_odd and [j for j in t if odd[j]]
                        s = outer * _koszul_sign(t_odd, rest_odd) if t_odd else outer
                        if s:
                            target = tuple(sorted(t + rest)) if rest else t
                            row = out.get(target)
                            if row is None:
                                row = out[target] = {}
                            row[position] = c if s == 1 else c * s
                prefix += (end - k) * degs[i]
                k = end
        return out

    def apply(self, poly: Poly) -> Poly:
        coeffs = list(poly.terms.values())
        acc: dict = {}
        for target, row in self.rows(list(poly.terms)).items():
            value = sum(coeffs[p] * x for p, x in row.items())
            if value:
                acc[target] = value
        return Poly(acc, poly.degree + 1) if acc else Poly()


def decomposable_subspace(
    gens: GeneratorSet, degree: int, guard: int = DEFAULT_GUARD
) -> Subspace:
    """Span of all products of two positive-degree monomials inside a degree.

    Enumerated from products, not from word lengths.  Its codimension in the
    monomial basis is the number of generators of that degree for every
    generator set, so it tests the basis enumeration, not a model's ranks.
    """
    if degree < 2:
        raise ValueError("decomposables start in degree 2")
    blist = basis(gens, degree, guard)
    index = {m: i for i, m in enumerate(blist)}
    hit: set[int] = set()
    for d1 in range(2, degree - 1):
        d2 = degree - d1
        if d1 > d2:
            break
        left = basis(gens, d1, guard)
        right = left if d1 == d2 else basis(gens, d2, guard)
        for i, m1 in enumerate(left):
            start = i if d1 == d2 else 0
            for m2 in right[start:]:
                sm = mono_mul(gens, m1, m2)
                if sm is not None:
                    hit.add(index[sm[1]])
    return Subspace(len(blist), {i: {i: 1} for i in sorted(hit)})


def format_poly(gens: GeneratorSet, terms: dict) -> str:
    """A word dict {word: coeff} as text in graded-lex order, e.g. 2*x1^2 - x1*x2."""
    if not terms:
        return "0"
    pieces = []
    for mono in sorted(terms):
        coeff = terms[mono]
        negative = coeff < 0
        mag = -coeff if negative else coeff
        factors = [(gens[i].name, len(list(run))) for i, run in groupby(mono)]
        body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in factors)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(pieces)
