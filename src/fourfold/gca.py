"""Free graded-commutative algebras with Koszul signs.

Generators all have degree >= 2.  A monomial is its word of generator
indices in ascending order, one entry per factor: x1^2*x5 is (0, 0, 4) and
the unit is ().  Indices never move, so values built at one stage stay valid
after more generators are appended.  Odd-degree generators square to zero,
so an odd index appears at most once; `GeneratorSet.monomial_degree` owns this
word rule, for `Poly` and the `Derivation` constructor.  The sign of a product
counts the crossings of odd factors when the two words are merged.

The monomial basis of a fixed degree is enumerated in lexicographic order of
words: higher powers of earlier generators come first (x1^2, x1*x2, x2^2).
Within one degree no word is a proper prefix of another, so this is the
graded-lex order of exponent vectors, and plain `sorted` on the words of a
polynomial gives it.  Every matrix built over the basis inherits that order,
so output is reproducible; `basis_count` counts words and sets no limit.

A derivation D is given by its generator images and extended by the graded
Leibniz rule.  On a monomial m = x_0^e_0 ... x_n^e_n it is
D(m) = sum_i e_i (-1)^(|x_i| |p_i|) d(x_i) * (m / x_i), where p_i is the part
of m before x_i: the sign is negative exactly when x_i and p_i both have odd
degree.  No two terms share a word, as t * (m / x_i) = t' * (m / x_j) with
i != j needs t = x_i * s, |s| = 1; so `Derivation.rows`, which writes D of
word j of a list straight into column j of the rows that `linalg.kernel`
eliminates, sets each entry once; a two-letter term meets a one-letter
rest, as every quadratic image does on a two-letter word, without a sort.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from fractions import Fraction
from itertools import accumulate, chain, groupby
from math import comb
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import Subspace, add_scaled, exact

__all__ = [
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

_NO_DEGREE = 1 << 60  # above every degree: the least degree of no generator

Mono = tuple  # ascending word of generator indices


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
            name, degree = g
            if type(name) is not str or type(degree) is not int:  # so no bool degree
                raise ValueError(f"a generator is a (str, int) pair, got {g!r}")
            if degree < 2:
                raise ValueError(f"generator {name} has degree {degree} < 2")
            gens.append(g if isinstance(g, Generator) else Generator(name, degree))
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
        """The degree of a word, under the one word rule that `Poly` and `Derivation`
        apply: ValueError unless each index is in 0..len-1 (so none is negative),
        the letters ascend and each odd letter appears at most once."""
        degs, odd = self._degrees, self._odd
        if mono and (mono[0] < 0 or mono[-1] >= len(degs)):
            i = mono[0] if mono[0] < 0 else mono[-1]
            raise ValueError(f"monomial {mono}: index {i} is out of range")
        degree, prev = 0, -1
        try:  # a plain loop, as a generator or map costs more than the short sum
            for i in mono:
                if i <= prev and (i < prev or odd[i]):
                    break
                degree += degs[i]
                prev = i
            else:
                return degree
        except IndexError:  # a letter above the last one: the word descends
            pass
        raise ValueError(f"monomial {mono}: indices must ascend, odd ones once")


def basis_count(gens: GeneratorSet, degree: int) -> int:
    """Number of monomials of the given total degree, without building one."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    # counts[n] is the number of degree-n monomials in the generators of the
    # degrees seen so far.  The m generators of degree d multiply its
    # generating function by (1 + x^d)^m when d is odd (each at most once)
    # and divide it by (1 - x^d)^m when d is even: one pass per degree with
    # the binomials C(m, e) for e up to degree // d, signed (-1)^(e+1) when
    # d is even, so the cost stays bounded however many generators share d.
    counts = [1] + [0] * degree
    for d, m in gens._multiplicity.items():
        if d > degree:  # no word of the degree holds such a generator
            continue
        top = min(m, degree // d)
        odd = d % 2
        steps = range(degree, d - 1, -1) if odd else range(d, degree + 1)
        ways = [(e * d, comb(m, e) if odd or e % 2 else -comb(m, e)) for e in range(1, top + 1)]
        for n in steps:
            for shift, w in ways:
                if shift > n:
                    break
                counts[n] += w * counts[n - shift]
    return counts[degree]


def basis(gens: GeneratorSet, degree: int) -> list:
    """All monomials of the given total degree, in graded-lex order."""
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
    when they share one; the sign rule of `mono_mul` and of `Derivation.rows`,
    which counts the crossings itself only for one letter into a two-letter term.
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


class Derivation:
    """Degree +1 derivation of the free algebra, given by generator images.

    Each image is a word dict {word: nonzero int or Fraction} one degree
    above its generator, {} for a closed one; each word is a tuple of ints
    under the one word rule, `GeneratorSet.monomial_degree`.  The graded
    Leibniz rule D(ab) = D(a) b + (-1)^{|a|} a D(b) extends it to the algebra.
    """

    __slots__ = ("gens", "images")

    def __init__(self, gens: GeneratorSet, images: Sequence[dict]):
        images = tuple(images)  # outside input, checked here alone
        if not {*map(type, chain.from_iterable(chain.from_iterable(images)))} <= {int}:
            raise ValueError("an image has a letter that is not an int")  # so no bool or float
        if not {*map(type, chain.from_iterable(map(dict.values, images)))} <= {int, Fraction}:
            raise ValueError("an image has a coefficient that is no int or Fraction")
        if len(images) != len(gens):
            raise ValueError("one image per generator is required")
        word_degree = gens.monomial_degree
        for g, img in zip(gens.generators, images):
            expected = g.degree + 1
            for word in img:
                degree = word_degree(word)
                if degree != expected:
                    raise DegreeMismatch(
                        f"image of {g.name} has degree {degree}, expected {expected}"
                    )
            if 0 in img.values():
                raise ValueError(f"image of {g.name} has a zero coefficient")
        self.gens = gens
        self.images = images

    def extended(self, gens: GeneratorSet, new_images: Sequence[dict]) -> "Derivation":
        """The derivation on `gens`, which extends `self.gens`, with the new images
        appended unchecked; outside images go through the constructor."""
        grown = copy(self)
        grown.gens = gens
        grown.images = self.images + tuple(new_images)
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

        Maps each target word to {j: its coefficient in D(words[j])}.  A zero
        derivation returns {} without reading the words.  Each generator's
        image is prepared once per call, as (word, coefficient, odd letters)
        terms.  A one-letter rest r goes into a two-letter term t by two
        comparisons, signed by the odd letters of t above r (none when t holds
        an odd r); any other t + rest is sorted, and signed by `_koszul_sign`.
        """
        degs, odd, images = self.gens._degrees, self.gens._odd, self.images
        if not any(images):
            return {}
        prepared: list = [None] * len(images)
        out: dict = {}
        for position, mono in enumerate(words):
            prefix = k = 0
            while k < len(mono):  # one pass per run x_i^e, from k to end
                i = mono[k]
                end = k + 1
                while end < len(mono) and mono[end] == i:
                    end += 1
                terms = prepared[i]
                if terms is None:
                    terms = prepared[i] = [
                        (t, c, [j for j in t if odd[j]]) for t, c in images[i].items()
                    ]
                if terms:
                    rest = mono[:k] + mono[k + 1 :]
                    rest_odd = None
                    outer = k - end if prefix & degs[i] & 1 else end - k
                    pair = len(rest) == 1
                    if pair:
                        r = rest[0]
                        r_odd = odd[r]
                    for t, c, t_odd in terms:
                        s = outer
                        if pair and len(t) == 2:  # r into t by two comparisons
                            a, b = t
                            if r <= a:
                                target, above = (r, a, b), len(t_odd)
                            elif r <= b:
                                target, above = (a, r, b), odd[b]
                            else:
                                target, above = (a, b, r), 0
                            if r_odd and (r == a or r == b):  # an odd letter twice
                                continue
                            if r_odd and above & 1:
                                s = -outer
                        else:
                            if t_odd:
                                if rest_odd is None:
                                    rest_odd = [j for j in rest if odd[j]]
                                s = outer * _koszul_sign(t_odd, rest_odd) if rest_odd else outer
                                if not s:
                                    continue
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
            value = exact(sum(coeffs[p] * x for p, x in row.items()))
            if value:
                acc[target] = value
        return Poly(acc, poly.degree + 1) if acc else Poly()


def decomposable_subspace(gens: GeneratorSet, degree: int) -> Subspace:
    """Span of all products of two positive-degree monomials inside a degree.

    Enumerated from products, not from word lengths.  Its codimension in the
    monomial basis is the number of generators of that degree for every
    generator set, so it tests the basis enumeration, not a model's ranks.
    """
    if degree < 2:
        raise ValueError("decomposables start in degree 2")
    blist = basis(gens, degree)
    index = {m: i for i, m in enumerate(blist)}
    hit: set[int] = set()
    for d1 in range(2, degree - 1):
        d2 = degree - d1
        if d1 > d2:
            break
        left = basis(gens, d1)
        right = left if d1 == d2 else basis(gens, d2)
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
