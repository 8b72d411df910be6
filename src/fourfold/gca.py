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
i != j needs t = x_i * s, |s| = 1; so `Derivation.columns` sets each once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping, Sequence

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
    "format_mono",
]

DEFAULT_GUARD = 200_000

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


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


class GeneratorSet:
    """Ordered generators of a free graded-commutative algebra."""

    __slots__ = ("generators", "_index", "_degrees", "_odd", "_suffix_min")

    def __init__(self, generators: Iterable):
        gens = []
        for g in generators:
            if not isinstance(g, Generator):
                name, degree = g
                g = Generator(str(name), int(degree))
            if g.degree < 2:
                raise ValueError(f"generator {g.name} has degree {g.degree} < 2")
            gens.append(g)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self.generators = tuple(gens)
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._degrees = tuple(g.degree for g in gens)
        self._odd = tuple(g.degree % 2 == 1 for g in gens)
        n = len(gens)
        sm = [0] * (n + 1)
        sm[n] = 1 << 60
        for i in range(n - 1, -1, -1):
            sm[i] = min(self._degrees[i], sm[i + 1])
        self._suffix_min = tuple(sm)

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

    def extended(self, more: Iterable) -> "GeneratorSet":
        return GeneratorSet(tuple(self.generators) + tuple(more))

    def monomial_degree(self, mono: Mono) -> int:
        degs = self._degrees
        return sum(degs[i] for i in mono)


def basis_count(gens: GeneratorSet, degree: int, guard: int = DEFAULT_GUARD) -> int:
    """Number of monomials of the given total degree; BasisTooLarge above the guard."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return 1  # the unit alone, never guarded
    # counts[m] is the number of degree-m monomials in the generators seen so
    # far; an even generator takes any exponent, an odd one 0 or 1.
    counts = [1] + [0] * degree
    for d, o in zip(gens._degrees, gens._odd):
        steps = range(degree, d - 1, -1) if o else range(d, degree + 1)
        for m in steps:
            counts[m] += counts[m - d]
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
    when they share one; the one sign rule of `mono_mul` and `columns`.
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
    def zero() -> "Poly":
        return Poly()

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

    def __rmul__(self, coeff) -> "Poly":
        return self.scaled(coeff)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        inner = ", ".join(f"{m}: {c}" for m, c in sorted(self.terms.items()))
        return f"Poly({inner})"


def mul(gens: GeneratorSet, a: Poly, b: Poly) -> Poly:
    """Graded-commutative product of two homogeneous polynomials."""
    if a.is_zero() or b.is_zero():
        return Poly.zero()
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
        return Poly.zero()
    return Poly(acc, a.degree + b.degree)


class Derivation:
    """Degree +1 derivation of the free algebra, given by generator images.

    The extension to the whole algebra follows the graded Leibniz rule
    D(ab) = D(a) b + (-1)^{|a|} a D(b).
    """

    __slots__ = ("gens", "images")

    def __init__(self, gens: GeneratorSet, images):
        if isinstance(images, Mapping):
            aligned = [images.get(g.name, Poly.zero()) for g in gens]
        else:
            aligned = list(images)
            if len(aligned) != len(gens):
                raise ValueError("one image per generator is required")
        for g, img in zip(gens, aligned):
            if img.is_zero():
                continue
            if img.degree != g.degree + 1:
                raise DegreeMismatch(
                    f"image of {g.name} has degree {img.degree}, expected {g.degree + 1}"
                )
        self.gens = gens
        self.images = tuple(aligned)

    def image(self, i: int) -> Poly:
        return self.images[i]

    def extended(self, gens: GeneratorSet, new_images: Sequence[Poly]) -> "Derivation":
        return Derivation(gens, list(self.images) + list(new_images))

    def minimality_witness(self):
        """First (generator name, monomial) whose image has a linear term."""
        for g, img in zip(self.gens, self.images):
            for mono in img.terms:
                if len(mono) < 2:
                    return g.name, mono
        return None

    def columns(self, words: Iterable[Mono]) -> list:
        """D of each word, a sparse dict keyed by word, in one pass over the list."""
        degs, odd = self.gens._degrees, self.gens._odd
        images = [img.terms for img in self.images]
        out = []
        for mono in words:
            column: dict = {}
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
                            column[tuple(sorted(t + rest))] = c if s == 1 else c * s
                prefix += (end - k) * degs[i]
                k = end
            out.append(column)
        return out

    def apply_mono(self, mono: Mono) -> Poly:
        """D(mono) as a polynomial: the one-word view of `columns`."""
        (terms,) = self.columns([mono])
        return Poly(terms, self.gens.monomial_degree(mono) + 1) if terms else Poly()

    def apply(self, poly: Poly) -> Poly:
        acc: dict = {}
        for coeff, terms in zip(poly.terms.values(), self.columns(poly.terms)):
            add_scaled(acc, coeff, terms)
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
    return Subspace.from_vectors(len(blist), [{i: 1} for i in sorted(hit)])


def format_mono(gens: GeneratorSet, mono: Mono) -> str:
    if not mono:
        return "1"
    parts = []
    for i, run in groupby(mono):
        e = len(list(run))
        parts.append(gens[i].name if e == 1 else f"{gens[i].name}^{e}")
    return "*".join(parts)


def format_poly(gens: GeneratorSet, poly: Poly) -> str:
    if poly.is_zero():
        return "0"
    pieces = []
    for mono in sorted(poly.terms):
        coeff = poly.terms[mono]
        negative = coeff < 0
        mag = -coeff if negative else coeff
        body = format_mono(gens, mono)
        if body == "1":
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
