"""Exact multivector arithmetic for real Clifford algebras of signature (p, q).

Basis blades are encoded as bitmasks over the n = p + q generator slots:
generator i (1-based) occupies bit i - 1.  Generators 1..p square to +1,
generators p+1..n square to -1, and distinct generators anticommute.
Coefficients are exact rationals, stored internally as an integer numerator
per blade over one positive common denominator, so products and sums never
round.

The product sign of two blades is the parity of the transpositions needed to
interleave their generators, times the metric signs of the generators they
share.  One mask of the left blade (`_sign_mask`) gives that sign against
every right blade at any width, with no table (bitmap blades, as in Dorst,
Fontijne & Mann, *Geometric Algebra for Computer Science*), and its mirror
image, one mask of the right blade (`_mirror_mask`), gives it against every
left blade; the product loops over whichever operand has fewer blades.

A split over two commuting generator lists (`SplitBasis`) must be a signed
permutation of the blades, checked when it is made, so each recipe step
reads the factors of a blade off one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

MAX_GENERATORS = 32


class AlgebraError(Exception):
    """Base class for errors raised by the algebra layer."""


class SignatureMismatchError(AlgebraError):
    """Two operands belong to different algebras."""


class BladeWidthError(AlgebraError):
    """A blade mask does not fit the signature's generator count."""


class DegenerateSignatureError(AlgebraError):
    """The operation needs at least one generator."""


class DecompositionError(AlgebraError):
    """An element is not reachable from the requested generating set."""


class StructureError(AlgebraError):
    """Supplied generators violate the required square/anticommutation laws."""


@dataclass(frozen=True)
class Signature:
    """Generator counts (p, q): p squares of +1 followed by q squares of -1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"negative generator count in ({self.p}, {self.q})")
        if self.p + self.q > MAX_GENERATORS:
            raise BladeWidthError(
                f"signature ({self.p}, {self.q}) exceeds the {MAX_GENERATORS}-generator bound"
            )

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def neg_mask(self) -> int:
        """Bits of the generators squaring to -1."""
        return ((1 << self.q) - 1) << self.p

    def square_of(self, index: int) -> int:
        """Square (+1 or -1) of generator `index`, 1-based."""
        if not 1 <= index <= self.n:
            raise BladeWidthError(f"generator {index} outside 1..{self.n}")
        return 1 if index <= self.p else -1

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


# ---------------------------------------------------------------------------
# blade product signs


def _sign_mask(a: int, neg_mask: int) -> int:
    """Mask m with sign(a*b) = (-1)**popcount(m & b) for every blade b."""
    # bit i of x: parity of a's generators above slot i, which generator i of
    # b passes; five doubling shifts cover 32 generators, the Signature bound
    x = a >> 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    x ^= x >> 16
    return x ^ (a & neg_mask)


def _mirror_mask(b: int, neg_mask: int) -> int:
    """Mask m with sign(a*b) = (-1)**popcount(a & m) for every blade a."""
    # bit i of y: parity of b's generators below slot i, which generator i of
    # a passes; five doubling shifts cover 32 generators, the Signature bound
    y = b << 1
    y ^= y << 1
    y ^= y << 2
    y ^= y << 4
    y ^= y << 8
    y ^= y << 16
    return y ^ (b & neg_mask)


def _pair_sign(a: int, b: int, neg_mask: int) -> int:
    """Sign of the blade product a*b."""
    return -1 if (_sign_mask(a, neg_mask) & b).bit_count() & 1 else 1


def blade_product(sig: Signature, a: int, b: int) -> tuple[int, int]:
    """Multiply two basis blades given as masks; returns (sign, result mask)."""
    if a >> sig.n or b >> sig.n:
        raise BladeWidthError(f"blade mask wider than {sig.n} generators")
    if a < 0 or b < 0:
        raise BladeWidthError("blade masks must be non-negative")
    return _pair_sign(a, b, sig.neg_mask), a ^ b


def pseudoscalar_square(sig: Signature) -> int:
    """Square of the product of all generators, +1 or -1."""
    if sig.n == 0:
        raise DegenerateSignatureError("no generators: the unit element has no pseudoscalar")
    return _pair_sign(sig.full_mask, sig.full_mask, sig.neg_mask)


# ---------------------------------------------------------------------------
# multivectors


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


def _normalized(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    num = {m: c for m, c in num.items() if c}
    if not num:
        return {}, 1
    g = gcd(den, *num.values())
    if g > 1:
        den //= g
        num = {m: c // g for m, c in num.items()}
    return num, den


class Multivector:
    """Immutable element of the Clifford algebra with rational coefficients.

    Zero coefficients are never stored; equality and hashing are structural
    on the pruned term mapping.
    """

    __slots__ = ("sig", "_num", "_den")

    def __init__(self, sig: Signature, terms: Mapping[int, Fraction | int] | None = None):
        coeffs: dict[int, Fraction] = {}
        if terms:
            for mask, value in terms.items():
                if mask >> sig.n or mask < 0:
                    raise BladeWidthError(f"blade mask {mask:#x} outside signature {sig}")
                f = _as_fraction(value)
                if f:
                    coeffs[mask] = coeffs.get(mask, Fraction(0)) + f
        den = 1
        for f in coeffs.values():
            den = lcm(den, f.denominator)
        num = {m: int(f * den) for m, f in coeffs.items() if f}
        num, den = _normalized(num, den)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):  # copy and pickle rebuild rather than set slots
        return Multivector._raw, (self.sig, self._num, self._den)

    @classmethod
    def _raw(cls, sig: Signature, num: dict[int, int], den: int) -> "Multivector":
        mv = object.__new__(cls)
        num, den = _normalized(num, den)
        object.__setattr__(mv, "sig", sig)
        object.__setattr__(mv, "_num", num)
        object.__setattr__(mv, "_den", den)
        return mv

    # -- constructors

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls._raw(sig, {}, 1)

    @classmethod
    def scalar(cls, sig: Signature, value: Fraction | int) -> "Multivector":
        f = _as_fraction(value)
        return cls._raw(sig, {0: f.numerator}, f.denominator)

    @classmethod
    def blade(cls, sig: Signature, mask: int, coeff: Fraction | int = 1) -> "Multivector":
        if mask >> sig.n or mask < 0:
            raise BladeWidthError(f"blade mask {mask:#x} outside signature {sig}")
        f = _as_fraction(coeff)
        return cls._raw(sig, {mask: f.numerator}, f.denominator)

    @classmethod
    def generator(cls, sig: Signature, index: int) -> "Multivector":
        """Generator by 1-based index."""
        if not 1 <= index <= sig.n:
            raise BladeWidthError(f"generator {index} outside 1..{sig.n}")
        return cls.blade(sig, 1 << (index - 1))

    @classmethod
    def pseudoscalar(cls, sig: Signature) -> "Multivector":
        if sig.n == 0:
            raise DegenerateSignatureError("no generators")
        return cls.blade(sig, sig.full_mask)

    # -- inspection

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, mask: int) -> Fraction:
        return Fraction(self._num.get(mask, 0), self._den)

    def terms(self) -> list[tuple[int, Fraction]]:
        """(mask, coefficient) pairs in ascending mask order."""
        return [(m, Fraction(c, self._den)) for m, c in sorted(self._num.items())]

    def blades(self) -> list[int]:
        return sorted(self._num)

    # -- arithmetic

    def _check_sig(self, other: "Multivector") -> None:
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} vs {other.sig}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        da, db = self._den, other._den
        den = lcm(da, db)
        fa, fb = den // da, den // db
        num = {m: c * fa for m, c in self._num.items()}
        for m, c in other._num.items():
            num[m] = num.get(m, 0) + c * fb
        return Multivector._raw(self.sig, num, den)

    __radd__ = __add__

    def __neg__(self):
        return Multivector._raw(self.sig, {m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            num = {m: c * f.numerator for m, c in self._num.items()}
            return Multivector._raw(self.sig, num, self._den * f.denominator)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        num: dict[int, int] = {}
        _mul_accumulate(self.sig, num, self._num, other._num)
        return Multivector._raw(self.sig, num, self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if not f:
                raise ZeroDivisionError("division of a multivector by zero")
            return self * Fraction(f.denominator, f.numerator)
        return NotImplemented

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = Multivector.scalar(self.sig, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    # -- comparison

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self.sig, self._den, frozenset(self._num.items())))

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        from . import text

        return f"<{text.format_multivector(self)} in {self.sig}>"

    def __str__(self):
        from . import text

        return text.format_multivector(self)


def _mul_accumulate(sig: Signature, out: dict[int, int], xa: dict[int, int], xb: dict[int, int]) -> None:
    """Accumulate the integer-numerator blade products of xa*xb into out.

    The operand with fewer blades runs the outer loop, so each of its blades
    pays for one sign mask: `_sign_mask` for a left blade, `_mirror_mask`
    for a right one, either read against the other side's blades.  Only the
    order in which out's keys appear depends on it.
    """
    neg = sig.neg_mask
    get = out.get
    if len(xb) < len(xa):
        outer, inner, mask = xb, xa, _mirror_mask
    else:
        outer, inner, mask = xa, xb, _sign_mask
    for mo, co in outer.items():
        flip = mask(mo, neg)
        signed = (co, -co)
        for mi, ci in inner.items():
            k = mo ^ mi
            out[k] = get(k, 0) + signed[(flip & mi).bit_count() & 1] * ci


# ---------------------------------------------------------------------------
# generator lists and structured decompositions


def _square_sign(mv: Multivector, name: str = "element") -> int:
    sq = mv * mv
    if sq == 1:
        return 1
    if sq == -1:
        return -1
    raise StructureError(f"{name} squares to {sq}, not +1 or -1")


class GeneratorList:
    """Elements acting as the generators of an abstract signature inside a host.

    Every element must square to +1 or -1 and all pairs must anticommute;
    the squares, sorted +1 before -1, determine the abstract signature the
    list presents.  Subset products (ascending position order) are cached.
    """

    def __init__(self, sig: Signature, elements: Sequence[Multivector]):
        self.sig = sig
        self.elements = tuple(elements)
        for g in self.elements:
            if g.sig != sig:
                raise SignatureMismatchError("generator from a different algebra")
        computed = [_square_sign(g, f"generator {idx}") for idx, g in enumerate(self.elements)]
        for i in range(len(self.elements)):
            for j in range(i + 1, len(self.elements)):
                gi, gj = self.elements[i], self.elements[j]
                if gi * gj != -(gj * gi):
                    raise StructureError(f"generators {i} and {j} do not anticommute")
        self.squares = tuple(computed)
        pos = sum(1 for s in computed if s == 1)
        if any(s == 1 for s in computed[pos:]):
            raise StructureError("squares must be ordered with all +1 generators first")
        self.abstract_signature = Signature(pos, len(computed) - pos)
        self._products: dict[int, Multivector] = {0: Multivector.scalar(sig, 1)}

    def __len__(self) -> int:
        return len(self.elements)

    def product(self, subset_mask: int) -> Multivector:
        """Ordered product of the generators selected by an abstract mask."""
        cached = self._products.get(subset_mask)
        if cached is not None:
            return cached
        low = subset_mask & -subset_mask
        rest = subset_mask ^ low
        value = self.elements[low.bit_length() - 1] * self.product(rest)
        self._products[subset_mask] = value
        return value


class SplitBasis:
    """Rewriting of host elements over (sub generators) x (outer generators).

    Every generator is a signed blade and the products (sub)_S * (outer)_A
    are distinct signed blades, so the change of basis from host blades to
    these products is a signed permutation: ``_lookup`` maps a host blade to
    (outer mask, sub mask, sign), built by blade arithmetic when the split is
    made.  A split that is not a signed permutation raises StructureError
    there; this module is the one place that decides it.
    """

    def __init__(self, sub: GeneratorList, outer: GeneratorList):
        if sub.sig != outer.sig:
            raise SignatureMismatchError("sub and outer generators in different algebras")
        for u in outer.elements:
            for g in sub.elements:
                if u * g != g * u:
                    raise StructureError("outer generator does not commute with the sub generators")
        self.sig = sub.sig
        self.sub = sub
        self.outer = outer
        # (sub)_S * (outer)_A is the ordered product of the subset S | A << len(sub)
        # of sub's generators then outer's, as (sign, blade); each new
        # generator has the highest index, so it multiplies on the right
        products = [(1, 0)]
        for g in sub.elements + outer.elements:
            if len(g._num) != 1:
                raise StructureError(f"generator {g} is not a signed blade")
            ((mask, sign),) = g._num.items()  # +1 or -1, as g squares to +1 or -1
            flip, signed = _mirror_mask(mask, self.sig.neg_mask), (sign, -sign)
            products += [(s * signed[(flip & m).bit_count() & 1], m ^ mask) for s, m in products]
        width, low = len(sub), (1 << len(sub)) - 1
        self._lookup = {m: (i >> width, i & low, s) for i, (s, m) in enumerate(products)}
        if len(self._lookup) < len(products):
            raise StructureError("the sub x outer products are not distinct blades")

    def decompose(self, a: Multivector) -> dict[int, Multivector]:
        """Components of ``a`` keyed by outer subset mask, as abstract sub
        elements.  The recipes read ``_lookup`` itself; this stays while
        perfbench/tracing.py traces it by name (tests/test_tracer_targets.py)."""
        if a.sig != self.sig:
            raise SignatureMismatchError("element from a different algebra")
        buckets: dict[int, dict[int, Fraction]] = {}
        for mask, coeff in a.terms():
            hit = self._lookup.get(mask)
            if hit is None:
                raise DecompositionError(
                    f"blade {mask:#x} is not reachable from the given generators"
                )
            amask, smask, factor = hit
            buckets.setdefault(amask, {})[smask] = coeff / factor
        sub_sig = self.sub.abstract_signature
        return {am: Multivector(sub_sig, terms) for am, terms in buckets.items()}


class LinearSolver:
    """Exact rational solver for a fixed column family, factored once.

    Solves ``sum x_j col_j = target`` and reports inconsistency with None.
    Nothing calls it; it stays while perfbench/tracing.py traces it by name.
    """

    def __init__(self, columns: Sequence[Sequence[Fraction]]):
        self.ncols = len(columns)
        self.nrows = len(columns[0]) if columns else 0
        # rows of [A | I] reduced to echelon form; track pivot columns
        aug = []
        for r in range(self.nrows):
            row = [columns[c][r] for c in range(self.ncols)]
            rhs = [Fraction(int(i == r)) for i in range(self.nrows)]
            aug.append(row + rhs)
        self.pivots: list[tuple[int, int]] = []  # (row, col)
        row = 0
        for col in range(self.ncols):
            pivot = next((r for r in range(row, self.nrows) if aug[r][col]), None)
            if pivot is None:
                continue
            aug[row], aug[pivot] = aug[pivot], aug[row]
            inv = 1 / aug[row][col]
            aug[row] = [v * inv for v in aug[row]]
            for r in range(self.nrows):
                if r != row and aug[r][col]:
                    factor = aug[r][col]
                    aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
            self.pivots.append((row, col))
            row += 1
            if row == self.nrows:
                break
        self.rank = row
        self._aug = aug

    def solve(self, target: Sequence[Fraction]) -> list[Fraction] | None:
        width = self.ncols
        transformed = []
        for r in range(self.nrows):
            acc = Fraction(0)
            rowdata = self._aug[r]
            for i, t in enumerate(target):
                if t:
                    acc += rowdata[width + i] * t
            transformed.append(acc)
        x = [Fraction(0)] * self.ncols
        for row, col in self.pivots:
            x[col] = transformed[row]
        # consistency: rows below the rank must have zero transformed target
        for r in range(self.rank, self.nrows):
            if transformed[r]:
                return None
        return x


def reindex(a_abstract: Multivector, gens: GeneratorList) -> Multivector:
    """Structure-preserving image of an abstract element through ``gens``."""
    if a_abstract.sig != gens.abstract_signature:
        raise StructureError(
            f"element over {a_abstract.sig} does not match generators presenting "
            f"{gens.abstract_signature}"
        )
    total = Multivector.zero(gens.sig)
    for mask, coeff in a_abstract.terms():
        total = total + gens.product(mask) * coeff
    return total
