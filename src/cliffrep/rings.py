"""Exact dense matrix arithmetic over R, C, H and the doubled rings 2R, 2H.

Scalars carry a ring tag and up to four rational components; complex and
quaternion products follow the usual unit laws (i^2 = j^2 = -1, ij = k =
-ji).  Plain rings live in RingMatrix, the doubled rings in BlockPair, an
ordered pair of same-size blocks composed entrywise.  Everything is
immutable and exact.

Every ring element is read and built as flat integer numerators over one
common denominator, one to four components per entry, a doubled ring's
plus block then its minus block (to_numerators, from_numerators); a
RingMatrix stores that layout reduced, so each value has one stored form.
Products (over R, C and H), determinants (fraction-free Bareiss
elimination over R and over the Gaussian integers for C, blockwise over
2R), characteristic polynomials (Faddeev-LeVerrier, blockwise over 2R),
sums, scaling, equality and formatting all run on those integers.  ``rows``
and ``entry`` read a RingScalar view built on first use; inversion
eliminates over that view.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

REAL = "R"
COMPLEX = "C"
QUATERNION = "H"
DOUBLE_REAL = "2R"
DOUBLE_QUATERNION = "2H"

PLAIN_RINGS = (REAL, COMPLEX, QUATERNION)
# each doubled ring and the ring of its two blocks
BLOCK_RING = {DOUBLE_REAL: REAL, DOUBLE_QUATERNION: QUATERNION}

# rational components per matrix entry; a doubled ring counts its blocks' ring
COMPONENTS = {REAL: 1, COMPLEX: 2, QUATERNION: 4, DOUBLE_REAL: 1, DOUBLE_QUATERNION: 4}


class RingError(Exception):
    """Base class for ring/matrix usage errors."""


class RingMismatchError(RingError):
    """Operands carry different ring tags or incompatible shapes."""


class UnsupportedRingError(RingError):
    """The operation is not defined over the operand's ring."""


class NumberTooLongError(RingError):
    """A number has more digits than the interpreter converts to text."""


class InexactDivisionError(RingError):
    """A division the integer kernel proves exact left a remainder."""


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class RingScalar:
    """Tagged scalar over R, C or H with exact rational components."""

    __slots__ = ("ring", "r", "i", "j", "k")

    def __init__(self, ring: str, r=0, i=0, j=0, k=0):
        if ring not in PLAIN_RINGS:
            raise UnsupportedRingError(f"no scalar type for ring {ring!r}")
        r, i, j, k = _frac(r), _frac(i), _frac(j), _frac(k)
        rank = COMPONENTS[ring]
        if rank < 4 and (j or k):
            raise RingMismatchError(f"{ring} scalar with j/k components")
        if rank < 2 and i:
            raise RingMismatchError("real scalar with an imaginary component")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RingScalar is immutable")

    def __reduce__(self):  # copy and pickle rebuild rather than set slots
        return RingScalar, (self.ring, self.r, self.i, self.j, self.k)

    # -- constructors

    @classmethod
    def real(cls, value) -> "RingScalar":
        return cls(REAL, value)

    @classmethod
    def complex_parts(cls, r, i) -> "RingScalar":
        return cls(COMPLEX, r, i)

    @classmethod
    def quaternion_parts(cls, r, i, j, k) -> "RingScalar":
        return cls(QUATERNION, r, i, j, k)

    @classmethod
    def zero(cls, ring: str) -> "RingScalar":
        return cls(ring)

    @classmethod
    def one(cls, ring: str) -> "RingScalar":
        return cls(ring, 1)

    def components(self) -> tuple[Fraction, ...]:
        return (self.r, self.i, self.j, self.k)[: COMPONENTS[self.ring]]

    @property
    def is_zero(self) -> bool:
        return not (self.r or self.i or self.j or self.k)

    def _check(self, other: "RingScalar") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "RingScalar") -> "RingScalar":
        self._check(other)
        return RingScalar(
            self.ring, self.r + other.r, self.i + other.i, self.j + other.j, self.k + other.k
        )

    def __sub__(self, other: "RingScalar") -> "RingScalar":
        self._check(other)
        return RingScalar(
            self.ring, self.r - other.r, self.i - other.i, self.j - other.j, self.k - other.k
        )

    def __neg__(self) -> "RingScalar":
        return RingScalar(self.ring, -self.r, -self.i, -self.j, -self.k)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return RingScalar(self.ring, self.r * f, self.i * f, self.j * f, self.k * f)
        if not isinstance(other, RingScalar):
            return NotImplemented
        self._check(other)
        a0, a1, a2, a3 = self.r, self.i, self.j, self.k
        b0, b1, b2, b3 = other.r, other.i, other.j, other.k
        # quaternion product; exact for the complex and real sub-cases
        return RingScalar(
            self.ring,
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def conjugate(self) -> "RingScalar":
        return RingScalar(self.ring, self.r, -self.i, -self.j, -self.k)

    def norm_sq(self) -> Fraction:
        return self.r * self.r + self.i * self.i + self.j * self.j + self.k * self.k

    def inverse(self) -> "RingScalar | None":
        n = self.norm_sq()
        if not n:
            return None
        return self.conjugate() * (1 / n)

    def __eq__(self, other):
        if not isinstance(other, RingScalar):
            return NotImplemented
        return (self.ring, self.r, self.i, self.j, self.k) == (
            other.ring,
            other.r,
            other.i,
            other.j,
            other.k,
        )

    def __hash__(self):
        return hash((self.ring, self.r, self.i, self.j, self.k))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"RingScalar({self.ring!r}, {format_scalar(self)})"


def _too_long() -> NumberTooLongError:
    return NumberTooLongError(
        f"a number passes the interpreter's {sys.get_int_max_str_digits()}-digit "
        "limit on int-to-str conversion"
    )


def format_scalar(s: RingScalar) -> str:
    """Scalar grammar: ``a``, ``a+bi``, ``a+bi+cj+dk`` with zero parts dropped."""
    parts = (s.r, s.i, s.j, s.k)
    den = lcm(*(x.denominator for x in parts))
    return _cell_text([x.numerator * (den // x.denominator) for x in parts], den)


def _cell_parts(ring: str, r=0, i=0, j=0, k=0) -> tuple[Fraction, ...]:
    """The components of a C or H cell, refused as RingScalar refuses them."""
    parts = tuple(map(_frac, (r, i, j, k)))
    if any(parts[COMPONENTS[ring] :]):
        raise RingMismatchError(f"{ring} scalar with j/k components")
    return parts[: COMPONENTS[ring]]


def _plain_rank(ring: str) -> int:
    if ring not in PLAIN_RINGS:
        raise UnsupportedRingError(f"RingMatrix does not hold ring {ring!r}")
    return COMPONENTS[ring]


class RingMatrix:
    """Immutable dense matrix with entries sharing one plain ring tag.

    Stored as flat integer numerators over one positive denominator, in the
    layout to_numerators describes, reduced so that the denominator and the
    numerators have no common factor: equal matrices have one stored form.
    ``rows`` is a RingScalar view built on first read.
    """

    __slots__ = ("ring", "nrows", "ncols", "_nums", "_den", "_rows")

    def __init__(self, ring: str, rows: Sequence[Sequence[RingScalar]]):
        rank = _plain_rank(ring)
        grid = tuple(tuple(row) for row in rows)
        for row in grid:
            for entry in row:
                if not isinstance(entry, RingScalar) or entry.ring != ring:
                    raise RingMismatchError("entry ring tag differs from the matrix tag")
        cells = [[s.r if rank == 1 else s.components() for s in row] for row in grid]
        m = RingMatrix.from_components(ring, cells)
        _init(self, ring, m.nrows, m.ncols, m._nums, m._den, grid)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RingMatrix is immutable")

    def __reduce__(self):  # copy and pickle rebuild rather than set slots
        return from_numerators, (self.ring, self.ncols, self._nums, self._den)

    @property
    def rows(self) -> tuple[tuple[RingScalar, ...], ...]:
        if self._rows is None:
            object.__setattr__(self, "_rows", _scalar_rows(self))
        return self._rows

    @classmethod
    def from_components(cls, ring: str, rows) -> "RingMatrix":
        """Build from bare rationals (R), (r, i) pairs (C) or 4-tuples (H),
        shorter tuples filled with zeros, over one common denominator and
        without a RingScalar per entry; a cell is refused as RingScalar
        refuses it."""
        if _plain_rank(ring) == 1:
            grid = [[(_frac(cell),) for cell in row] for row in rows]
        else:
            grid = [[_cell_parts(ring, *cell) for cell in row] for row in rows]
        if not grid or not grid[0]:
            raise RingMismatchError("empty matrix")
        if any(len(row) != len(grid[0]) for row in grid):
            raise RingMismatchError("ragged rows")
        parts = [x for row in grid for cell in row for x in cell]
        den = lcm(*(x.denominator for x in parts))
        return from_numerators(ring, len(grid[0]), [x.numerator * (den // x.denominator) for x in parts], den)

    @classmethod
    def identity(cls, ring: str, size: int) -> "RingMatrix":
        rank = _plain_rank(ring)
        one, zero = [1] + [0] * (rank - 1), [0] * rank
        nums = [x for r in range(size) for c in range(size) for x in (one if r == c else zero)]
        return from_numerators(ring, size, nums, 1)

    @classmethod
    def zeros(cls, ring: str, nrows: int, ncols: int | None = None) -> "RingMatrix":
        ncols = nrows if ncols is None else ncols
        return from_numerators(ring, ncols, [0] * (nrows * ncols * _plain_rank(ring)), 1)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def size(self) -> int:
        if not self.is_square:
            raise RingMismatchError("size of a non-square matrix")
        return self.nrows

    def entry(self, r: int, c: int) -> RingScalar:
        return self.rows[r][c]

    def _check_ring(self, other: "RingMatrix") -> None:
        if not isinstance(other, RingMatrix) or other.ring != self.ring:
            raise RingMismatchError("ring tags differ")

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise RingMismatchError("shape mismatch in addition")
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        nums = [x * fa + y * fb for x, y in zip(self._nums, other._nums)]
        return from_numerators(self.ring, self.ncols, nums, den)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self + (-other)

    def __neg__(self) -> "RingMatrix":
        return from_numerators(self.ring, self.ncols, [-x for x in self._nums], self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RingMatrix):
            return NotImplemented
        self._check_ring(other)
        if self.ncols != other.nrows:
            raise RingMismatchError("shape mismatch in product")
        product = _product(self.ring, self._nums, other._nums, self.nrows, self.ncols, other.ncols)
        return from_numerators(self.ring, other.ncols, product, self._den * other._den)

    def scale(self, factor) -> "RingMatrix":
        f = _frac(factor)
        nums = [x * f.numerator for x in self._nums]
        return from_numerators(self.ring, self.ncols, nums, self._den * f.denominator)

    def map_entries(self, fn: Callable[[RingScalar], RingScalar]) -> "RingMatrix":
        return RingMatrix(self.ring, [[fn(a) for a in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.ring, self.nrows, self.ncols, self._den, self._nums))

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"<RingMatrix {self.ring} {self.nrows}x{self.ncols}>"


def _init(m: RingMatrix, ring: str, nrows: int, ncols: int, nums: tuple, den: int, rows) -> None:
    put = object.__setattr__
    put(m, "ring", ring)
    put(m, "nrows", nrows)
    put(m, "ncols", ncols)
    put(m, "_nums", nums)
    put(m, "_den", den)
    put(m, "_rows", rows)


class BlockPair:
    """Element of a doubled ring: an ordered (plus, minus) pair of blocks."""

    __slots__ = ("ring", "plus", "minus")

    def __init__(self, ring: str, plus: RingMatrix, minus: RingMatrix):
        inner = BLOCK_RING.get(ring)
        if inner is None:
            raise UnsupportedRingError(f"BlockPair does not hold ring {ring!r}")
        for block in (plus, minus):
            if not isinstance(block, RingMatrix) or block.ring != inner:
                raise RingMismatchError(f"{ring} blocks must be RingMatrix blocks over {inner}")
        if (plus.nrows, plus.ncols) != (minus.nrows, minus.ncols):
            raise RingMismatchError("blocks of different shapes")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("BlockPair is immutable")

    def __reduce__(self):  # copy and pickle rebuild rather than set slots
        return BlockPair, (self.ring, self.plus, self.minus)

    @classmethod
    def identity(cls, ring: str, size: int) -> "BlockPair":
        # any other ring reaches the typed refusal in __init__
        eye = RingMatrix.identity(BLOCK_RING.get(ring, REAL), size)
        return cls(ring, eye, eye)

    @property
    def nrows(self) -> int:
        return self.plus.nrows

    @property
    def ncols(self) -> int:
        return self.plus.ncols

    @property
    def size(self) -> int:
        return self.plus.size

    def _check(self, other: "BlockPair") -> None:
        if not isinstance(other, BlockPair) or other.ring != self.ring:
            raise RingMismatchError("ring tags differ")

    def __add__(self, other: "BlockPair") -> "BlockPair":
        self._check(other)
        return BlockPair(self.ring, self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other: "BlockPair") -> "BlockPair":
        self._check(other)
        return BlockPair(self.ring, self.plus - other.plus, self.minus - other.minus)

    def __neg__(self) -> "BlockPair":
        return BlockPair(self.ring, -self.plus, -self.minus)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BlockPair(self.ring, self.plus * other, self.minus * other)
        if not isinstance(other, BlockPair):
            return NotImplemented
        self._check(other)
        return BlockPair(self.ring, self.plus * other.plus, self.minus * other.minus)

    def scale(self, factor) -> "BlockPair":
        return BlockPair(self.ring, self.plus.scale(factor), self.minus.scale(factor))

    def __eq__(self, other):
        if not isinstance(other, BlockPair):
            return NotImplemented
        return self.ring == other.ring and self.plus == other.plus and self.minus == other.minus

    def __hash__(self):
        return hash((self.ring, self.plus, self.minus))

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"<BlockPair {self.ring} {self.nrows}x{self.ncols} x2>"


RingElement = RingMatrix | BlockPair


# ---------------------------------------------------------------------------
# integer kernel
#
# A matrix is read as flat integer numerators over one common denominator:
# entry (r, c) holds its COMPONENTS[ring] components at (r * ncols + c) * rank
# onwards, and a doubled ring's pair is its plus block's run then its minus
# block's.  The components of one unit, nums[u::rank], form a real matrix
# (a plane), so a product over C or H is a signed sum of real plane products.

_ZERO = Fraction(0)

# (s, t, u, sign): unit s times unit t is sign * unit u, for 1, i, j, k; the
# entries with s, t < rank are the unit laws of R and C
_UNIT_PRODUCTS = (
    (0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1),
    (0, 2, 2, 1), (0, 3, 3, 1), (1, 2, 3, 1), (1, 3, 2, -1),
    (2, 0, 2, 1), (2, 1, 3, -1), (2, 2, 0, -1), (2, 3, 1, 1),
    (3, 0, 3, 1), (3, 1, 2, 1), (3, 2, 1, -1), (3, 3, 0, -1),
)


def to_numerators(a: RingElement) -> tuple[list[int], int]:
    """Flat integer numerators of ``a`` over their least common denominator,
    as a fresh list: the matrix keeps its own copy.  A doubled ring's are
    the plus block's followed by the minus block's."""
    if isinstance(a, BlockPair):
        den = lcm(a.plus._den, a.minus._den)
        return [x * (den // b._den) for b in (a.plus, a.minus) for x in b._nums], den
    return list(a._nums), a._den


def from_numerators(ring: str, ncols: int, nums: Sequence[int], den: int) -> RingElement:
    """The ring element whose flat numerators over ``den`` are ``nums``: a
    RingMatrix, or for a doubled ring the BlockPair of the two halves."""
    inner = BLOCK_RING.get(ring)
    if inner is not None:
        half, odd = divmod(len(nums), 2)
        if odd:
            raise RingMismatchError(f"{len(nums)} numerators do not split into two {ring} blocks")
        plus = from_numerators(inner, ncols, nums[:half], den)
        return BlockPair(ring, plus, from_numerators(inner, ncols, nums[half:], den))
    rank = _plain_rank(ring)
    if not nums or ncols < 1:
        raise RingMismatchError("empty matrix")
    if len(nums) % (rank * ncols):
        raise RingMismatchError("ragged rows")
    if den < 1:
        raise RingMismatchError(f"denominator {den} is not positive")
    nums = tuple(nums)
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(x // g for x in nums)
            den //= g
    m = object.__new__(RingMatrix)
    _init(m, ring, len(nums) // (rank * ncols), ncols, nums, den, None)
    return m


def _scalar_rows(a: RingMatrix) -> tuple[tuple[RingScalar, ...], ...]:
    """The RingScalar grid of ``a``, built from its numerators."""
    ring, den, rank = a.ring, a._den, COMPONENTS[a.ring]
    zero = RingScalar.zero(ring)
    cells = []
    for i in range(0, len(a._nums), rank):
        part = a._nums[i : i + rank]
        if any(part):
            cells.append(_kernel_scalar(ring, [Fraction(x, den) if x else _ZERO for x in part]))
        else:
            cells.append(zero)
    width = a.ncols
    return tuple(tuple(cells[i : i + width]) for i in range(0, len(cells), width))


def _kernel_scalar(ring: str, parts: list[Fraction]) -> RingScalar:
    """A RingScalar from its ring's components as the kernel made them,
    without RingScalar's checks and conversions."""
    s = object.__new__(RingScalar)
    put = object.__setattr__
    r, i, j, k = (*parts, _ZERO, _ZERO, _ZERO)[:4]
    put(s, "ring", ring)
    put(s, "r", r)
    put(s, "i", i)
    put(s, "j", j)
    put(s, "k", k)
    return s


def _product(ring: str, a: list[int], b: list[int], n: int, m: int, p: int) -> list[int]:
    """Flat numerators of the (n x m)(m x p) product, as a signed sum of plane
    products."""
    rank = COMPONENTS[ring]
    a_planes = [a[s::rank] for s in range(rank)]
    b_planes = [b[t::rank] for t in range(rank)]
    a_rows = [[plane[i : i + m] for i in range(0, n * m, m)] for plane in a_planes]
    b_cols = [[plane[c::p] for c in range(p)] for plane in b_planes]
    out = [0] * (n * p * rank)
    for s, t, u, sign in _UNIT_PRODUCTS:
        if s >= rank or t >= rank:
            continue
        plane = (sum(map(operator.mul, row, col)) for row in a_rows[s] for col in b_cols[t])
        out[u::rank] = [x + sign * y for x, y in zip(out[u::rank], plane)]
    return out


def _divide_exact(x: int, d: int) -> int:
    q, r = divmod(x, d)
    if r:
        raise InexactDivisionError(f"{x} is not a multiple of {d}")
    return q


def _gauss_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gauss_sub(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] - y[0], x[1] - y[1]


def _gauss_divide_exact(x: tuple[int, int], d: tuple[int, int]) -> tuple[int, int]:
    """x / d in the Gaussian integers: x * conj(d) / |d|^2, both parts exact."""
    norm = d[0] * d[0] + d[1] * d[1]
    re, im = _gauss_mul(x, (d[0], -d[1]))
    return _divide_exact(re, norm), _divide_exact(im, norm)


# (zero, one, product, difference, exact quotient) of the integers, for R,
# and of the Gaussian integers, as (re, im) pairs, for C
_DOMAINS = {
    REAL: (0, 1, operator.mul, operator.sub, _divide_exact),
    COMPLEX: ((0, 0), (1, 0), _gauss_mul, _gauss_sub, _gauss_divide_exact),
}


def _bareiss(rows: list[list], ring: str) -> tuple[object, int]:
    """Determinant of a square matrix over the ring's integral domain by
    fraction-free elimination (Bareiss, Math. Comp. 1968): after step k each
    remaining entry is a (k+1)-minor, so every division by the previous pivot
    is exact.  Returns the determinant up to sign and the number of row swaps."""
    zero, one, mul, sub, divide = _DOMAINS[ring]
    n = len(rows)
    swaps, prev = 0, one
    for k in range(n - 1):
        if rows[k][k] == zero:
            pivot = next((r for r in range(k + 1, n) if rows[r][k] != zero), None)
            if pivot is None:
                return zero, 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            swaps += 1
        head, pk = rows[k], rows[k][k]
        for row in rows[k + 1 :]:
            f = row[k]
            tail = zip(row[k + 1 :], head[k + 1 :])
            row[k + 1 :] = [divide(sub(mul(x, pk), mul(f, y)), prev) for x, y in tail]
        prev = pk
    return rows[n - 1][n - 1], swaps


def ring_identity(ring: str, size: int) -> RingElement:
    if ring in BLOCK_RING:
        return BlockPair.identity(ring, size)
    return RingMatrix.identity(ring, size)


def mat_inverse(a: RingElement) -> RingElement | None:
    """Two-sided inverse, or None when singular.

    Over H the elimination multiplies rows from the left only, which is
    sound in a division ring; doubled rings invert blockwise.
    """
    if isinstance(a, BlockPair):
        plus = mat_inverse(a.plus)
        minus = mat_inverse(a.minus)
        if plus is None or minus is None:
            return None
        return BlockPair(a.ring, plus, minus)
    if not a.is_square:
        raise RingMismatchError("only square matrices invert")
    n = a.size
    work = [list(row) for row in a.rows]
    aug = [list(row) for row in RingMatrix.identity(a.ring, n).rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = work[col][col].inverse()
        work[col] = [inv * v for v in work[col]]
        aug[col] = [inv * v for v in aug[col]]
        for r in range(n):
            if r != col and not work[r][col].is_zero:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return RingMatrix(a.ring, aug)


def _det_numerators(a: RingMatrix) -> tuple[object, int]:
    """det(a) as (det N, den^n) for the numerators N = den * a, by Bareiss
    elimination on N: det N is an integer over R and a Gaussian integer
    (re, im) over C, the sign of the row swaps taken."""
    n, nums = a.size, a._nums
    entries = nums if a.ring == REAL else list(zip(nums[0::2], nums[1::2]))
    det, swaps = _bareiss([list(entries[i : i + n]) for i in range(0, n * n, n)], a.ring)
    if swaps & 1:
        det = -det if a.ring == REAL else (-det[0], -det[1])
    return det, a._den**n


def mat_det(a: RingElement) -> RingScalar:
    """Determinant over the commutative rings R and C: Bareiss elimination on
    the integer (R) or Gaussian-integer (C) numerators, over den^n.  A 2R
    pair's is det(plus) * det(minus), each block's taken the same way."""
    if a.ring == QUATERNION:
        raise UnsupportedRingError("no determinant over the quaternions")
    if a.ring == DOUBLE_QUATERNION:
        raise UnsupportedRingError("determinant over doubled quaternions is unsupported")
    if a.nrows != a.ncols:
        raise RingMismatchError("determinant of a non-square matrix")
    if isinstance(a, BlockPair):
        (plus, plus_den), (minus, minus_den) = map(_det_numerators, (a.plus, a.minus))
        return RingScalar(REAL, Fraction(plus * minus, plus_den * minus_den))
    det, scale = _det_numerators(a)
    parts = (det,) if a.ring == REAL else det
    return RingScalar(a.ring, *(Fraction(x, scale) for x in parts))


def _charpoly_numerators(a: RingMatrix) -> tuple[list[int], int]:
    """([1, C1, ..., Cn], den): the characteristic polynomial of the integer
    numerators N = den * a, so that a's coefficients are c_k = C_k / den^k.

    Faddeev-LeVerrier on row lists of N: M_0 = I, C_k = -tr(N M_(k-1)) / k
    and M_k = N M_(k-1) + C_k I, each M_k kept by columns.  The C_k are
    integers, so each division by k is exact.  N M_0 is N itself, and the
    last step reads only the trace of N M_(n-1), n dot products."""
    n, nums = a.size, a._nums
    if n == 1:
        return [1, -nums[0]], a._den
    rows = [nums[i : i + n] for i in range(0, n * n, n)]
    cols = [list(col) for col in zip(*rows)]  # N M_0
    coeffs = [1]
    for k in range(1, n):
        if k > 1:
            cols = [[sum(map(operator.mul, row, col)) for row in rows] for col in cols]
        c = _divide_exact(-sum(col[j] for j, col in enumerate(cols)), k)
        coeffs.append(c)
        for j, col in enumerate(cols):
            col[j] += c
    trace = sum(sum(map(operator.mul, row, col)) for row, col in zip(rows, cols))
    coeffs.append(_divide_exact(-trace, n))
    return coeffs, a._den


def char_poly(a: RingElement) -> list[Fraction]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] over R,
    by Faddeev-LeVerrier on the integer numerators (_charpoly_numerators).
    A 2R pair's is the exact product of its two blocks' polynomials."""
    if a.ring not in (REAL, DOUBLE_REAL):
        raise UnsupportedRingError("characteristic polynomial needs a real target")
    if a.nrows != a.ncols:
        raise RingMismatchError("characteristic polynomial of a non-square matrix")
    if not isinstance(a, BlockPair):
        coeffs, den = _charpoly_numerators(a)
        return [Fraction(c, den**k) for k, c in enumerate(coeffs)]
    (plus, plus_den), (minus, minus_den) = map(_charpoly_numerators, (a.plus, a.minus))
    # a block's coefficient C_k / d^k is C_k (den/d)^k / den^k over the common
    # denominator den, so the product's numerators are a convolution
    den = lcm(plus_den, minus_den)
    plus = [c * (den // plus_den) ** k for k, c in enumerate(plus)]
    minus = [c * (den // minus_den) ** k for k, c in enumerate(minus)]
    out = [0] * (len(plus) + len(minus) - 1)
    for i, x in enumerate(plus):
        for j, y in enumerate(minus):
            out[i + j] += x * y
    return [Fraction(x, den**k) for k, x in enumerate(out)]


def poly_eval_matrix(coeffs: Sequence[Fraction], a: RingMatrix) -> RingMatrix:
    """Evaluate a polynomial (descending powers, monic first) at a matrix."""
    acc = RingMatrix.zeros(a.ring, a.size)
    eye = RingMatrix.identity(a.ring, a.size)
    for c in coeffs:
        acc = acc * a + eye.scale(c)
    return acc


def ring_embed_real(a: RingMatrix) -> RingMatrix:
    """Replace complex entries by 2x2 real blocks, quaternion by 4x4 blocks.

    The block patterns make the embedding multiplicative:
        r + si        -> [[r, -s], [s, r]]
        r + si+tj+uk  -> [[r, -s, -t, -u], [s, r, -u, t], [t, u, r, -s], [u, -t, s, r]]
    """
    if a.ring == REAL:
        return a
    if a.ring == COMPLEX:
        width = 2

        def block(s: RingScalar):
            return ((s.r, -s.i), (s.i, s.r))

    elif a.ring == QUATERNION:
        width = 4

        def block(s: RingScalar):
            return (
                (s.r, -s.i, -s.j, -s.k),
                (s.i, s.r, -s.k, s.j),
                (s.j, s.k, s.r, -s.i),
                (s.k, -s.j, s.i, s.r),
            )

    else:
        raise UnsupportedRingError(f"cannot embed ring {a.ring!r}")
    rows = []
    for row in a.rows:
        blocks = [block(s) for s in row]
        for sub in range(width):
            rows.append([RingScalar.real(v) for b in blocks for v in b[sub]])
    return RingMatrix(REAL, rows)


def format_matrix(a: RingElement) -> str:
    """Ring tag and shape header (``n`` when square, else ``rxc``), then
    aligned rows; doubled rings label both blocks."""
    shape = f"{a.nrows}" if a.nrows == a.ncols else f"{a.nrows}x{a.ncols}"
    head = f"{a.ring}({shape})"
    if isinstance(a, BlockPair):
        return "\n".join([head, "plus:", _format_rows(a.plus), "minus:", _format_rows(a.minus)])
    return f"{head}\n{_format_rows(a)}"


def _format_rows(a: RingMatrix) -> str:
    """The rows of ``a``, each cell right-aligned in its column.

    Each distinct value (over C and H, each distinct tuple of ``rank``
    numerators) is printed once, the cells are looked up from those texts,
    and one ``%``-style row template, repeated over the rows, is filled from
    the tuple of cell texts in one step."""
    rank, den, nums, width = COMPONENTS[a.ring], a._den, a._nums, a.ncols
    if rank == 1:
        keys = nums
        try:
            text = {x: str(x) if den == 1 else format_ratio(x, den) for x in set(keys)}
        except ValueError:  # only raised past the digit limit, which then exists
            raise _too_long() from None
    else:
        keys = list(zip(*[iter(nums)] * rank))  # one rank-tuple per entry
        text = {part: _cell_text(part, den) for part in set(keys)}
    cells = tuple(map(text.__getitem__, keys))
    widths = [max(map(len, cells[c::width])) for c in range(width)]
    row = "[ " + "  ".join([f"%{w}s" for w in widths]) + " ]"
    return "\n".join([row] * a.nrows) % cells


def format_ratio(x: int, den: int) -> str:
    """x / den in lowest terms as ``n`` or ``n/d``, with x's sign;
    NumberTooLongError past the interpreter's digit limit."""
    g = gcd(x, den)
    try:
        return str(x // g) if g == den else f"{x // g}/{den // g}"
    except ValueError:  # only raised past the limit, which then exists
        raise _too_long() from None


def _cell_text(part: Sequence[int], den: int) -> str:
    """format_scalar's text for one entry given as numerators over ``den``."""
    text = ""
    for x, unit in zip(part, ("", "i", "j", "k")):
        if x:
            sign = "-" if x < 0 else "+" if text else ""
            text += f"{sign}{format_ratio(abs(x), den)}{unit}"
    return text or "0"
