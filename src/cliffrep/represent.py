"""Applying catalog recipes: element images, reconstruction and pullbacks.

Under every recipe a basis blade maps to a signed monomial matrix with unit
entries; represent() sums an element's coefficients along these blade images
(the fast path), each compiled lazily as one Kronecker product per recipe step
and memoized on the spec.  The symbolic conjugation in the verify module must
agree exactly.  reconstruct() reads coefficients back off the same images by
the real trace form, after an exact certificate that they are orthogonal, so
inverses, determinants and characteristic polynomials of matrix images pull
back to the algebra.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

from .algebra import (
    Multivector,
    Signature,
    SignatureMismatchError,
)
from .catalog import (
    CatalogError,
    CatalogMissError,
    PeriodicNode,
    RepSpec,
    Target,
    default_route,
    get_spec,
)
from .rings import (
    BLOCK_RING,
    COMPONENTS,
    DOUBLE_REAL,
    REAL,
    BlockPair,
    RingMatrix,
    RingScalar,
    UnsupportedRingError,
    char_poly,
    from_numerators,
    mat_det,
    mat_inverse,
    to_numerators,
)


class NotInImageError(Exception):
    """The matrix is not the image of any element under this recipe."""


class NonMonomialStepError(CatalogError):
    """A recipe step splits over generators that are not signed blades."""


class InversePullbackError(Exception):
    """The pulled-back matrix inverse does not invert the element."""


@dataclass(frozen=True)
class RepImage:
    """Matrix image of an element, tagged with the producing route."""

    signature: Signature
    route: str
    value: RingMatrix | BlockPair


# ---------------------------------------------------------------------------
# compiled blade images
#
# Row r of a blade image holds one signed unit in column cols[r].  A block of
# size s is stored as bytes: s column indices, then s row codes unit*2+sign
# (units 0..3 are 1, i, j, k; the low bit marks -1); doubled rings store a
# (plus, minus) pair.  Every step is one rule: a Kronecker product of two
# compiled images.

_XOR = [bytes(c ^ k for c in range(256)) for k in range(8)]

# compiled images of each step kind's outer products, indexed by outer mask:
# a ring unit 1, i, j or k, the real pair (0,1), the complex pair and the
# real quad (0,2), the doubling pair u, v with v^2 = +1 or -1, and the
# conjugate split along u, a doubled (plus, minus) pair of 1x1 blocks
_PATTERNS = {
    "units": tuple(bytes((0, 2 * unit)) for unit in range(4)),
    "real_pair": tuple(map(bytes, [(0, 1, 0, 0), (1, 0, 1, 0)])),
    "complex_pair": tuple(map(bytes, [(0, 1, 0, 0), (0, 1, 2, 3), (1, 0, 1, 0), (1, 0, 3, 3)])),
    "real_quad": tuple(map(bytes, [
        (0, 1, 2, 3, 0, 0, 0, 0), (1, 0, 3, 2, 1, 0, 1, 0),
        (2, 3, 0, 1, 1, 0, 0, 1), (3, 2, 1, 0, 1, 1, 0, 0),
    ])),
    "quad": tuple(map(bytes, [(0, 1, 0, 0), (0, 1, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1)])),
    "quad_flip": tuple(map(bytes, [(0, 1, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1)])),
    "split": ((bytes((0, 0)), bytes((0, 0))), (bytes((0, 0)), bytes((0, 1)))),
}


def _kron(left, right, neg: int):
    """Kronecker product left (x) right of two compiled images, every row
    code XORed with ``neg``.  Either side, not both, may be a doubled
    (plus, minus) pair, which gives the pair of products.  Codes combine by
    XOR, which multiplies the units only when at most one factor carries
    them; every recipe meets this by construction: a unit extension needs a
    real sub, the quad and split patterns are real, the periodic core is
    R(16), and a leaf's sub image is the 1x1 unit."""
    if isinstance(left, tuple):
        return _kron(left[0], right, neg), _kron(left[1], right, neg)
    if isinstance(right, tuple):
        return _kron(left, right[0], neg), _kron(left, right[1], neg)
    w, t = len(left) // 2, len(right) // 2
    right_cols, right_codes = right[:t], right[t:]
    cols, codes = bytearray(), bytearray()
    for col, code in zip(left[:w], left[w:]):
        cols += bytes(col * t + c for c in right_cols) if col else right_cols
        codes += right_codes.translate(_XOR[code ^ neg])
    return bytes(cols + codes)


def _step(node, mask: int) -> tuple[int, int, int]:
    """(outer mask, sub mask, sign bit) of a host blade under a recipe step."""
    lookup = node.basis._lookup
    if lookup is None:
        raise NonMonomialStepError(f"{type(node).__name__} splits over non-blade generators")
    outer, sub, factor = lookup[mask]
    return outer, sub, int(factor < 0)


def blade_image(spec: RepSpec, mask: int) -> bytes | tuple[bytes, bytes]:
    """Compiled image of one basis blade, memoized on the spec."""
    image = spec.blade_images.get(mask)
    if image is None:
        image = spec.blade_images[mask] = _compile_blade(spec.node, mask)
    return image


def _compile_blade(node, mask: int) -> bytes | tuple[bytes, bytes]:
    outer, sub, neg = _step(node, mask)
    if isinstance(node, PeriodicNode):
        return _kron(blade_image(node.core, sub), blade_image(node.inner, outer), neg)
    child = bytes(2) if node.sub is None else blade_image(node.sub, sub)  # 1x1 unit at a leaf
    return _kron(_PATTERNS[node.kind][outer], child, neg)


def _blocks(image):
    return image if isinstance(image, tuple) else (image,)


def _cell_count(target: Target) -> int:
    """Flat numerators in an image: entries times components, both blocks."""
    blocks = 2 if target.ring in BLOCK_RING else 1
    return blocks * COMPONENTS[target.ring] * target.size * target.size


def _blade_cells(spec: RepSpec, mask: int) -> array:
    """The cells of a blade image's entries, memoized on the spec.  A cell
    numbers the block, row, column and unit as the flat numerators of the
    image's blocks laid end to end, ((block*size + row)*size + col)*rank +
    unit; a -1 entry's cell is offset by _cell_count.  A spec keeps one per
    blade it has represented, so they are arrays of 16-bit cells where the
    doubled count fits."""
    cells = spec.blade_cells.get(mask)
    if cells is None:
        size, rank = spec.target.size, COMPONENTS[spec.target.ring]
        span, total = rank * size * size, _cell_count(spec.target)
        cells = array("H" if 2 * total <= 1 << 16 else "i")
        for b, block in enumerate(_blocks(blade_image(spec, mask))):
            # a unit past the ring's components would land on the next entry
            if max(block[size:]) >> 1 >= rank:
                raise CatalogError(
                    f"{spec.signature} route {spec.route}: blade {mask:#x} has a unit "
                    f"outside {spec.target.ring}"
                )
            row_base = range(b * span, (b + 1) * span, rank * size)
            cells.extend(
                base + rank * col + (code >> 1) + (total if code & 1 else 0)
                for base, col, code in zip(row_base, block, block[size:])
            )
        spec.blade_cells[mask] = cells
    return cells


def _counters(spec: RepSpec, num: dict[int, int]) -> list[int]:
    """Flat numerators of sum(num[m] * rho(e_m)), its blocks end to end, each
    laid out as rings.to_numerators reads a block."""
    total = _cell_count(spec.target)
    counts = [0] * (2 * total)  # the +1 entries' sums, then the -1 entries'
    for mask, x in num.items():
        for cell in _blade_cells(spec, mask):
            counts[cell] += x
    return list(map(operator.sub, counts[:total], counts[total:]))


def _image(spec: RepSpec, a: Multivector) -> RingMatrix | BlockPair:
    """Sum the numerators of ``a`` along its blades' compiled images."""
    ring, size = spec.target.ring, spec.target.size
    counts = _counters(spec, a._num)
    inner = BLOCK_RING.get(ring)
    if inner is None:
        return from_numerators(ring, size, counts, a._den)
    span = len(counts) // 2
    plus = from_numerators(inner, size, counts[:span], a._den)
    return BlockPair(ring, plus, from_numerators(inner, size, counts[span:], a._den))


def periodic_stage1(node: PeriodicNode, a: Multivector) -> list[list[Multivector]]:
    """First reduction stage: a 16x16 layout of reduced-signature elements."""
    width = node.core.target.size
    cells: list[list[dict[int, int]]] = [[{} for _ in range(width)] for _ in range(width)]
    for mask, num in a._num.items():
        outer, sub, neg = _step(node, mask)
        core = blade_image(node.core, sub)
        for row, col, code in zip(cells, core, core[width:]):
            cell = row[col]
            cell[outer] = cell.get(outer, 0) + (-num if (code ^ neg) & 1 else num)
    return [[Multivector._raw(node.inner.signature, cell, a._den) for cell in row] for row in cells]


def _paste_grid(grid: Sequence[Sequence[RingMatrix]], t: int) -> RingMatrix:
    ring = grid[0][0].ring
    parts = [[to_numerators(block) for block in row] for row in grid]
    den = lcm(*(d for row in parts for _, d in row))
    width = t * COMPONENTS[ring]  # numerators in one row of a block
    nums: list[int] = []
    for row in parts:
        scaled = [[x * (den // d) for x in block] for block, d in row]
        for start in range(0, t * width, width):
            for block in scaled:
                nums += block[start : start + width]
    return from_numerators(ring, t * len(grid[0]), nums, den)


def represent(a: Multivector, route: str | None = None) -> RepImage:
    """Matrix image of ``a`` under the signature's recipe for ``route``."""
    spec = get_spec(a.sig, route if route is not None else default_route(a.sig))
    return RepImage(a.sig, spec.route, _image(spec, a))


def represent_with(spec: RepSpec, a: Multivector) -> RingMatrix | BlockPair:
    if a.sig != spec.signature:
        raise SignatureMismatchError("element does not match the recipe's signature")
    return _image(spec, a)


# ---------------------------------------------------------------------------
# reconstruction


def _trace_sums(spec: RepSpec, counts: list[int]) -> list[int]:
    """Re tr(rho(e_m)* X), summed over blocks, for every mask m: on the flat
    numerators of X, a signed sum of one component per row of rho(e_m)."""
    signed = counts + [-x for x in counts]
    return [sum(map(signed.__getitem__, _blade_cells(spec, m))) for m in range(spec.signature.dim)]


# The certificate holds one entry per row of every blade image, dim * N in
# all, and its time grows as dim * N^2; past this many entries it needs
# hundreds of megabytes and hours, so wider recipes are refused.
_CERTIFICATE_MAX_ENTRIES = 1 << 20


def _certificate_norm(spec: RepSpec) -> int:
    """N = size * blocks, the certificate's Gram diagonal; a recipe whose
    certificate is over the bound is refused before any work on it."""
    target = spec.target
    norm = target.size * (2 if target.ring in BLOCK_RING else 1)
    entries = spec.signature.dim * norm
    if entries > _CERTIFICATE_MAX_ENTRIES:
        raise CatalogMissError(
            f"no reconstruction for {spec.signature} route {spec.route}: its certificate "
            f"needs {entries} blade-image rows, over the bound of {_CERTIFICATE_MAX_ENTRIES}"
        )
    return norm


class BasisImageTable:
    """The compiled images of all basis blades of one recipe, certified.

    The exact certificate: under the real trace form the Gram matrix of the
    images is N = size * blocks times the identity, so the 2^n images are
    independent (the representation is faithful) and each coefficient of an
    element is its trace form against that blade's image, over N.
    """

    def __init__(self, spec: RepSpec):
        self.spec = spec
        self.norm = _certificate_norm(spec)
        # Gram entry (m, m') is the signed count of cells (block, row, column,
        # unit) the two images share: a partner filed under the same signed
        # cell adds one, one filed under its twin (offset by _cell_count) takes one
        total = _cell_count(spec.target)
        images = [_blade_cells(spec, mask) for mask in range(spec.signature.dim)]
        partners: dict[int, list[int]] = {}
        for mask, cells in enumerate(images):
            for cell in cells:
                partners.setdefault(cell, []).append(mask)
        for mask, cells in enumerate(images):
            gram_row = {mask: -self.norm}
            for cell in cells:
                for other in partners[cell]:
                    gram_row[other] = gram_row.get(other, 0) + 1
                for other in partners.get(cell - total if cell >= total else cell + total, ()):
                    gram_row[other] = gram_row.get(other, 0) - 1
            bad = [m for m, x in gram_row.items() if x]
            if bad:
                raise NotInImageError(
                    f"Gram matrix of the {spec.signature} route {spec.route} blade images "
                    f"differs from {self.norm} * I at blades ({mask:#x}, {min(bad):#x})"
                )

    def reconstruct(self, value: RingMatrix | BlockPair) -> Multivector:
        # the ring tag also fixes the kind: only BlockPair holds 2R and 2H
        target = self.spec.target
        blocks = (value.plus, value.minus) if isinstance(value, BlockPair) else (value,)
        square = (target.size, target.size)
        if value.ring != target.ring or any((b.nrows, b.ncols) != square for b in blocks):
            raise NotInImageError(f"matrix does not fit the recipe target {target}")
        parts = [to_numerators(b) for b in blocks]
        den = lcm(*(d for _, d in parts))
        counts = [x * (den // d) for nums, d in parts for x in nums]
        coeffs = {m: x for m, x in enumerate(_trace_sums(self.spec, counts)) if x}
        result = Multivector._raw(self.spec.signature, coeffs, den * self.norm)
        if represent_with(self.spec, result) != value:
            raise NotInImageError("matrix lies outside the representation's image space")
        return result


def basis_table(sig: Signature, route: str | None = None) -> BasisImageTable:
    """The recipe's certified basis table, built once and memoized on the spec."""
    spec = get_spec(sig, route)
    if spec.basis_table is None:
        # the spec is frozen; the memo slot is excluded from init and compare
        object.__setattr__(spec, "basis_table", BasisImageTable(spec))
    return spec.basis_table


def reconstruct(image: RepImage) -> Multivector:
    """Unique preimage of a matrix under the recipe that produced it."""
    return basis_table(image.signature, image.route).reconstruct(image.value)


# ---------------------------------------------------------------------------
# pullbacks


def element_inverse(a: Multivector, route: str | None = None) -> Multivector | None:
    """Inverse of ``a`` in the algebra, or None for zero divisors.

    Non-invertibility is an ordinary outcome in the split signatures, so it
    is a return value rather than an error.  A recipe too wide to read the
    inverse back is refused before inverting.
    """
    _certificate_norm(get_spec(a.sig, route))
    image = represent(a, route)
    inv = mat_inverse(image.value)
    if inv is None:
        return None
    result = reconstruct(RepImage(image.signature, image.route, inv))
    one = Multivector.scalar(a.sig, 1)
    if a * result != one or result * a != one:
        raise InversePullbackError(f"pullback of the matrix inverse of {a} does not invert it")
    return result


def _as_real_block(value: RingMatrix | BlockPair) -> RingMatrix:
    """Block-diagonal real form of a doubled-real pair; a plain matrix passes unchanged."""
    if isinstance(value, BlockPair):
        if value.ring != DOUBLE_REAL:
            raise UnsupportedRingError("determinant over doubled quaternions is unsupported")
        zero = RingMatrix.zeros(REAL, value.nrows)
        return _paste_grid([[value.plus, zero], [zero, value.minus]], value.nrows)
    return value


def element_det(a: Multivector, route: str | None = None) -> RingScalar:
    """Determinant of the matrix image; commutative targets only."""
    return mat_det(_as_real_block(represent(a, route).value))


def element_charpoly(a: Multivector, route: str | None = None) -> list[Fraction]:
    """Monic characteristic polynomial of the image over a real target."""
    value = represent(a, route).value
    if value.ring not in (REAL, DOUBLE_REAL):
        raise UnsupportedRingError("characteristic polynomial needs a real target")
    return char_poly(_as_real_block(value))


def charpoly_evaluate(coeffs: Sequence[Fraction], a: Multivector) -> Multivector:
    """Evaluate a polynomial (descending powers) at an algebra element.

    Paterson-Stockmeyer order (SIAM J. Comput., 1973): at degree d the powers
    a, ..., a^k with k = ceil(sqrt(d)), then Horner in a^k over chunks of k
    coefficients, each chunk a sum of scaled powers.  That is k - 1 + d // k
    element products, 4 at degree 8 where Horner in a takes 8; an empty
    list is the zero polynomial.
    """
    rising = list(reversed(coeffs))
    degree = len(rising) - 1
    k = isqrt(degree - 1) + 1 if degree > 0 else 1
    powers = [Multivector.scalar(a.sig, 1), a]
    while len(powers) <= k:
        powers.append(powers[-1] * a)
    zero = acc = Multivector.zero(a.sig)
    for start in reversed(range(0, len(rising), k)):
        terms = zip(powers, rising[start : start + k])
        acc = acc * powers[k] + sum((x * c for x, c in terms), zero)
    return acc


# ---------------------------------------------------------------------------
# rectangular lifts for the two one-generator signatures


def matrix_represent(rows: Sequence[Sequence[Multivector]]) -> BlockPair | RingMatrix:
    """Blockwise image of a rectangular array over (1,0) or (0,1).

    Over (1,0) the image is the pair (A0 + A1, A0 - A1); over (0,1) it is
    the 2m x 2n real block matrix [[A0, -A1], [A1, A0]].  Both lifts are
    multiplicative for composable shapes.
    """
    grid = [list(row) for row in rows]
    if not grid or not grid[0]:
        raise ValueError("empty matrix")
    sig = grid[0][0].sig
    if (sig.p, sig.q) not in ((1, 0), (0, 1)):
        raise CatalogMissError("rectangular lifts cover only the signatures (1,0) and (0,1)")
    for row in grid:
        for x in row:
            if x.sig != sig:
                raise SignatureMismatchError("mixed signatures in the array")
    comp0 = [[x.coefficient(0) for x in row] for row in grid]
    comp1 = [[x.coefficient(1) for x in row] for row in grid]
    if sig.p == 1:
        plus = RingMatrix.from_components(
            REAL, [[a + b for a, b in zip(r0, r1)] for r0, r1 in zip(comp0, comp1)]
        )
        minus = RingMatrix.from_components(
            REAL, [[a - b for a, b in zip(r0, r1)] for r0, r1 in zip(comp0, comp1)]
        )
        return BlockPair(DOUBLE_REAL, plus, minus)
    top = [r0 + [-b for b in r1] for r0, r1 in zip(comp0, comp1)]
    bottom = [list(r1) + list(r0) for r0, r1 in zip(comp0, comp1)]
    return RingMatrix.from_components(REAL, top + bottom)
