"""Per-signature recipes for faithful matrix representations.

Every supported signature gets a RepSpec: the target ring and size, an
invertible matrix P over the algebra itself together with its inverse and a
rational normalization (the conjugation P * D_a * (scale * Pinv) lands in
the target ring), the replication pattern for the diagonal argument D_a,
and the blades realizing the target ring's units.

Three step constructions cover the whole catalog:

* unit extension: adjoin one or two commuting blades squaring to -1 to turn
  real-matrix entries into complex or quaternion entries (P unchanged);
* quadrupling: a commuting pair u, v with u^2 = +1 that doubles the matrix
  size, with a sign variant depending on v^2;
* conjugate split: a commuting u with u^2 = +1 that splits the algebra into
  a doubled ring acting on diag(a I, conj(a) I).

Every recipe is a chain of these steps that ends at one of two kinds of
leaf: the scalar (0,0), or one of the three embeddings the source prints,
Eq. (1.1)'s real form of (0,1) (``real2``) and the complex and real forms
of (0,2) (``complex2``, ``real4``).  So ``complex1`` and ``quaternion`` are
unit extensions of (0,0).  Wide signatures reduce through the
sixteen-fold periodicity step.  A signature's routes are listed in one
place, ``_routes``: the entries of the explicit route table (keyed by
(p, q), then by route, default first), then the diagonal family, then the
periodicity step when its reduced signature has a route; nothing past
seventeen generators is listed.  The explicit table holds only signatures
the diagonal family (n+k, n), k <= 6, does not reach, so that family is
the one route of the split signatures (1,1) to (3,3) the source prints.
``routes_for``, ``default_route`` and ``get_spec`` all read that list, so
only a listed route is ever built, and a new explicit route is one table
entry.  A recipe's transform keeps the same step structure as data (a leaf,
a reindexed or a doubled sub-transform).  A leaf is a plain pair of at most
4x4, checked when the catalog makes it; one recursion carries the steps and
the leaf into the host, so the oracle's sandwich runs one step at a time
(the identity check is that sandwich at D = I), and the dense P is
multiplied out only when something reads it.  A matrix over the algebra
stores integer numerators over one denominator, and one kernel,
``_sandwich_sum``, takes every product of such matrices: the leaf's, each
step's, the dense P's and the corrections' literal forms.  The compiled
blade images (the represent module) never read the transform at all.  Printed
source formulas that fail the machine checks are rebuilt from the step
patterns and recorded in the corrections registry, each with an executable
demonstration of the failing literal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

from .algebra import (
    GeneratorList,
    Multivector,
    Signature,
    SignatureMismatchError,
    SplitBasis,
    StructureError,
    _mul_accumulate,
    reindex,
)

HALF = Fraction(1, 2)


class CatalogError(Exception):
    """Base class for catalog construction errors."""


class CatalogMissError(CatalogError):
    """The signature/route pair has no recipe in the catalog."""


class TransformCheckError(CatalogError):
    """A built transform failed its invertibility identity."""


# ---------------------------------------------------------------------------
# matrices over the algebra


class MvMatrix:
    """Immutable dense matrix over the algebra, entries sharing one signature.

    Stored as one integer-numerator dict (blade mask to numerator) per entry
    over one positive denominator, reduced so that the denominator and the
    numerators have no common factor: equal matrices have one stored form.
    ``rows`` is a Multivector view built on first read.  Every product of
    such matrices goes through one kernel, ``_sandwich_sum``.
    """

    __slots__ = ("sig", "nrows", "ncols", "_cells", "_den", "_rows")

    def __init__(self, sig: Signature, rows: Sequence[Sequence[Multivector]]):
        grid = tuple(tuple(row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("empty matrix")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged rows")
        if any(x.sig != sig for row in grid for x in row):
            raise SignatureMismatchError("entry from a different algebra")
        den = lcm(*(x._den for row in grid for x in row))
        cells = [[{m: c * (den // x._den) for m, c in x._num.items()} for x in row] for row in grid]
        _stored(sig, cells, den, into=self)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MvMatrix is immutable")

    def __reduce__(self):  # copy and pickle rebuild rather than set slots
        return MvMatrix, (self.sig, self.rows)

    @property
    def rows(self) -> tuple[tuple[Multivector, ...], ...]:
        if self._rows is None:
            sig, den = self.sig, self._den
            view = tuple(tuple(Multivector._raw(sig, x, den) for x in row) for row in self._cells)
            object.__setattr__(self, "_rows", view)
        return self._rows

    @classmethod
    def identity(cls, sig: Signature, size: int) -> "MvMatrix":
        one, zero = Multivector.scalar(sig, 1), Multivector.zero(sig)
        return cls(sig, [[one if r == c else zero for c in range(size)] for r in range(size)])

    def scale(self, value: Fraction | int) -> "MvMatrix":
        f = Fraction(value)
        return _stored(self.sig, self._cells, self._den * f.denominator, f.numerator)

    def __mul__(self, other: "MvMatrix") -> "MvMatrix":
        if not isinstance(other, MvMatrix):
            return NotImplemented
        return _sandwich_sum(self, [MvMatrix.identity(self.sig, 1)] * self.ncols, other, 1)

    def __eq__(self, other):
        if not isinstance(other, MvMatrix):
            return NotImplemented
        return self.sig == other.sig and self._den == other._den and self._cells == other._cells

    def __hash__(self):
        return hash((self.sig, self.rows))

    def __repr__(self):
        return f"<MvMatrix {self.nrows}x{self.ncols} over {self.sig}>"


def _stored(sig: Signature, cells, den: int, factor: int = 1, into=None) -> MvMatrix:
    """``into`` (or a new matrix) holding the entry numerators ``cells`` times
    ``factor`` over ``den``, zeros pruned and reduced to its one stored form."""
    cells = [[{m: c * factor for m, c in x.items() if c} for x in row] for row in cells]
    g = gcd(den, *(c for row in cells for x in row for c in x.values()))
    if g > 1:
        cells = [[{m: c // g for m, c in x.items()} for x in row] for row in cells]
    matrix = object.__new__(MvMatrix) if into is None else into
    put = object.__setattr__
    put(matrix, "sig", sig)
    put(matrix, "nrows", len(cells))
    put(matrix, "ncols", len(cells[0]))
    put(matrix, "_cells", tuple(tuple(row) for row in cells))
    put(matrix, "_den", den // g)
    put(matrix, "_rows", None)
    return matrix


def _sandwich_sum(
    left: MvMatrix, middles: Sequence[MvMatrix], right: MvMatrix, factor: Fraction | int
) -> MvMatrix:
    """The one product kernel: block (r, s) of the result is
    factor * sum_k left[r][k] * middles[k] * right[k][s], on integer
    numerators over one denominator.  Every middle is h x h, so block (r, s)
    fills rows r*h to r*h + h - 1 and the same columns from s*h."""
    sig = left.sig
    if any(m.sig != sig for m in (right, *middles)):
        raise SignatureMismatchError("matrices over different algebras")
    h = middles[0].nrows if middles else 0
    square = all(m.nrows == m.ncols == h for m in middles)
    if not (square and left.ncols == len(middles) == right.nrows):
        raise ValueError("shape mismatch in product")
    den = lcm(*(m._den for m in middles))
    out = [[{} for _ in range(h * right.ncols)] for _ in range(h * left.nrows)]
    for r, lrow in enumerate(left._cells):
        for lx, middle, rrow in zip(lrow, middles, right._cells):
            if not lx:
                continue
            # bring the middle to the middles' common denominator through lx
            lx = {b: c * (den // middle._den) for b, c in lx.items()}
            for i, mrow in enumerate(middle._cells):
                line = out[r * h + i]
                for j, mx in enumerate(mrow):
                    if mx:
                        part: dict[int, int] = {}
                        _mul_accumulate(sig, part, lx, mx)
                        for s, rx in enumerate(rrow):
                            if rx:
                                _mul_accumulate(sig, line[s * h + j], part, rx)
    f = Fraction(factor)
    return _stored(sig, out, left._den * den * right._den * f.denominator, f.numerator)


def reindex_matrix(matrix: MvMatrix, gens: GeneratorList) -> MvMatrix:
    return MvMatrix(gens.sig, [[reindex(x, gens) for x in row] for row in matrix.rows])


# ---------------------------------------------------------------------------
# spec data types


@dataclass(frozen=True)
class Target:
    ring: str
    size: int

    def __str__(self) -> str:
        return f"{self.ring}({self.size})"


_UNCHECKED = object()


class TransformPair:
    """P and its inverse, stored so all entries stay rational.

    P * Pinv = c * I for a positive rational c and scale = 1/c; transforms
    whose printed normalization is irrational are stored stripped, with the
    stripped factors absorbed into the scale.

    A pair is immutable and takes one of three forms, mirroring the recipe
    steps:

    * a leaf: P, Pinv and scale given densely (the catalog checks its leaves
      as it makes them);
    * a reindexed sub-pair (``reindexed``): the sub-transform S carried into
      the host through the generators ``gens``, with S's scale;
    * a doubled sub-pair (``doubled``): with 2x2 blocks L and R of host
      elements, P = [[l_rc * S]] / 2 and Pinv = [[Sinv * r_rc]] / 2.

    One recursion, ``_carried_steps``, carries the doubling blocks and the
    leaf into the host; the identity check, the sandwich and the dense P all
    read it.  ``conjugate`` takes the elements of a diagonal D = diag(D0, D1),
    split into halves, and P * D * (scale * Pinv) =
    L * diag(conj_S(D0), conj_S(D1)) * R / 4, with equal halves conjugated
    once; the identity check is that sandwich at D = I, exactly the dense
    P * (scale * Pinv), read on the stored numerators.  The leaf, each step
    and each level of the dense P and Pinv are one call of the product
    kernel ``_sandwich_sum`` apiece.  The dense P and Pinv are built only
    when something reads ``P``, ``Pinv`` or ``scale``.  A stepped pair passes
    its identity check before any of those reads or ``conjugate`` is served,
    and raises TransformCheckError on each of them otherwise.
    """

    __slots__ = ("size", "_where", "_step", "_parts", "_defect", "_carried")

    def __init__(self, P: MvMatrix, Pinv: MvMatrix, scale: Fraction):
        self._init(P.nrows, None, None, ((), P, Pinv, scale))

    @classmethod
    def reindexed(cls, sub: "TransformPair", gens: GeneratorList, where: str) -> "TransformPair":
        """``sub`` carried into the host through ``gens``."""
        return cls._made(sub.size, where, (sub, gens, None, None))

    @classmethod
    def doubled(
        cls,
        sub: "TransformPair",
        gens: GeneratorList,
        left: Sequence[Sequence[Multivector]],
        right: Sequence[Sequence[Multivector]],
        where: str,
    ) -> "TransformPair":
        """Doubling step with 2x2 blocks ``left``/``right`` around ``sub``
        carried into the host through ``gens``."""
        step = (sub, gens, MvMatrix(gens.sig, left), MvMatrix(gens.sig, right))
        return cls._made(2 * sub.size, where, step)

    @classmethod
    def _made(cls, size, where, step, carried=None) -> "TransformPair":
        pair = object.__new__(cls)
        pair._init(size, where, step, carried)
        return pair

    def _init(self, size, where, step, carried) -> None:
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_where", where)
        object.__setattr__(self, "_step", step)
        object.__setattr__(self, "_parts", None)
        object.__setattr__(self, "_defect", _UNCHECKED)
        object.__setattr__(self, "_carried", carried)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("TransformPair is immutable")

    def __reduce__(self):  # copy and pickle rebuild rather than set slots
        return TransformPair._made, (self.size, self._where, self._step, self._carried)

    def _materialized(self) -> tuple[MvMatrix, MvMatrix, Fraction]:
        if self._parts is None:
            if self._step is not None:
                _check_transform(self, self._where)
            object.__setattr__(self, "_parts", self._multiplied())
        return self._parts

    def _multiplied(self) -> tuple[MvMatrix, MvMatrix, Fraction]:
        """P, Pinv and scale multiplied out through the carried steps, unchecked."""
        blocks, P, Pinv, scale = self._carried_steps()
        for left, right in reversed(blocks):
            eye = MvMatrix.identity(P.sig, 2)
            P = _sandwich_sum(left, (P, P), eye, HALF)
            Pinv = _sandwich_sum(eye, (Pinv, Pinv), right, HALF)
        return P, Pinv, scale

    @property
    def P(self) -> MvMatrix:
        return self._materialized()[0]

    @property
    def Pinv(self) -> MvMatrix:
        return self._materialized()[1]

    @property
    def scale(self) -> Fraction:
        return self._materialized()[2]

    def conjugate(self, diag: Sequence[Multivector]) -> MvMatrix:
        """P * diag(diag) * (scale * Pinv), taken one recipe step at a time."""
        if len(diag) != self.size:
            raise ValueError(f"conjugation needs {self.size} diagonal elements, not {len(diag)}")
        if self._step is not None:
            _check_transform(self, self._where)
        return _sandwich(*self._carried_steps(), diag)

    def _carried_steps(self) -> tuple[tuple, MvMatrix, MvMatrix, Fraction]:
        """The doubling blocks (L, R) from the outermost step inward, then the
        leaf's P, Pinv and scale, all carried into this pair's algebra."""
        if self._carried is None:
            sub, gens, left, right = self._step
            blocks, P, Pinv, scale = sub._carried_steps()
            blocks = tuple((reindex_matrix(L, gens), reindex_matrix(R, gens)) for L, R in blocks)
            if left is not None:
                blocks = ((left, right),) + blocks
            carried = (blocks, reindex_matrix(P, gens), reindex_matrix(Pinv, gens), scale)
            object.__setattr__(self, "_carried", carried)
        return self._carried

    def identity_defect(self) -> tuple[int, int] | None:
        """First cell where P * (scale * Pinv) differs from I, or None: the
        sandwich at D = I, taken by steps.

        Computed once per pair: the pair is immutable.
        """
        if self._defect is _UNCHECKED:
            blocks, P, Pinv, scale = self._carried_steps()
            prod = _sandwich(blocks, P, Pinv, scale, [Multivector.scalar(P.sig, 1)] * self.size)
            cells = (
                (r, c)
                for r, row in enumerate(prod._cells)
                for c, x in enumerate(row)
                if x != ({0: prod._den} if r == c else {})
            )
            object.__setattr__(self, "_defect", next(cells, None))
        return self._defect


def _sandwich(
    steps, P: MvMatrix, Pinv: MvMatrix, scale: Fraction, diag: Sequence[Multivector]
) -> MvMatrix:
    """P * diag(diag) * (scale * Pinv) with P factored into doubling steps
    (outermost first) around a leaf; equal halves are conjugated once."""
    if not steps:
        return _sandwich_sum(P, [MvMatrix(P.sig, [[d]]) for d in diag], Pinv, scale)
    h = len(diag) // 2
    top = _sandwich(steps[1:], P, Pinv, scale, diag[:h])
    bottom = top if diag[:h] == diag[h:] else _sandwich(steps[1:], P, Pinv, scale, diag[h:])
    left, right = steps[0]
    return _sandwich_sum(left, (top, bottom), right, Fraction(1, 4))


PLAIN = "plain"
CONJUGATE_PAIRS = "conjugate_pairs"


@dataclass(frozen=True)
class ReplicationSpec:
    """Shape of the diagonal argument the transform conjugates: ``copies``
    copies of ``a``, or conjugate pairs along the recipe step's own blade
    ``split`` (its node's SplitBasis, whose one outer generator is ``u``)."""

    copies: int
    split: SplitBasis | None = None

    @property
    def kind(self) -> str:
        return PLAIN if self.split is None else CONJUGATE_PAIRS

    def diagonal_for(self, a: Multivector) -> list[Multivector]:
        """The diagonal elements: ``a`` on every copy, or ``a`` then its
        conjugate ``a0 + a1*u -> a0 - a1*u`` on the two halves of a
        conjugate pair, which negates the blades the split puts on ``u``."""
        if self.split is None:
            return [a] * self.copies
        if a.sig != self.split.sig:
            raise SignatureMismatchError("element from a different algebra")
        lookup = self.split._lookup
        bar_num = {m: -c if lookup[m][0] else c for m, c in a._num.items()}
        half = self.copies // 2
        return [a] * half + [Multivector._raw(a.sig, bar_num, a._den)] * half


# node kinds for the structural fast path ----------------------------------


@dataclass(frozen=True)
class StepNode:
    """A tensor-factor step: a blade's image is the image of its outer
    product under ``kind`` (a pattern of the represent module) times the sub
    recipe's image of its sub blade, the 1x1 unit at a leaf (no sub).  Kinds:
    "units" (ring units 1, i, j, k), "real_pair" (0,1), "complex_pair" and
    "real_quad" (0,2), "quad" and "quad_flip" (doubling by u, v with v^2 = +1
    or -1) and "split" (the conjugate split along u)."""

    basis: SplitBasis
    kind: str
    sub: "RepSpec | None" = None


@dataclass(frozen=True)
class PeriodicNode:
    """Sixteen-fold step: core image of the sub blade times inner image of the outer product."""

    core: "RepSpec"
    basis: SplitBasis
    inner: "RepSpec"


@dataclass(frozen=True)
class RepSpec:
    """Complete recipe for one signature and route."""

    signature: Signature
    route: str
    target: Target
    transform: TransformPair
    replication: ReplicationSpec
    unit_blades: dict[str, Multivector] = field(compare=False)
    node: object = field(compare=False)
    # compiled basis-blade images by mask, filled lazily by represent
    blade_images: dict = field(default_factory=dict, compare=False, init=False)
    # the same images by mask as runs of flat cells, the +1 entries' and the
    # -1 entries', filled lazily by represent
    blade_cells: dict = field(default_factory=dict, compare=False, init=False)
    # certified table of all blade images, set once by represent
    basis_table: object = field(default=None, compare=False, init=False)

    def __getstate__(self):  # a copy or pickle starts with empty memos
        return {**self.__dict__, "blade_images": {}, "blade_cells": {}, "basis_table": None}

    def __repr__(self):
        return f"<RepSpec {self.signature} route={self.route} target={self.target}>"


# ---------------------------------------------------------------------------
# classification


def classify(sig: Signature) -> Target:
    """Target ring and matrix size from the residue of q - p mod 8.

    The doubled-real branch uses size 2^((n-1)/2): the printed table's
    exponent only fits the doubled-quaternion branch (see corrections).
    """
    n = sig.n
    d = (sig.q - sig.p) % 8
    if d in (0, 6):
        return Target("R", 1 << (n // 2))
    if d in (1, 5):
        return Target("C", 1 << ((n - 1) // 2))
    if d in (2, 4):
        return Target("H", 1 << ((n - 2) // 2))
    if d == 3:
        return Target("2H", 1 << ((n - 3) // 2))
    return Target("2R", 1 << ((n - 1) // 2))


# ---------------------------------------------------------------------------
# construction helpers

def _mask(indices: Sequence[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def _gens(sig: Signature, masks: Sequence[int]) -> GeneratorList:
    return GeneratorList(sig, [Multivector.blade(sig, m) for m in masks])


def _check_transform(tp: TransformPair, where: str) -> None:
    defect = tp.identity_defect()
    if defect is not None:
        raise TransformCheckError(f"{where}: transform product differs from I at {defect}")


def _sub_gens(sig: Signature, sub_spec: RepSpec, masks: Sequence[int]) -> GeneratorList:
    gens = _gens(sig, masks)
    if gens.abstract_signature != sub_spec.signature:
        raise StructureError("sub generators do not present the sub signature")
    return gens


def _inherit_units(sub: RepSpec, gens: GeneratorList) -> dict[str, Multivector]:
    return {name: reindex(mv, gens) for name, mv in sub.unit_blades.items()}


def _spec_leaf(
    sig: Signature, route: str, kind: str, outer_masks: Sequence[int], target: Target,
    P: MvMatrix, Pinv: MvMatrix, scale: Fraction, units: dict[str, Multivector], split: bool = False,
) -> RepSpec:
    """A leaf recipe: a dense transform over the outer generators
    ``outer_masks`` alone, checked as the catalog makes it, replicating
    ``a`` on every copy or, with ``split``, in conjugate pairs."""
    basis = SplitBasis(_gens(sig, []), _gens(sig, outer_masks))
    tp = TransformPair(P, Pinv, scale)
    _check_transform(tp, f"{sig} {route}")
    return RepSpec(
        signature=sig,
        route=route,
        target=target,
        transform=tp,
        replication=ReplicationSpec(tp.size, basis if split else None),
        unit_blades=units,
        node=StepNode(basis, kind),
    )


def _spec_scalar(sig: Signature, route: str) -> RepSpec:
    """(0,0): the reals, with the 1x1 identity transform."""
    identity = MvMatrix.identity(sig, 1)
    return _spec_leaf(sig, route, "units", [], Target("R", 1), identity, identity, Fraction(1), {})


def _spec_real_pair(sig: Signature, route: str) -> RepSpec:
    """(0,1): conjugate pair diagonal into the 2x2 real form."""
    one = Multivector.scalar(sig, 1)
    u = Multivector.generator(sig, 1)
    P = MvMatrix(sig, [[one, u], [-u, -one]])
    return _spec_leaf(sig, route, "real_pair", [1], Target("R", 2), P, P, HALF, {}, split=True)


def _spec_complex_pair(sig: Signature, route: str) -> RepSpec:
    """(0,2): complex 2x2 route.

    The printed claim that this transform is its own inverse fails the
    product check; the working inverse is recovered from the construction
    and recorded in the corrections registry.
    """
    one = Multivector.scalar(sig, 1)
    i1 = Multivector.generator(sig, 1)
    i2 = Multivector.generator(sig, 2)
    i12 = i1 * i2
    P = MvMatrix(sig, [[one, -i1], [-i2, i12]])
    Pinv = MvMatrix(sig, [[one, i2], [i1, -i12]])
    return _spec_leaf(sig, route, "complex_pair", [1, 2], Target("C", 2), P, Pinv, HALF, {"i": i1})


def _spec_real_quad(sig: Signature, route: str) -> RepSpec:
    """(0,2): real 4x4 route with its size-4 involutive transform."""
    one = Multivector.scalar(sig, 1)
    i1 = Multivector.generator(sig, 1)
    i2 = Multivector.generator(sig, 2)
    i12 = i1 * i2
    rows = [
        [one, i1, i2, i12],
        [-i1, one, i12, -i2],
        [-i2, -i12, one, i1],
        [-i12, i2, -i1, one],
    ]
    P = MvMatrix(sig, rows).scale(HALF)
    return _spec_leaf(sig, route, "real_quad", [1, 2], Target("R", 4), P, P, Fraction(1), {})


def _spec_extend(
    sig: Signature,
    route: str,
    sub_spec: RepSpec,
    sub_masks: Sequence[int],
    unit_masks: Sequence[int],
) -> RepSpec:
    sub_gens = _sub_gens(sig, sub_spec, sub_masks)
    units = _gens(sig, unit_masks)
    if any(s != -1 for s in units.squares):
        raise StructureError("adjoined units must square to -1")
    basis = SplitBasis(sub_gens, units)
    if sub_spec.target.ring != "R":
        raise StructureError("unit extension needs a real-matrix sub-representation")
    tp = TransformPair.reindexed(sub_spec.transform, sub_gens, f"{sig} {route}")
    ring = "C" if len(unit_masks) == 1 else "H"
    return RepSpec(
        signature=sig,
        route=route,
        target=Target(ring, sub_spec.target.size),
        transform=tp,
        replication=ReplicationSpec(tp.size),
        unit_blades=dict(zip("ij", units.elements)),
        node=StepNode(basis, "units", sub_spec),
    )


def _spec_quad(
    sig: Signature,
    route: str,
    sub_spec: RepSpec,
    sub_masks: Sequence[int],
    u_mask: int,
    v_mask: int,
) -> RepSpec:
    sub_gens = _sub_gens(sig, sub_spec, sub_masks)
    outer = _gens(sig, [u_mask, v_mask])
    if outer.squares[0] != 1:
        raise StructureError("the first doubling element must square to +1")
    sgn = outer.squares[1]
    u, v = outer.elements
    basis = SplitBasis(sub_gens, outer)
    mu = u * v
    one = Multivector.scalar(sig, 1)
    fplus, fminus = one + u, one - u
    gminus, gplus = v - mu, v + mu
    blocks = [[fplus, gminus], [gplus * sgn, fminus]]
    tp = TransformPair.doubled(sub_spec.transform, sub_gens, blocks, blocks, f"{sig} {route}")
    return RepSpec(
        signature=sig,
        route=route,
        target=Target(sub_spec.target.ring, 2 * sub_spec.target.size),
        transform=tp,
        replication=ReplicationSpec(tp.size),
        unit_blades=_inherit_units(sub_spec, sub_gens),
        node=StepNode(basis, "quad" if sgn > 0 else "quad_flip", sub_spec),
    )


def _spec_split(
    sig: Signature,
    route: str,
    sub_spec: RepSpec,
    sub_masks: Sequence[int],
    u_mask: int,
) -> RepSpec:
    sub_gens = _sub_gens(sig, sub_spec, sub_masks)
    outer = _gens(sig, [u_mask])
    if outer.squares[0] != 1:
        raise StructureError("the splitting element must square to +1")
    (u,) = outer.elements
    basis = SplitBasis(sub_gens, outer)
    one = Multivector.scalar(sig, 1)
    fplus, fminus = one + u, one - u
    left = [[fplus, -fminus], [fminus, fplus]]
    right = [[fplus, fminus], [-fminus, fplus]]
    tp = TransformPair.doubled(sub_spec.transform, sub_gens, left, right, f"{sig} {route}")
    ring = {"R": "2R", "H": "2H"}.get(sub_spec.target.ring)
    if ring is None:
        raise StructureError("conjugate split needs a real or quaternion sub-representation")
    return RepSpec(
        signature=sig,
        route=route,
        target=Target(ring, sub_spec.target.size),
        transform=tp,
        replication=ReplicationSpec(tp.size, basis),
        unit_blades=_inherit_units(sub_spec, sub_gens),
        node=StepNode(basis, "split", sub_spec),
    )


# ---------------------------------------------------------------------------
# explicit catalog (small signatures)


def _ids(*indices: int) -> list[int]:
    return [_mask([i]) for i in indices]


def _range_masks(sig: Signature, count: int, eps_count: int) -> list[int]:
    """Identity presentation masks: first `count` plus-generators then
    `eps_count` minus-generators of the host."""
    masks = [_mask([i]) for i in range(1, count + 1)]
    masks += [_mask([sig.p + j]) for j in range(1, eps_count + 1)]
    return masks


def _e_range(sig: Signature, upto: int) -> int:
    return _mask(range(1, upto + 1))


def _eps_range(sig: Signature, upto: int) -> int:
    return _mask(range(sig.p + 1, sig.p + upto + 1))


def _sub(p: int, q: int) -> RepSpec:
    return get_spec(Signature(p, q))


# builder of one route: (host signature, route name) -> recipe
Builder = Callable[[Signature, str], RepSpec]

# The explicit recipes by (p, q), then by route, default route first; only
# signatures outside the diagonal family are listed here.
_EXPLICIT_RECIPES: dict[tuple[int, int], dict[str, Builder]] = {
    (0, 0): {"scalar": _spec_scalar},
    (1, 0): {"explicit": lambda s, r: _spec_split(s, r, _sub(0, 0), [], _mask([1]))},
    (0, 1): {
        "real2": _spec_real_pair,
        "complex1": lambda s, r: _spec_extend(s, r, _sub(0, 0), [], _ids(1)),
    },
    (2, 0): {"explicit": lambda s, r: _spec_quad(s, r, _sub(0, 0), [], _mask([1]), _mask([2]))},
    (0, 2): {
        "quaternion": lambda s, r: _spec_extend(s, r, _sub(0, 0), [], _ids(1, 2)),
        "complex2": _spec_complex_pair,
        "real4": _spec_real_quad,
    },
    (3, 0): {"explicit": lambda s, r: _spec_extend(s, r, _sub(2, 0), _ids(1, 2), [_e_range(s, 3)])},
    (1, 2): {"explicit": lambda s, r: _spec_extend(
        s, r, _sub(1, 1), _ids(1, 2), [_mask([1, 2, 3])])},
    (0, 3): {"explicit": lambda s, r: _spec_split(s, r, _sub(0, 2), _ids(1, 2), _mask([1, 2, 3]))},
    (4, 0): {"explicit": lambda s, r: _spec_extend(
        s, r, _sub(2, 0), _ids(1, 2), [_mask([1, 2, 3]), _mask([1, 2, 4])])},
    (1, 3): {"explicit": lambda s, r: _spec_quad(
        s, r, _sub(0, 2), _ids(2, 3), _mask([2, 3, 4]), _mask([1, 2, 3]))},
    (0, 4): {"explicit": lambda s, r: _spec_quad(
        s, r, _sub(0, 2), _ids(1, 2), _mask([1, 2, 3]), _mask([1, 2, 4]))},
    (5, 0): {"explicit": lambda s, r: _spec_split(
        s, r, _sub(4, 0), _ids(1, 2, 3, 4), _e_range(s, 5))},
    (2, 3): {"explicit": lambda s, r: _spec_extend(
        s, r, _sub(2, 2), _ids(1, 2, 3, 4), [_mask([1, 2, 3, 4, 5])])},
    (1, 4): {"explicit": lambda s, r: _spec_split(
        s, r, _sub(1, 3), _ids(1, 2, 3, 4), _mask([1, 2, 3, 4, 5]))},
    (0, 5): {"explicit": lambda s, r: _spec_extend(
        s, r, _sub(2, 2), [_mask([1, 2, 3, 4]), _mask([1, 2, 3, 5]), _mask([1]), _mask([2])],
        [_mask([1, 2, 3, 4, 5])])},
    (6, 0): {"explicit": lambda s, r: _spec_quad(
        s, r, _sub(4, 0), _ids(1, 2, 3, 4), _mask([1, 2, 3, 4, 5]), _mask([1, 2, 3, 4, 6]))},
    (2, 4): {"explicit": lambda s, r: _spec_quad(
        s, r, _sub(1, 3), _ids(1, 3, 4, 5), _mask([1, 3, 4, 5, 6]), _mask([1, 2, 3, 4, 5]))},
    (1, 5): {"explicit": lambda s, r: _spec_quad(
        s, r, _sub(0, 4), _ids(2, 3, 4, 5), _mask([1, 2, 3, 4, 5]), _mask([2, 3, 4, 5, 6]))},
    (0, 6): {"explicit": lambda s, r: _spec_quad(
        s, r, _sub(3, 1),
        [_mask([1, 2, 4]), _mask([1, 3, 4]), _mask([2, 3, 4]), _mask([1, 2, 3, 5, 6])],
        _mask([1, 2, 3, 6]), _mask([1, 2, 3, 5]))},
    (7, 0): {"explicit": lambda s, r: _spec_extend(
        s, r, _sub(4, 2),
        _ids(1, 2, 3, 4) + [_mask([1, 2, 3, 4, 5, 6]), _mask([1, 2, 3, 4, 5, 7])],
        [_e_range(s, 7)])},
    (0, 7): {"explicit": lambda s, r: _spec_split(
        s, r, _sub(0, 6), _ids(1, 2, 3, 4, 5, 6), _mask(range(1, 8)))},
    (8, 0): {"explicit": lambda s, r: _spec_quad(
        s, r, _sub(3, 3), _ids(1, 2, 3) + [_mask([1, 2, 3, g, 7, 8]) for g in (4, 5, 6)],
        _mask([4, 5, 6, 7]), _mask([4, 5, 6, 8]))},
    (0, 8): {"explicit": lambda s, r: _spec_quad(
        s, r, _sub(0, 6), _ids(1, 2, 3, 4, 5, 6),
        _mask([1, 2, 3, 4, 5, 6, 8]), _mask([1, 2, 3, 4, 5, 6, 7]))},
}


# ---------------------------------------------------------------------------
# diagonal families (p >= q >= 1, p - q <= 6)


def _diagonal_covered(sig: Signature) -> bool:
    return sig.q >= 1 and 0 <= sig.p - sig.q <= 6


def _diagonal_spec(sig: Signature, route: str) -> RepSpec:
    """Recipe for (n+k, n), k in 0..6, by recursion over the step patterns.

    This family is the default route of every signature it covers; the
    recursions bottom out at the explicit recipes for (0,0), (2,0), (4,0)
    and (6,0).  An odd k splits along (k = 1, 5) or adjoins (k = 3) the
    pseudoscalar over (p-1, q).  An even k doubles (p-1, q-1) with the pair
    e_1..e_p eps_1..eps_(q-1) and e_1..e_(p-1) eps_1..eps_q, in that order
    for k = 0, 4 and swapped for k = 2, 6.
    """
    p, n, k = sig.p, sig.q, sig.p - sig.q
    if k % 2:
        sub, sub_masks = _sub(p - 1, n), _range_masks(sig, p - 1, n)
        if k == 3:
            return _spec_extend(sig, route, sub, sub_masks, [sig.full_mask])
        return _spec_split(sig, route, sub, sub_masks, sig.full_mask)
    pair = (_e_range(sig, p) | _eps_range(sig, n - 1), _e_range(sig, p - 1) | _eps_range(sig, n))
    u, v = pair if k % 4 == 0 else pair[::-1]
    return _spec_quad(sig, route, _sub(p - 1, n - 1), _range_masks(sig, p - 1, n - 1), u, v)


# ---------------------------------------------------------------------------
# periodicity (p+8, q) and (0, q+8)


def _periodic_reduction(sig: Signature) -> Signature | None:
    """The reduced signature of the sixteen-fold step, or None when the
    signature does not reduce through it."""
    if sig.p >= 8 and sig.n > 8:
        return Signature(sig.p - 8, sig.q)
    if sig.p == 0 and sig.q > 8:
        return Signature(0, sig.q - 8)
    return None


def _periodic_spec(sig: Signature, route: str) -> RepSpec:
    """Sixteen-fold reduction: conjugate with the widest explicit transform,
    then apply the reduced signature's recipe entrywise.

    The empty-subset outer product is the unit element, not the core
    pseudoscalar the source text prints (see corrections).
    """
    reduced = _periodic_reduction(sig)
    core = get_spec(Signature(sig.p - reduced.p, sig.q - reduced.q))
    inner = get_spec(reduced, canonical_route(reduced))
    # the core takes generators 1..8; every further generator g enters the
    # reduced algebra as the core pseudoscalar times g
    core_gens = _gens(sig, _ids(*range(1, 9)))
    outer_gens = _gens(sig, [_mask([*range(1, 9), g]) for g in range(9, sig.n + 1)])
    basis = SplitBasis(core_gens, outer_gens)
    tp = TransformPair.reindexed(core.transform, core_gens, f"{sig} {route}")
    return RepSpec(
        signature=sig,
        route=route,
        target=Target(inner.target.ring, 16 * inner.target.size),
        transform=tp,
        replication=ReplicationSpec(16),
        unit_blades=_inherit_units(inner, outer_gens),
        node=PeriodicNode(core, basis, inner),
    )


# ---------------------------------------------------------------------------
# registry


_SPECS: dict[tuple[int, int, str], RepSpec] = {}

# transforms grow as 2^(n/2); seventeen generators (the widest the
# periodicity reduction needs) is the practical construction bound, and it
# keeps every target within size 256, the widest a byte-coded blade image
# in the represent module can index
_MAX_CONSTRUCTION_GENERATORS = 17


def _routes(sig: Signature) -> list[tuple[str, Builder]]:
    """The signature's routes in order, default first, each with its builder:
    the explicit recipes, the diagonal family, then the periodicity step when
    its reduced signature has a route."""
    if sig.n > _MAX_CONSTRUCTION_GENERATORS:
        return []
    routes = list(_EXPLICIT_RECIPES.get((sig.p, sig.q), {}).items())
    if _diagonal_covered(sig):
        routes.append(("diagonal", _diagonal_spec))
    reduced = _periodic_reduction(sig)
    if reduced is not None and _routes(reduced):
        routes.append(("periodic", _periodic_spec))
    return routes


def routes_for(sig: Signature) -> tuple[str, ...]:
    """All route names constructible for the signature."""
    return tuple(name for name, _build in _routes(sig))


def default_route(sig: Signature) -> str:
    routes = _routes(sig)
    if not routes:
        raise CatalogMissError(_miss_message(sig))
    return routes[0][0]


def canonical_route(sig: Signature) -> str:
    """Route whose target matches the classification table exactly.

    It is the default route everywhere but (0,1).  There the default,
    ``real2``, is the source's Eq. (1.1): conjugating diag(a, conj(a))
    gives the real 2x2 form [[x, -y], [y, x]] of a = x + y*eps1, so its
    target is R(2), while ``classify`` names the algebra itself, C(1),
    which ``complex1`` builds.  The periodicity step and the
    classification checks need the classified ring, so they take this
    route.
    """
    if (sig.p, sig.q) == (0, 1):
        return "complex1"
    return default_route(sig)


def _miss_message(sig: Signature) -> str:
    if sig.n > _MAX_CONSTRUCTION_GENERATORS:
        return (
            f"no catalog route for {sig}: recipes are built for at most "
            f"{_MAX_CONSTRUCTION_GENERATORS} generators"
        )
    hints = []
    mirror = Signature(sig.q, sig.p)
    if routes_for(mirror):
        hints.append(f"its mirror {mirror} is covered")
    # min keeps the first of equally near signatures, in catalog order
    sigs = (Signature(p, n - p) for n in range(_MAX_CONSTRUCTION_GENERATORS + 1)
            for p in range(n, -1, -1))
    covered = (c for c in sigs if routes_for(c))
    nearest = min(covered, key=lambda c: abs(c.p - sig.p) + abs(c.q - sig.q))
    hints.append(f"the nearest covered signature {nearest} is covered")
    return f"no catalog route for {sig} ({'; '.join(hints)})"


def get_spec(sig: Signature, route: str | None = None) -> RepSpec:
    """Build (or fetch from the memo table) the recipe for one signature.

    Only the routes ``routes_for`` lists are built.  Construction is
    deterministic and idempotent, so concurrent builders may race benignly;
    the first completed spec wins the cache slot.
    """
    if route is None:
        route = default_route(sig)
    key = (sig.p, sig.q, route)
    spec = _SPECS.get(key)
    if spec is not None:
        return spec
    builders = dict(_routes(sig))
    if route not in builders:
        if builders:
            names = ", ".join(builders)
            raise CatalogMissError(f"no route {route!r} for {sig}; its routes are {names}")
        raise CatalogMissError(_miss_message(sig))
    _SPECS.setdefault(key, builders[route](sig, route))
    return _SPECS[key]


# the diagonal families are listed up to this many generators
_CATALOG_MAX_TOTAL = 10


def catalog_signatures() -> list[tuple[Signature, tuple[str, ...]]]:
    """All cataloged signatures with their routes, ordered by (n, p)."""
    seen: dict[tuple[int, int], Signature] = {}
    for (p, q) in _EXPLICIT_RECIPES:
        seen[(p, q)] = Signature(p, q)
    for n in range(1, _CATALOG_MAX_TOTAL // 2 + 1):
        for k in range(0, 7):
            p, q = n + k, n
            if p + q <= _CATALOG_MAX_TOTAL:
                seen.setdefault((p, q), Signature(p, q))
    for extra in ((9, 0), (0, 9)):
        seen.setdefault(extra, Signature(*extra))
    sigs = sorted(seen.values(), key=lambda s: (s.n, -s.p))
    return [(s, routes_for(s)) for s in sigs]


def catalog_text() -> str:
    """One line per supported signature: (p,q), route, ring, size, replication."""
    lines = []
    for sig, _names in catalog_signatures():
        spec = get_spec(sig)
        lines.append(
            f"({sig.p},{sig.q}) route={spec.route} target={spec.target.ring}"
            f"({spec.target.size}) replication={spec.replication.kind}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corrections to printed source formulas
#
# Every formula the catalog amends relative to its printed source form is
# recorded here with an executable demonstration that the literal form
# fails a machine check; the builders above embody the corrected forms.


@dataclass(frozen=True)
class Correction:
    source: str
    literal: str
    corrected: str
    failing_check: str
    demonstrate: Callable[[], bool] = field(compare=False)

    def describe(self) -> str:
        return (
            f"### {self.source}\n"
            f"- literal form: {self.literal}\n"
            f"- corrected form: {self.corrected}\n"
            f"- failing check of the literal form: {self.failing_check}\n"
        )


def _demo_doubled_real_size() -> bool:
    # literal branch size 2^((n-3)/2) cannot carry the algebra's dimension
    sig = Signature(2, 1)
    s = 1 << ((sig.n - 3) // 2)
    return 2 * s * s != sig.dim


def _demo_two_two_class() -> bool:
    # a complex 4x4 algebra has real dimension 32, not 2^4
    return 2 * 4 * 4 != Signature(2, 2).dim


def _demo_quaternion_complex_inverse() -> bool:
    sig = Signature(0, 2)
    one = Multivector.scalar(sig, 1)
    i1, i2 = Multivector.generator(sig, 1), Multivector.generator(sig, 2)
    P = MvMatrix(sig, [[one, -i1], [-i2, i1 * i2]])
    literal = TransformPair(P, P, HALF)
    return literal.identity_defect() is not None


def _literal_involutive_quad(
    sig: Signature, sub_masks: Sequence[int], u_mask: int, v_mask: int, w_mask: int
) -> bool:
    """Printed pattern [[(1+u)S, (v-w)S], [-(v-w)S, (1+u)S]] with S the
    sub-transform, claimed self-inverse; true iff it fails the identity."""
    sub_gens = _gens(sig, sub_masks)
    sub_spec = get_spec(sub_gens.abstract_signature)
    S = reindex_matrix(sub_spec.transform.P, sub_gens)
    one = Multivector.scalar(sig, 1)
    u = Multivector.blade(sig, u_mask)
    v = Multivector.blade(sig, v_mask)
    w = Multivector.blade(sig, w_mask)
    printed = MvMatrix(sig, [[one + u, v - w], [-(v - w), one + u]])
    P = _sandwich_sum(printed, (S, S), MvMatrix.identity(sig, 2), HALF)
    literal = TransformPair(P, P, sub_spec.transform.scale)
    return literal.identity_defect() is not None


def _demo_three_one_transform() -> bool:
    # misprinted generator name read as the only negative generator
    return _literal_involutive_quad(
        Signature(3, 1), _ids(1, 2), _mask([1, 2, 4]), _mask([1, 2, 3]), _mask([3, 4])
    )


def _demo_two_two_transform() -> bool:
    return _literal_involutive_quad(
        Signature(2, 2), _ids(1, 3), _mask([1, 2, 3]), _mask([1, 3, 4]), _mask([2, 4])
    )


def _demo_one_three_transform() -> bool:
    sig = Signature(1, 3)
    one = Multivector.scalar(sig, 1)
    u = Multivector.blade(sig, _mask([2, 3, 4]))
    v = Multivector.blade(sig, _mask([1, 2, 3]))
    w = Multivector.blade(sig, _mask([1, 4]))
    P = MvMatrix(
        sig,
        [
            [one + u, v - w],
            [-(v - w), one - u],
        ],
    ).scale(HALF)
    literal = TransformPair(P, P, Fraction(1))
    return literal.identity_defect() is not None


def _demo_one_five_image_term() -> bool:
    # the printed image mixes an 8x8 block into a 4x4 layout
    return get_spec(Signature(0, 6)).target.size != get_spec(Signature(0, 4)).target.size


def _literal_recurrence_inverse(sig: Signature, sub_masks: Sequence[int], printed) -> bool:
    """The diagonal recipe's P against the printed inverse [[Si * r_rc]] / 2,
    r_rc the ``printed`` blocks and Si the sub-transform's inverse; true iff
    the pair fails the identity."""
    sub_gens = _gens(sig, sub_masks)
    Si = reindex_matrix(get_spec(sub_gens.abstract_signature).transform.Pinv, sub_gens)
    pinv = _sandwich_sum(MvMatrix.identity(sig, 2), (Si, Si), MvMatrix(sig, printed), HALF)
    spec = get_spec(sig, "diagonal")
    return TransformPair(spec.transform.P, pinv, spec.transform.scale).identity_defect() is not None


def _demo_two_step_recurrence_inverse() -> bool:
    # printed inverse blocks drop to stale indices at the first level
    sig = Signature(3, 1)
    one = Multivector.scalar(sig, 1)
    u = Multivector.blade(sig, _mask([1, 2, 4]))
    v = Multivector.blade(sig, _mask([1, 2, 3]))
    mu = u * v
    stale_u = Multivector.blade(sig, _mask([1, 4]))  # first-level mask slip
    printed = [[one + stale_u, one - mu], [-(v + mu), one - u]]
    return _literal_recurrence_inverse(sig, _ids(1, 2), printed)


def _demo_four_step_recurrence_inverse() -> bool:
    sig = Signature(5, 1)
    one = Multivector.scalar(sig, 1)
    u = Multivector.blade(sig, _e_range(sig, 5))
    v = Multivector.blade(sig, _mask([1, 2, 3, 4, 6]))
    mu = u * v
    wide = Multivector.blade(sig, _mask([1, 2, 3, 4, 5, 6]))  # printed over-wide mask
    printed = [[one + u, v - mu], [-(wide + mu), one - u]]
    return _literal_recurrence_inverse(sig, _ids(1, 2, 3, 4), printed)


def _demo_four_two_third_element() -> bool:
    # printed: the third basis element e4*eps2 equals the product of the
    # first two; the product actually lands on the opposite order eps2*e4
    sig = Signature(4, 2)
    u = Multivector.blade(sig, _mask([1, 2, 3, 5, 6]))
    v = Multivector.blade(sig, _mask([1, 2, 3, 4, 5]))
    printed = Multivector.generator(sig, 4) * Multivector.generator(sig, 6)
    return u * v != printed


def _demo_two_four_third_element() -> bool:
    # printed element names generators outside the signature; the charitable
    # mirrored reading e2*eps4 still has the wrong factor order
    sig = Signature(2, 4)
    u = Multivector.blade(sig, _mask([1, 3, 4, 5, 6]))
    v = Multivector.blade(sig, _mask([1, 2, 3, 4, 5]))
    printed = Multivector.generator(sig, 2) * Multivector.generator(sig, 6)
    return u * v != printed


def _demo_two_step_pair_product_sign() -> bool:
    # printed sign (-1)^(n+2) for the two-step pair product; the computed
    # product carries (-1)^(n+1) at every level
    for n in (1, 2, 3):
        sig = Signature(n + 2, n)
        u = Multivector.blade(sig, _e_range(sig, n + 1) | _eps_range(sig, n))
        v = Multivector.blade(sig, _e_range(sig, n + 2) | _eps_range(sig, n - 1))
        printed = Multivector.blade(sig, _mask([n + 2, sig.p + n])) * ((-1) ** (n + 2))
        if u * v == printed:
            return False
    return True


def _demo_periodic_empty_subset() -> bool:
    # with the empty outer product read as the core pseudoscalar, the image
    # of 1 cannot be the identity matrix
    from .represent import represent_with

    sig = Signature(9, 0)
    core_sig = Signature(8, 0)
    core = get_spec(core_sig)
    pseudo_core = Multivector.blade(core_sig, core_sig.full_mask)
    block = represent_with(core, pseudo_core)
    host_pseudo = Multivector.blade(sig, _mask(range(1, 9)))
    literal_one = MvMatrix(
        sig,
        [
            [host_pseudo * block.entry(r, c).r for c in range(16)]
            for r in range(16)
        ],
    )
    return literal_one != MvMatrix.identity(sig, 16)


CORRECTIONS: tuple[Correction, ...] = (
    Correction(
        source="classification table, doubled-real branch",
        literal="size exponent (n-3)/2 for the doubled-real targets",
        corrected="size exponent (n-1)/2; dimension count 2*s^2 = 2^n forces it",
        failing_check="real dimension of the literal target differs from the algebra's",
        demonstrate=_demo_doubled_real_size,
    ),
    Correction(
        source="low-dimensional isomorphism list, entry for (2,2)",
        literal="target printed as complex 4x4",
        corrected="target real 4x4, as the explicit (2,2) construction builds",
        failing_check="real dimension of a complex 4x4 algebra is 32, not 16",
        demonstrate=_demo_two_two_class,
    ),
    Correction(
        source="quaternion-to-complex transform for (0,2)",
        literal="the transform printed as its own inverse",
        corrected="inverse rebuilt from the construction: [[1, eps2], [eps1, -eps12]] stripped",
        failing_check="literal product P*P*scale differs from the identity",
        demonstrate=_demo_quaternion_complex_inverse,
    ),
    Correction(
        source="transform for (3,1)",
        literal=(
            "second block factor names a non-existent negative generator; "
            "printed block pattern [[(1+u)S,(v-w)S],[-(v-w)S,(1+u)S]] claimed self-inverse"
        ),
        corrected="doubling pattern [[(1+u)S,(v-m)S],[-(v+m)S,(1-u)S]] with m = u*v",
        failing_check="literal transform is not involutive",
        demonstrate=_demo_three_one_transform,
    ),
    Correction(
        source="transform for (2,2)",
        literal="printed block pattern [[(1+u)S,(v-m)S],[-(v-m)S,(1+u)S]]",
        corrected="doubling pattern [[(1+u)S,(v-m)S],[-(v+m)S,(1-u)S]] with m = u*v",
        failing_check="literal transform is not involutive",
        demonstrate=_demo_two_two_transform,
    ),
    Correction(
        source="transform for (1,3)",
        literal="lower-left block printed as -(v-w)",
        corrected="lower-left block -(v+w) per the doubling pattern",
        failing_check="literal transform is not involutive",
        demonstrate=_demo_one_three_transform,
    ),
    Correction(
        source="image formula for (1,5)",
        literal="one block printed through the (0,6) image",
        corrected="all four blocks through the (0,4) image",
        failing_check="the (0,6) image size 8 cannot tile the printed 4x4 quaternion layout",
        demonstrate=_demo_one_five_image_term,
    ),
    Correction(
        source="inverse recurrence of the two-step diagonal family",
        literal="inverse blocks printed with stale generator-range indices",
        corrected="inverse blocks mirror the forward blocks with the sub-inverse on the left",
        failing_check="literal inverse fails the identity at the first level (3,1)",
        demonstrate=_demo_two_step_recurrence_inverse,
    ),
    Correction(
        source="inverse recurrence of the four-step diagonal family",
        literal="lower-left inverse block printed with an over-wide generator range",
        corrected="lower-left inverse block uses the same pair element as the forward form",
        failing_check="literal inverse fails the identity at the first level (5,1)",
        demonstrate=_demo_four_step_recurrence_inverse,
    ),
    Correction(
        source="third basis element for (4,2)",
        literal="stated as e4*eps2, claimed equal to the product of the first two",
        corrected="the product of the first two elements is eps2*e4 = -(e4*eps2)",
        failing_check="the printed product identity fails in exact arithmetic",
        demonstrate=_demo_four_two_third_element,
    ),
    Correction(
        source="third basis element for (2,4)",
        literal="stated with generators outside the signature; mirrored reading e2*eps4",
        corrected="the product of the first two elements is eps4*e2 = -(e2*eps4)",
        failing_check="the printed product identity fails in exact arithmetic",
        demonstrate=_demo_two_four_third_element,
    ),
    Correction(
        source="pair-product sign in the two-step diagonal family",
        literal="sign exponent n+2 for the product of the doubling pair",
        corrected="sign exponent n+1 (the zero-, four- and six-step exponents verify as printed)",
        failing_check="the printed sign disagrees with the computed product at every level",
        demonstrate=_demo_two_step_pair_product_sign,
    ),
    Correction(
        source="periodicity factorizations, empty-subset convention",
        literal="the empty product of outer factors printed as the core pseudoscalar",
        corrected="the empty product is the unit element",
        failing_check="under the literal convention the image of 1 is not the identity",
        demonstrate=_demo_periodic_empty_subset,
    ),
)


VERIFIED_AS_PRINTED: tuple[str, ...] = (
    "transforms for (1,0), (0,1), (2,0), (1,1), (0,3), (0,4), (2,1), (3,2), (1,4), (5,0): literal forms pass",
    "the size-4 real transform for (0,2): literal form passes and is involutive",
    "the inverse displayed for the (5,0) split: passes even though the proof's "
    "intermediate inverse carries a sign slip in its bottom row",
    "the third-element product identities for (2,0), (4,0), (3,1), (2,2), (1,3), "
    "(0,4), (6,0), (5,1), (3,3), (1,5), (0,6), (8,0), (0,8) verify as printed, as do "
    "the pair-product signs of the zero-, four- and six-step diagonal families",
    "the (0,5) transform is never displayed; it is constructed from the stated "
    "composite presentation and passes all checks",
)


def corrections_markdown() -> str:
    """The corrections ledger: every amended printed formula with its
    literal form, corrected form and the failing check."""
    lines = ["# Corrections to printed source formulas", ""]
    lines.append(
        "Each entry records a printed formula the catalog amends, the form"
    )
    lines.append(
        "actually built, and the machine check the literal form fails."
    )
    lines.append("")
    for corr in CORRECTIONS:
        lines.append(corr.describe())
    lines.append("## Verified as printed")
    lines.append("")
    for note in VERIFIED_AS_PRINTED:
        lines.append(f"- {note}")
    lines.append("")
    return "\n".join(lines)
