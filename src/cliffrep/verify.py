"""Symbolic oracle and property harness for the catalog recipes.

The oracle evaluates P * D_a * (scale * Pinv) in matrix-over-the-algebra
arithmetic and reads each entry back with one reader over distinct signed
blades: the target ring's units {1, i, j, ij}, or on a periodic recipe the
outer generators' products, which give the reduced-signature element the
inner recipe's oracle takes.  Any residue outside those blades is an
equality violation, which is what flags misprinted source formulas.  The
sandwich is taken one recipe step at a time, reading each step's 2x2
blocks L and R from the transform pair (never from the fast path's nodes
or blade images): a doubling step maps the diagonal D = diag(D0, D1),
split into halves, to L * diag(conj_S(D0), conj_S(D1)) * R / 4 with conj_S
the sub-recipe's sandwich, a reindexing step only carries the sub-recipe
into the host, and equal halves are conjugated once.  That is the dense
product exactly, without a dense P.  On a conjugate-pair recipe the bottom
half holds a0 - a1*u for a = a0 + a1*u, read off the recipe step's own
split along u, the SplitBasis its node holds.  The harness cross-checks
the oracle against the structural fast path on every trial (on a periodic
recipe, the read-back stage one against the fast path's first, then the
inner oracle), plus the homomorphism, faithfulness, unit, inverse-pullback,
round-trip and characteristic-polynomial properties, deterministically
under a seed.  The sampled checks share one seeded trial loop, every
report is built by one helper, and a recipe's typed failures (images that
are not independent, a wrong pulled-back inverse) come back as a failing
report's witness.

The periodic inner oracle goes by linearity and is no weaker for it: D_a
is linear in a (copies of a, or pairs a0 +- a1*u), and so are the
sandwich and the read-back, so for a stage-one entry x the sum of
x_m * O(e_m), with O(e_m) the direct sandwich of inner basis blade e_m
(taken once per call), is exactly the direct sandwich of x.  A residue on
any blade it uses raises, which covers every case where the sandwich of
x would raise, and more.  The sum is taken in place: each entry adds x_m
times O(e_m)'s integer numerators (rings.to_numerators, a doubled ring's
blocks end to end) into its place in the composed image's flat numerators,
over one common denominator, and the result is built once by
rings.from_numerators.  The stage-one sandwich of a stays direct.

The oracle shares only the rings module's numerator layout with the fast
path, and with it the split of a doubled ring's numerators into halves;
which half is the plus block each side fixes on its own, here by the
sandwich's diagonal and there by the compiled images' block order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .algebra import Multivector, Signature
from .catalog import MvMatrix, PeriodicNode, RepSpec, TransformCheckError, get_spec
from .represent import (
    InversePullbackError,
    NotInImageError,
    RepImage,
    basis_table,
    charpoly_evaluate,
    element_charpoly,
    element_inverse,
    periodic_stage1,
    reconstruct,
    represent_with,
)
from .rings import (
    BLOCK_RING,
    COMPONENTS,
    DOUBLE_REAL,
    REAL,
    RingElement,
    from_numerators,
    ring_identity,
    to_numerators,
)


class EqualityViolationError(Exception):
    """A conjugated entry has components outside the target ring's units."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check; failures carry a reproducible witness."""

    signature: Signature
    route: str
    name: str
    passed: bool
    seed: int | None = None
    counterexample: str | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        seed = "-" if self.seed is None else str(self.seed)
        extra = "" if self.passed else f"  witness: {self.counterexample}"
        return f"({self.signature.p},{self.signature.q}) {self.route} {self.name} {status} seed={seed}{extra}"

    def record(self) -> str:
        status = "pass" if self.passed else "fail"
        seed = "-" if self.seed is None else str(self.seed)
        return f"{self.signature.p},{self.signature.q}\t{self.route}\t{self.name}\t{status}\t{seed}"


# ---------------------------------------------------------------------------
# oracle


def _signs(blades: Sequence[Multivector], what: str) -> list[tuple[int, int]]:
    """(mask, sign) of each signed blade; any other blade is a recipe defect."""
    for blade in blades:
        if len(blade._num) != 1 or blade._den != 1 or abs(*blade._num.values()) != 1:
            raise EqualityViolationError(f"{blade} among {what} is not a signed unit blade")
    return [term for blade in blades for term in blade._num.items()]


def _read(grid: MvMatrix, cell: dict, signed: Sequence[tuple[int, int]], what: str) -> list[int]:
    """Numerators over ``grid``'s denominator of the stored entry ``cell``'s
    coordinates on the (mask, sign) blades; any leftover component is an
    equality violation."""
    residue = dict(cell)
    coords = [residue.pop(mask, 0) * sign for mask, sign in signed]
    if residue:
        leftover = Multivector._raw(grid.sig, residue, grid._den)
        raise EqualityViolationError(f"entry has residue {leftover} outside {what}")
    return coords


def _matrix_from_mv(grid: MvMatrix, spec: RepSpec) -> RingElement:
    """Read a conjugated grid over the ring units {1, i, j, ij}; a doubled
    ring reads both diagonal blocks and needs zero off-diagonal blocks."""
    named = spec.unit_blades
    units = [Multivector.scalar(spec.signature, 1)] + [named[k] for k in ("i", "j") if k in named]
    if "j" in named:
        units.append(named["i"] * named["j"])
    signed = _signs(units, "the ring units")
    target = spec.target

    def block(start: int, size: int) -> list[int]:
        cells = range(start, start + size)
        entries = [grid._cells[r][c] for r in cells for c in cells]
        return [v for x in entries for v in _read(grid, x, signed, "the ring units")]

    if target.ring not in BLOCK_RING:
        return from_numerators(target.ring, grid.nrows, block(0, grid.nrows), grid._den)
    s = target.size
    for r in range(2 * s):
        for c in range(2 * s):
            if (r < s) != (c < s) and grid._cells[r][c]:
                raise EqualityViolationError(
                    f"off-diagonal block entry ({r},{c}) = {grid.rows[r][c]} is non-zero"
                )
    return from_numerators(target.ring, s, block(0, s) + block(s, s), grid._den)


def _stage_one(a: Multivector, spec: RepSpec) -> list[list[Multivector]]:
    """A periodic recipe's sandwich, each entry read back over the outer
    generators' products as an element of the reduced signature."""
    outer, reduced = spec.node.basis.outer, spec.node.inner.signature
    signed = _signs([outer.product(m) for m in range(1 << len(outer))], "the outer products")
    grid = spec.transform.conjugate(spec.replication.diagonal_for(a))
    coords = [[_read(grid, x, signed, "the outer products") for x in row] for row in grid._cells]
    return [[Multivector._raw(reduced, dict(enumerate(c)), grid._den) for c in row] for row in coords]


def _inner_oracle(spec: RepSpec, stage1: list[list[Multivector]]) -> RingElement:
    """The inner oracle on every stage-one entry, summed in place: by
    linearity, c_m times the direct sandwich of each inner basis blade e_m
    the entry uses, added into the composed image's numerators over one
    common denominator."""
    inner = spec.node.inner
    sandwiches: dict[int, tuple[list[int], int]] = {}
    for m in sorted({m for row in stage1 for x in row for m in x._num}):
        sandwiches[m] = to_numerators(oracle_represent(Multivector.blade(inner.signature, m), inner))
    target = spec.target
    rank, t, size = COMPONENTS[target.ring], inner.target.size, target.size
    span = t * rank  # numerators in one row of an entry's image
    xden = lcm(*(x._den for row in stage1 for x in row))
    sden = lcm(*(d for _, d in sandwiches.values()))
    blocks = 2 if target.ring in BLOCK_RING else 1
    out = [0] * (blocks * size * size * rank)
    for r, row in enumerate(stage1):
        for c, x in enumerate(row):
            for m, cm in x._num.items():
                nums, d = sandwiches[m]
                f = cm * (xden // x._den) * (sden // d)
                for q in range(blocks * t):  # row q of the image is row i of block b
                    b, i = divmod(q, t)
                    at = ((b * size + r * t + i) * size + c * t) * rank
                    line = nums[q * span : (q + 1) * span]
                    out[at : at + span] = [o + f * v for o, v in zip(out[at : at + span], line)]
    return from_numerators(target.ring, size, out, xden * sden)


def oracle_represent(a: Multivector, spec: RepSpec) -> RingElement:
    """Image by direct symbolic conjugation of the diagonal argument.

    Independent of the structural fast path; entries outside the spanned
    ring units (or, on a periodic recipe, outside the outer products) raise
    EqualityViolationError.
    """
    if isinstance(spec.node, PeriodicNode):
        return _inner_oracle(spec, _stage_one(a, spec))
    grid = spec.transform.conjugate(spec.replication.diagonal_for(a))
    return _matrix_from_mv(grid, spec)


# ---------------------------------------------------------------------------
# random elements


_DENSE_LIMIT = 6


def random_multivector(sig: Signature, rng: random.Random) -> Multivector:
    """Dense over all blades up to _DENSE_LIMIT generators, else 64 sparse blades."""
    num: dict[int, int] = {}
    if sig.n <= _DENSE_LIMIT:
        masks: Iterable[int] = range(sig.dim)
    else:
        masks = {rng.randrange(sig.dim) for _ in range(64)}
    for m in masks:
        x = rng.randint(-9, 9)
        if x:
            num[m] = x * (6 // rng.choice((1, 2, 3)))
    return Multivector._raw(sig, num, 6)


# ---------------------------------------------------------------------------
# checks


def _report(spec: RepSpec, name: str, witness: str | None, seed: int | None = None) -> CheckReport:
    """The named check's report on ``spec``; it passes when there is no witness."""
    return CheckReport(spec.signature, spec.route, name, witness is None, seed, witness)


def _sampled(
    spec: RepSpec, name: str, trials: int, seed: int, trial: Callable[[random.Random], str | None]
) -> CheckReport:
    """Run ``trial`` up to ``trials`` times on one generator seeded with
    ``seed``; the first witness it returns fails the check."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    rng = random.Random(seed)
    for i in range(trials):
        witness = trial(rng)
        if witness is not None:
            return _report(spec, name, f"trial {i}: {witness}", seed)
    return _report(spec, name, None, seed)


def check_transform_pair(spec: RepSpec) -> CheckReport:
    defect = spec.transform.identity_defect()
    witness = None if defect is None else f"product differs from the identity at cell {defect}"
    return _report(spec, "transform", witness)


def _similarity_once(spec: RepSpec, a: Multivector) -> str | None:
    """None when the direct sandwich and the fast path agree on ``a``; else
    a witness.  On a periodic recipe the sandwich, read back over the outer
    products, must equal the fast path's stage one before the inner oracle
    runs."""
    fast = represent_with(spec, a)
    try:
        if isinstance(spec.node, PeriodicNode):
            stage1 = _stage_one(a, spec)
            if stage1 != periodic_stage1(spec.node, a):
                return "stage-one sandwich differs from the fast path's stage one"
            oracle = _inner_oracle(spec, stage1)
        else:
            oracle = oracle_represent(a, spec)
    except EqualityViolationError as exc:
        return f"oracle violation: {exc}"
    except TransformCheckError as exc:
        return f"transform check failed: {exc}"
    if oracle != fast:
        return "oracle and fast path disagree"
    return None


def check_similarity(
    sig: Signature,
    route: str | None = None,
    trials: int = 100,
    seed: int = 0,
) -> CheckReport:
    """The direct sandwich equals the fast-path image on seeded random elements."""
    spec = get_spec(sig, route)

    def trial(rng: random.Random) -> str | None:
        a = random_multivector(sig, rng)
        witness = _similarity_once(spec, a)
        return None if witness is None else f"a = {a}; {witness}"

    return _sampled(spec, "similarity", trials, seed, trial)


def check_homomorphism(
    sig: Signature, route: str | None = None, trials: int = 100, seed: int = 0
) -> CheckReport:
    spec = get_spec(sig, route)

    def trial(rng: random.Random) -> str | None:
        a = random_multivector(sig, rng)
        b = random_multivector(sig, rng)
        lam = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        fa, fb = represent_with(spec, a), represent_with(spec, b)
        if represent_with(spec, a * b) != fa * fb:
            return f"product image mismatch for a={a}, b={b}"
        if represent_with(spec, a + b) != fa + fb:
            return "sum image mismatch"
        if represent_with(spec, a * lam) != fa * lam:
            return "scalar image mismatch"
        return None

    return _sampled(spec, "homomorphism", trials, seed, trial)


def check_unit(sig: Signature, route: str | None = None) -> CheckReport:
    spec = get_spec(sig, route)
    image = represent_with(spec, Multivector.scalar(sig, 1))
    ok = image == ring_identity(spec.target.ring, spec.target.size)
    return _report(spec, "unit", None if ok else "image of 1 is not the identity matrix")


def check_faithfulness(sig: Signature, route: str | None = None) -> CheckReport:
    """Certificate: the basis blade images have Gram matrix N * I under the
    real trace form, so they are independent; a failure names a blade pair."""
    spec = get_spec(sig, route)
    try:
        basis_table(sig, spec.route)
    except NotInImageError as exc:
        return _report(spec, "faithfulness", str(exc))
    return _report(spec, "faithfulness", None)


def check_round_trip(
    sig: Signature, route: str | None = None, trials: int = 20, seed: int = 0
) -> CheckReport:
    """Every basis blade, then seeded random elements, come back unchanged
    from their images; a recipe without a certified basis table fails."""
    spec = get_spec(sig, route)

    def comes_back(mv: Multivector) -> bool:
        return reconstruct(RepImage(sig, spec.route, represent_with(spec, mv))) == mv

    def trial(rng: random.Random) -> str | None:
        a = random_multivector(sig, rng)
        return None if comes_back(a) else f"a = {a}"

    try:
        for mask in range(sig.dim):
            if not comes_back(Multivector.blade(sig, mask)):
                return _report(spec, "round_trip", f"basis blade {mask:#x}", seed)
        return _sampled(spec, "round_trip", trials, seed, trial)
    except NotInImageError as exc:
        return _report(spec, "round_trip", str(exc), seed)


def check_inverse_pullback(
    sig: Signature, route: str | None = None, trials: int = 50, seed: int = 0
) -> CheckReport:
    """Seeded invertible elements pull their matrix inverses back to
    two-sided inverses; ``element_inverse`` checks both products, and its
    typed failures are the witness."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    spec = get_spec(sig, route)
    rng = random.Random(seed)
    found = 0
    attempts = 0
    while found < trials and attempts < trials * 40:
        attempts += 1
        a = random_multivector(sig, rng)
        try:
            inv = element_inverse(a, spec.route)
        except (NotInImageError, InversePullbackError) as exc:
            return _report(spec, "inverse_pullback", f"a = {a}; {exc}", seed)
        if inv is not None:
            found += 1
    witness = None if found == trials else f"only {found} invertible samples in {attempts} attempts"
    return _report(spec, "inverse_pullback", witness, seed)


def check_cayley_hamilton(
    sig: Signature, route: str | None = None, trials: int = 50, seed: int = 0
) -> CheckReport:
    """The image's characteristic polynomial annihilates the element itself."""
    spec = get_spec(sig, route)

    def trial(rng: random.Random) -> str | None:
        a = random_multivector(sig, rng)
        return None if charpoly_evaluate(element_charpoly(a, spec.route), a).is_zero else f"a = {a}"

    return _sampled(spec, "cayley_hamilton", trials, seed, trial)


def check_suite(
    sig: Signature,
    route: str | None = None,
    seed: int = 0,
    trials: int | None = None,
) -> list[CheckReport]:
    """All applicable checks for one signature/route, deterministic in seed.

    Reports come back sorted by check name so concurrent runs merge stably.
    """
    spec = get_spec(sig, route)
    n = sig.n
    if trials is None:
        trials = 100 if n <= 6 else 10
    reports = [
        check_transform_pair(spec),
        check_similarity(sig, spec.route, trials=trials, seed=seed),
        check_homomorphism(sig, spec.route, trials=min(trials, 100), seed=seed + 1),
        check_unit(sig, spec.route),
    ]
    if n <= 6:
        reports.append(check_faithfulness(sig, spec.route))
        reports.append(check_round_trip(sig, spec.route, trials=min(trials, 20), seed=seed + 2))
        if n <= 4:
            reports.append(
                check_inverse_pullback(sig, spec.route, trials=min(trials, 50), seed=seed + 3)
            )
        if spec.target.ring in (REAL, DOUBLE_REAL):
            reports.append(
                check_cayley_hamilton(sig, spec.route, trials=min(trials, 50), seed=seed + 4)
            )
    return sorted(reports, key=lambda r: r.name)


def run_catalog_suite(
    signatures: Sequence[tuple[Signature, str | None]] | None = None,
    seed: int = 0,
    trials: int | None = None,
) -> list[CheckReport]:
    """Suites over (signature, route) pairs; defaults to every listed route
    of the whole catalog, which is what ``cliffrep verify --all`` runs."""
    from .catalog import catalog_signatures

    if signatures is None:
        signatures = [(sig, route) for sig, routes in catalog_signatures() for route in routes]
    reports: list[CheckReport] = []
    for sig, route in signatures:
        reports.extend(check_suite(sig, route, seed=seed, trials=trials))
    return reports


def emit_text(reports: Sequence[CheckReport]) -> str:
    return "\n".join(r.line() for r in reports) + ("\n" if reports else "")


def emit_records(reports: Sequence[CheckReport]) -> str:
    return "\n".join(r.record() for r in reports) + ("\n" if reports else "")
