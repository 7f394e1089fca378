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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .algebra import Multivector, Signature
from .catalog import MvMatrix, PeriodicNode, RepSpec, TransformCheckError, get_spec
from .represent import (
    InversePullbackError,
    NotInImageError,
    RepImage,
    assemble_entry_images,
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
    DOUBLE_REAL,
    REAL,
    BlockPair,
    RingMatrix,
    RingScalar,
    ring_identity,
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


def _read(entry: Multivector, signed_blades: Sequence[Multivector], what: str) -> list[Fraction]:
    """Coordinates of ``entry`` over distinct signed blades; any leftover
    component is an equality violation."""
    residue = dict(entry._num)
    coords = []
    for blade in signed_blades:
        ((mask, num),) = blade._num.items()
        coords.append(Fraction(residue.pop(mask, 0) * blade._den, entry._den * num))
    if residue:
        leftover = Multivector._raw(entry.sig, residue, entry._den)
        raise EqualityViolationError(f"entry has residue {leftover} outside {what}")
    return coords


def _matrix_from_mv(grid: MvMatrix, spec: RepSpec) -> RingMatrix | BlockPair:
    """Read a conjugated grid over the ring units {1, i, j, ij}; a doubled
    ring reads both diagonal blocks and needs zero off-diagonal blocks."""
    named = spec.unit_blades
    units = [Multivector.scalar(spec.signature, 1)] + [named[k] for k in ("i", "j") if k in named]
    if "j" in named:
        units.append(named["i"] * named["j"])
    target = spec.target
    ring = BLOCK_RING.get(target.ring, target.ring)

    def block(start: int, size: int) -> RingMatrix:
        cells = range(start, start + size)
        rows = [[_read(grid.rows[r][c], units, "the ring units") for c in cells] for r in cells]
        return RingMatrix(ring, [[RingScalar(ring, *x) for x in row] for row in rows])

    if target.ring not in BLOCK_RING:
        return block(0, grid.nrows)
    s = target.size
    for r in range(2 * s):
        for c in range(2 * s):
            if (r < s) != (c < s) and grid.rows[r][c]:
                raise EqualityViolationError(
                    f"off-diagonal block entry ({r},{c}) = {grid.rows[r][c]} is non-zero"
                )
    return BlockPair(target.ring, block(0, s), block(s, s))


def _stage_one(a: Multivector, spec: RepSpec) -> list[list[Multivector]]:
    """A periodic recipe's sandwich, each entry read back over the outer
    generators' products as an element of the reduced signature."""
    node = spec.node
    outer = node.basis.outer
    blades = [outer.product(m) for m in range(1 << len(outer))]
    grid = spec.transform.conjugate(spec.replication.diagonal_for(a))
    coords = [[_read(x, blades, "the outer products") for x in row] for row in grid.rows]
    return [[Multivector(node.reduced, dict(enumerate(c))) for c in row] for row in coords]


def _inner_oracle(spec: RepSpec, stage1: list[list[Multivector]]) -> RingMatrix | BlockPair:
    """The inner recipe's oracle on every stage-one entry, pasted together."""
    inner = spec.node.inner
    images = [[oracle_represent(x, inner) for x in row] for row in stage1]
    return assemble_entry_images(spec.target, images, inner.target.size)


def oracle_represent(a: Multivector, spec: RepSpec) -> RingMatrix | BlockPair:
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
    terms: dict[int, Fraction] = {}
    if sig.n <= _DENSE_LIMIT:
        masks: Iterable[int] = range(sig.dim)
    else:
        masks = {rng.randrange(sig.dim) for _ in range(64)}
    for m in masks:
        num = rng.randint(-9, 9)
        if num:
            terms[m] = Fraction(num, rng.choice((1, 2, 3)))
    return Multivector(sig, terms)


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
