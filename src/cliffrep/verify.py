"""Symbolic oracle and property harness for the catalog recipes.

The oracle evaluates P * D_a * (scale * Pinv) in matrix-over-the-algebra
arithmetic and reads each entry back through the target ring's unit blades;
any residue outside those units is an equality violation, which is what
flags misprinted source formulas.  The sandwich is taken one recipe step at
a time, reading each step's 2x2 blocks L and R from the transform pair
(never from the fast path's nodes or blade images): a doubling step maps
D = [[D_kj]] to L * [[conj_S(D_kj)]] * R / 4 with conj_S the sub-recipe's
sandwich, a reindexing step only carries the sub-recipe into the host, and
equal diagonal blocks are conjugated once.  That is the dense product
exactly, without a dense P.  The harness cross-checks the oracle against
the structural fast path on every trial (on a periodic recipe, the
sandwich against the fast path's first stage, then the inner oracle), plus
the homomorphism, faithfulness, unit, inverse-pullback, round-trip and
characteristic-polynomial properties, deterministically under a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import Multivector, Signature, reindex
from .catalog import MvMatrix, PeriodicNode, RepSpec, TransformCheckError, get_spec
from .represent import (
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
    COMPLEX,
    DOUBLE_QUATERNION,
    DOUBLE_REAL,
    QUATERNION,
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


def _unit_products(spec: RepSpec) -> list[Multivector]:
    sig = spec.signature
    one = Multivector.scalar(sig, 1)
    units = [one]
    if "i" in spec.unit_blades:
        units.append(spec.unit_blades["i"])
    if "j" in spec.unit_blades:
        units.append(spec.unit_blades["j"])
        units.append(spec.unit_blades["i"] * spec.unit_blades["j"])
    return units


def _entry_to_scalar(entry: Multivector, units: Sequence[Multivector], ring: str) -> RingScalar:
    """Express a conjugated entry over {1, i, j, ij}; leftovers are violations."""
    residue = dict(entry._num)
    comps = []
    for unit in units:
        # unit is a signed blade: coefficient = entry component on that blade
        mask, factor = next(iter(unit.terms()))
        comps.append(Fraction(residue.pop(mask, 0), entry._den) / factor)
    if residue:
        leftover = Multivector._raw(entry.sig, residue, entry._den)
        raise EqualityViolationError(f"entry has residue {leftover} outside the ring units")
    comps += [Fraction(0)] * (4 - len(comps))
    if ring == REAL:
        return RingScalar.real(comps[0])
    if ring == COMPLEX:
        return RingScalar.complex_parts(comps[0], comps[1])
    return RingScalar.quaternion_parts(*comps)


def _matrix_from_mv(
    grid: MvMatrix, spec: RepSpec
) -> RingMatrix | BlockPair:
    target = spec.target
    units = _unit_products(spec)
    if target.ring in (DOUBLE_REAL, DOUBLE_QUATERNION):
        inner = REAL if target.ring == DOUBLE_REAL else QUATERNION
        s = target.size
        zero = Multivector.zero(spec.signature)
        for r in range(2 * s):
            for c in range(2 * s):
                if (r < s) != (c < s) and grid.rows[r][c] != zero:
                    raise EqualityViolationError(
                        f"off-diagonal block entry ({r},{c}) = {grid.rows[r][c]} is non-zero"
                    )
        plus = RingMatrix(
            inner, [[_entry_to_scalar(grid.rows[r][c], units, inner) for c in range(s)] for r in range(s)]
        )
        minus = RingMatrix(
            inner,
            [
                [_entry_to_scalar(grid.rows[s + r][s + c], units, inner) for c in range(s)]
                for r in range(s)
            ],
        )
        return BlockPair(target.ring, plus, minus)
    return RingMatrix(
        target.ring,
        [
            [_entry_to_scalar(grid.rows[r][c], units, target.ring) for c in range(grid.ncols)]
            for r in range(grid.nrows)
        ],
    )


def oracle_represent(a: Multivector, spec: RepSpec) -> RingMatrix | BlockPair:
    """Image by direct symbolic conjugation of the diagonal argument.

    Independent of the structural fast path; entries outside the spanned
    ring units raise EqualityViolationError.
    """
    if isinstance(spec.node, PeriodicNode):
        return _oracle_periodic(a, spec)
    diag = spec.replication.diagonal_for(a)
    grid = spec.transform.conjugate(diag)
    return _matrix_from_mv(grid, spec)


def _oracle_periodic(a: Multivector, spec: RepSpec) -> RingMatrix | BlockPair:
    node = spec.node
    diag = spec.replication.diagonal_for(a)
    grid = spec.transform.conjugate(diag)
    entry_elems = _stage1_from_grid(grid, node)
    inner_imgs = [[oracle_represent(x, node.inner) for x in row] for row in entry_elems]
    return assemble_entry_images(spec.target, inner_imgs, node.inner.target.size)


def _stage1_from_grid(grid: MvMatrix, node) -> list[list[Multivector]]:
    """Read conjugated entries back as reduced-signature elements."""
    reduced = node.reduced
    outer = node.basis.outer
    rows = []
    for r in range(grid.nrows):
        row = []
        for c in range(grid.ncols):
            entry = grid.rows[r][c]
            comps: dict[int, Fraction] = {}
            residue = entry
            for amask in range(1 << len(outer)):
                prod = outer.product(amask)
                mask, factor = next(iter(prod.terms()))
                coeff = residue.coefficient(mask) / factor
                if coeff:
                    comps[amask] = coeff
                    residue = residue - prod * coeff
            if not residue.is_zero:
                raise EqualityViolationError(
                    f"stage-one entry ({r},{c}) has residue outside the outer products"
                )
            row.append(Multivector(reduced, comps))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# random elements


def random_multivector(sig: Signature, rng: random.Random, dense_limit: int = 6) -> Multivector:
    """Dense over all blades up to dense_limit generators, else 64 sparse blades."""
    terms: dict[int, Fraction] = {}
    if sig.n <= dense_limit:
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


def check_transform_pair(spec: RepSpec) -> CheckReport:
    defect = spec.transform.identity_defect()
    if defect is None:
        return CheckReport(spec.signature, spec.route, "transform", True)
    return CheckReport(
        spec.signature,
        spec.route,
        "transform",
        False,
        counterexample=f"product differs from the identity at cell {defect}",
    )


def _similarity_once(spec: RepSpec, a: Multivector) -> str | None:
    """None when the direct sandwich and the fast path agree on ``a``; else
    a witness.  On a periodic recipe the sandwich must equal the fast
    path's stage one, lifted into the host, before the inner oracle runs."""
    fast = represent_with(spec, a)
    try:
        if isinstance(spec.node, PeriodicNode):
            node = spec.node
            stage1 = periodic_stage1(node, a)
            lifted = MvMatrix(
                spec.signature,
                [[reindex(x, node.basis.outer) for x in row] for row in stage1],
            )
            if spec.transform.conjugate(spec.replication.diagonal_for(a)) != lifted:
                return "stage-one sandwich differs from the fast path's stage one"
            inner_imgs = [[oracle_represent(x, node.inner) for x in row] for row in stage1]
            oracle = assemble_entry_images(spec.target, inner_imgs, node.inner.target.size)
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
    rng = random.Random(seed)
    for trial in range(trials):
        a = random_multivector(sig, rng)
        witness = _similarity_once(spec, a)
        if witness is not None:
            return CheckReport(
                sig,
                spec.route,
                "similarity",
                False,
                seed=seed,
                counterexample=f"trial {trial}: a = {a}; {witness}",
            )
    return CheckReport(sig, spec.route, "similarity", True, seed=seed)


def check_homomorphism(
    sig: Signature, route: str | None = None, trials: int = 100, seed: int = 0
) -> CheckReport:
    spec = get_spec(sig, route)
    rng = random.Random(seed)
    for trial in range(trials):
        a = random_multivector(sig, rng)
        b = random_multivector(sig, rng)
        lam = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        fa, fb = represent_with(spec, a), represent_with(spec, b)
        if represent_with(spec, a * b) != fa * fb:
            return CheckReport(
                sig, spec.route, "homomorphism", False, seed=seed,
                counterexample=f"trial {trial}: product image mismatch for a={a}, b={b}",
            )
        if represent_with(spec, a + b) != fa + fb:
            return CheckReport(
                sig, spec.route, "homomorphism", False, seed=seed,
                counterexample=f"trial {trial}: sum image mismatch",
            )
        if represent_with(spec, a * lam) != fa * lam:
            return CheckReport(
                sig, spec.route, "homomorphism", False, seed=seed,
                counterexample=f"trial {trial}: scalar image mismatch",
            )
    return CheckReport(sig, spec.route, "homomorphism", True, seed=seed)


def check_unit(sig: Signature, route: str | None = None) -> CheckReport:
    spec = get_spec(sig, route)
    image = represent_with(spec, Multivector.scalar(sig, 1))
    ok = image == ring_identity(spec.target.ring, spec.target.size)
    return CheckReport(
        sig, spec.route, "unit", ok,
        counterexample=None if ok else "image of 1 is not the identity matrix",
    )


def check_faithfulness(sig: Signature, route: str | None = None) -> CheckReport:
    """Certificate: the basis blade images have Gram matrix N * I under the
    real trace form, so they are independent; a failure names a blade pair."""
    spec = get_spec(sig, route)
    try:
        basis_table(sig, spec.route)
    except NotInImageError as exc:
        return CheckReport(sig, spec.route, "faithfulness", False, counterexample=str(exc))
    return CheckReport(sig, spec.route, "faithfulness", True)


def check_round_trip(
    sig: Signature, route: str | None = None, trials: int = 20, seed: int = 0
) -> CheckReport:
    spec = get_spec(sig, route)
    rng = random.Random(seed)
    for mask in range(sig.dim):
        mv = Multivector.blade(sig, mask)
        if reconstruct(RepImage(sig, spec.route, represent_with(spec, mv))) != mv:
            return CheckReport(
                sig, spec.route, "round_trip", False, seed=seed,
                counterexample=f"basis blade {mask:#x}",
            )
    for trial in range(trials):
        mv = random_multivector(sig, rng)
        if reconstruct(RepImage(sig, spec.route, represent_with(spec, mv))) != mv:
            return CheckReport(
                sig, spec.route, "round_trip", False, seed=seed,
                counterexample=f"trial {trial}: a = {mv}",
            )
    return CheckReport(sig, spec.route, "round_trip", True, seed=seed)


def check_inverse_pullback(
    sig: Signature, route: str | None = None, trials: int = 50, seed: int = 0
) -> CheckReport:
    spec = get_spec(sig, route)
    rng = random.Random(seed)
    one = Multivector.scalar(sig, 1)
    found = 0
    attempts = 0
    while found < trials and attempts < trials * 40:
        attempts += 1
        a = random_multivector(sig, rng)
        inv = element_inverse(a, spec.route)
        if inv is None:
            continue
        found += 1
        if a * inv != one or inv * a != one:
            return CheckReport(
                sig, spec.route, "inverse_pullback", False, seed=seed,
                counterexample=f"a = {a}",
            )
    if found < trials:
        return CheckReport(
            sig, spec.route, "inverse_pullback", False, seed=seed,
            counterexample=f"only {found} invertible samples in {attempts} attempts",
        )
    return CheckReport(sig, spec.route, "inverse_pullback", True, seed=seed)


def check_cayley_hamilton(
    sig: Signature, route: str | None = None, trials: int = 50, seed: int = 0
) -> CheckReport:
    """The image's characteristic polynomial annihilates the element itself."""
    spec = get_spec(sig, route)
    rng = random.Random(seed)
    for trial in range(trials):
        a = random_multivector(sig, rng)
        coeffs = element_charpoly(a, spec.route)
        if not charpoly_evaluate(coeffs, a).is_zero:
            return CheckReport(
                sig, spec.route, "cayley_hamilton", False, seed=seed,
                counterexample=f"trial {trial}: a = {a}",
            )
    return CheckReport(sig, spec.route, "cayley_hamilton", True, seed=seed)


def check_suite(
    sig: Signature,
    route: str | None = None,
    seed: int = 0,
    trials: int | None = None,
) -> list[CheckReport]:
    """All applicable checks for one signature/route, deterministic in seed.

    Reports come back sorted by check name so concurrent runs merge stably.
    """
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
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
    """Suites over (signature, route) pairs; defaults to the default routes
    of the whole catalog."""
    from .catalog import catalog_signatures

    if signatures is None:
        signatures = [(sig, None) for sig, _ in catalog_signatures()]
    reports: list[CheckReport] = []
    for sig, route in signatures:
        reports.extend(check_suite(sig, route, seed=seed, trials=trials))
    return reports


def emit_text(reports: Sequence[CheckReport]) -> str:
    return "\n".join(r.line() for r in reports) + ("\n" if reports else "")


def emit_records(reports: Sequence[CheckReport]) -> str:
    return "\n".join(r.record() for r in reports) + ("\n" if reports else "")
