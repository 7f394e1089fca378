"""Acceptance suite: the exit criteria for the whole package.

Every criterion is exact (tolerance zero, rational arithmetic throughout)
and prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines and per-criterion timings.
"""

import random
import time

from cliffrep.algebra import Multivector, Signature
from cliffrep.catalog import (
    CORRECTIONS,
    canonical_route,
    catalog_signatures,
    classify,
    corrections_markdown,
    get_spec,
)
from cliffrep.represent import (
    RepImage,
    charpoly_evaluate,
    element_charpoly,
    element_det,
    element_inverse,
    reconstruct,
    represent_with,
)
from cliffrep.rings import RingMatrix, RingScalar, ring_embed_real, ring_identity
from cliffrep.verify import (
    check_faithfulness,
    check_homomorphism,
    check_similarity,
    check_transform_pair,
    check_unit,
    random_multivector,
)

SEED = 20260810


def _all_pairs():
    return [(sig, route) for sig, routes in catalog_signatures() for route in routes]


def _report(num: int, name: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status}  [{time.time() - started:.1f}s]")


def test_catalog_covers_required_signatures():
    covered = {(s.p, s.q) for s, _ in catalog_signatures()}
    required = {(p, n - p) for n in range(7) for p in range(n + 1)}
    required |= {(7, 0), (0, 7), (8, 0), (0, 8), (9, 0), (0, 9)}
    required |= {
        (n + k, n) for k in range(7) for n in range(1, 6) if 2 * n + k <= 10
    }
    assert required <= covered


def test_criterion_1_transform_validity():
    t0 = time.time()
    failures = []
    for sig, route in _all_pairs():
        report = check_transform_pair(get_spec(sig, route))
        if not report.passed:
            failures.append(report.line())
    _report(1, "transform validity", not failures, t0)
    assert not failures, failures


def test_criterion_2_similarity_equalities():
    t0 = time.time()
    failures = []
    for sig, route in _all_pairs():
        trials = 100 if sig.n <= 6 else 10
        report = check_similarity(sig, route, trials=trials, seed=SEED)
        if not report.passed:
            failures.append(report.line())
    _report(2, "similarity equalities", not failures, t0)
    assert not failures, failures


def test_criterion_3_classification_consistency():
    t0 = time.time()
    ok = True
    for sig, _routes in catalog_signatures():
        spec = get_spec(sig, canonical_route(sig))
        target = classify(sig)
        if (spec.target.ring, spec.target.size) != (target.ring, target.size):
            ok = False
    spots = {
        (3, 1): "R(4)",
        (2, 2): "R(4)",
        (0, 2): "H(1)",
        (2, 1): "2R(2)",
    }
    for (p, q), want in spots.items():
        if str(classify(Signature(p, q))) != want:
            ok = False
    # the printed complex target for (2,2) is amended and recorded
    recorded = any("(2,2)" in c.source for c in CORRECTIONS)
    ok = ok and recorded
    _report(3, "classification consistency", ok, t0)
    assert ok


def test_criterion_4_homomorphism_faithfulness_unit():
    t0 = time.time()
    failures = []
    for sig, route in _all_pairs():
        if sig.n > 6:
            continue
        hom = check_homomorphism(sig, route, trials=100, seed=SEED)
        unit = check_unit(sig, route)
        faithful = check_faithfulness(sig, route)
        for rep in (hom, unit, faithful):
            if not rep.passed:
                failures.append(rep.line())
    _report(4, "homomorphism/faithfulness/unit", not failures, t0)
    assert not failures, failures


def test_criterion_5_determinant_formulas():
    t0 = time.time()
    rng = random.Random(SEED)
    ok = True
    s10, s20 = Signature(1, 0), Signature(2, 0)
    for _ in range(50):
        a = random_multivector(s10, rng)
        a0, a1 = a.coefficient(0), a.coefficient(1)
        if element_det(a).r != a0 * a0 - a1 * a1:
            ok = False
    for _ in range(50):
        a = random_multivector(s20, rng)
        a0, a1, a2, a3 = (a.coefficient(m) for m in range(4))
        if element_det(a).r != a0 * a0 - a1 * a1 - a2 * a2 + a3 * a3:
            ok = False
    _report(5, "determinant formulas", ok, t0)
    assert ok


def test_criterion_6_cayley_hamilton():
    t0 = time.time()
    rng = random.Random(SEED)
    ok = True
    for p, q in [(1, 0), (2, 0), (1, 1), (3, 1), (2, 2)]:
        sig = Signature(p, q)
        for _ in range(50):
            a = random_multivector(sig, rng)
            coeffs = element_charpoly(a)
            if not charpoly_evaluate(coeffs, a).is_zero:
                ok = False
    _report(6, "characteristic polynomial annihilation", ok, t0)
    assert ok


def test_criterion_7_round_trip():
    t0 = time.time()
    rng = random.Random(SEED)
    failures = []
    for sig, route in _all_pairs():
        if sig.n > 6:
            continue
        spec = get_spec(sig, route)
        for mask in range(sig.dim):
            mv = Multivector.blade(sig, mask)
            img = RepImage(sig, spec.route, represent_with(spec, mv))
            if reconstruct(img) != mv:
                failures.append(f"{sig} {route} blade {mask:#x}")
        for _ in range(20):
            mv = random_multivector(sig, rng)
            img = RepImage(sig, spec.route, represent_with(spec, mv))
            if reconstruct(img) != mv:
                failures.append(f"{sig} {route} random element")
    _report(7, "image round trip", not failures, t0)
    assert not failures, failures


def test_criterion_8_inverse_pullback():
    t0 = time.time()
    rng = random.Random(SEED)
    failures = []
    for sig, route in _all_pairs():
        if sig.n > 4:
            continue
        one = Multivector.scalar(sig, 1)
        found = 0
        attempts = 0
        while found < 50 and attempts < 4000:
            attempts += 1
            a = random_multivector(sig, rng)
            inv = element_inverse(a, route)
            if inv is None:
                continue
            found += 1
            if a * inv != one or inv * a != one:
                failures.append(f"{sig} {route}: bad inverse for {a}")
        if found < 50:
            failures.append(f"{sig} {route}: only {found} invertible samples")
    s10 = Signature(1, 0)
    zero_divisor = Multivector.scalar(s10, 1) + Multivector.generator(s10, 1)
    if element_inverse(zero_divisor) is not None:
        failures.append("the split idempotent pair must be non-invertible")
    _report(8, "inverse pullback", not failures, t0)
    assert not failures, failures


def _embed_h_in_c2(value: RingMatrix) -> RingMatrix:
    """z + w*j -> [[z, -w], [conj(w), conj(z)]] entrywise, for z, w in C."""
    rows = []
    for row in value.rows:
        top, bottom = [], []
        for x in row:
            z, w = RingScalar.complex_parts(x.r, x.i), RingScalar.complex_parts(x.j, x.k)
            top += [z, -w]
            bottom += [w.conjugate(), z.conjugate()]
        rows += [top, bottom]
    return RingMatrix("C", rows)


def test_criterion_9_route_agreement():
    # the routes of one signature differ in their target ring, and a fixed
    # embedding of that ring carries one image onto the other on every blade
    t0 = time.time()
    failures = []
    cases = [
        ((0, 1), "real2", "complex1", ring_embed_real),
        ((0, 2), "real4", "quaternion", ring_embed_real),
        ((0, 2), "complex2", "quaternion", _embed_h_in_c2),
    ]
    for (p, q), route, base, embed in cases:
        sig = Signature(p, q)
        spec, base_spec = get_spec(sig, route), get_spec(sig, base)
        for mask in range(sig.dim):
            mv = Multivector.blade(sig, mask)
            if represent_with(spec, mv) != embed(represent_with(base_spec, mv)):
                failures.append(f"{sig} {route} blade {mask:#x}")
    _report(9, "route agreement", not failures, t0)
    assert not failures, failures


def test_criterion_10_periodicity():
    t0 = time.time()
    rng = random.Random(SEED)
    failures = []
    for p, q in [(9, 0), (0, 9)]:
        sig = Signature(p, q)
        spec = get_spec(sig)
        reduced = Signature(p - 8 if p else 0, q - 8 if q >= 8 else q)
        base = get_spec(reduced, canonical_route(reduced))
        if spec.target.size != 16 * base.target.size:
            failures.append(f"{sig}: size is not sixteenfold")
        if (spec.target.ring, spec.target.size) != (
            classify(sig).ring,
            classify(sig).size,
        ):
            failures.append(f"{sig}: composed target differs from the classification")
        one = Multivector.scalar(sig, 1)
        if represent_with(spec, one) != ring_identity(spec.target.ring, spec.target.size):
            failures.append(f"{sig}: image of 1 is not the identity")
        for _ in range(5):
            a = random_multivector(sig, rng)
            b = random_multivector(sig, rng)
            fa, fb = represent_with(spec, a), represent_with(spec, b)
            if represent_with(spec, a * b) != fa * fb:
                failures.append(f"{sig}: composed map is not multiplicative")
                break
    _report(10, "periodicity lifts", not failures, t0)
    assert not failures, failures


def test_criterion_11_corrections_ledger():
    t0 = time.time()
    ok = len(CORRECTIONS) > 0
    doc = corrections_markdown()
    for corr in CORRECTIONS:
        if not (corr.source in doc and corr.failing_check in doc):
            ok = False
        # zero silent amendments: the literal form must demonstrably fail
        if not corr.demonstrate():
            ok = False
    _report(11, "corrections ledger", ok, t0)
    assert ok
