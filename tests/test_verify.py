"""Oracle conjugation, check reports, determinism and negative controls."""

import dataclasses
import random

import pytest

from cliffrep.algebra import Multivector, Signature
from cliffrep.catalog import (
    MvMatrix,
    RepSpec,
    TransformPair,
    get_spec,
)
from cliffrep.represent import represent_with
from cliffrep.rings import REAL, RingMatrix
from cliffrep.verify import (
    CheckReport,
    EqualityViolationError,
    check_homomorphism,
    check_similarity,
    check_suite,
    check_transform_pair,
    emit_records,
    emit_text,
    oracle_represent,
    random_multivector,
    run_catalog_suite,
)


def test_oracle_examples():
    s01 = Signature(0, 1)
    spec = get_spec(s01, "real2")
    got = oracle_represent(Multivector.generator(s01, 1), spec)
    assert got == RingMatrix.from_components(REAL, [[0, -1], [1, 0]])

    s20 = Signature(2, 0)
    spec20 = get_spec(s20)
    assert oracle_represent(Multivector.generator(s20, 1), spec20) == RingMatrix.from_components(
        REAL, [[1, 0], [0, -1]]
    )
    for sig in (s20, Signature(1, 1), Signature(0, 3)):
        spec_any = get_spec(sig)
        one = Multivector.scalar(sig, 1)
        assert oracle_represent(one, spec_any) == represent_with(spec_any, one)


def test_oracle_agrees_with_fast_path_basis_blades():
    for p, q in [(2, 1), (1, 2), (0, 3), (3, 1), (1, 3), (0, 4), (3, 2)]:
        sig = Signature(p, q)
        spec = get_spec(sig)
        for mask in range(sig.dim):
            mv = Multivector.blade(sig, mask)
            assert oracle_represent(mv, spec) == represent_with(spec, mv)


def test_oracle_periodic_spot_blades():
    sig = Signature(9, 0)
    spec = get_spec(sig)
    for mask in (0, 1, 1 << 8, sig.full_mask):
        mv = Multivector.blade(sig, mask)
        assert oracle_represent(mv, spec) == represent_with(spec, mv)


def test_oracle_wide_signatures_spot_blades():
    # full symbolic sandwich on single blades for the size-16 transforms the
    # randomized checks cover through the cross-multiplied identity
    for p, q in [(8, 2), (6, 3), (7, 2), (7, 3)]:
        sig = Signature(p, q)
        spec = get_spec(sig, "diagonal")
        for mask in (0, 1, sig.full_mask >> 1, sig.full_mask):
            mv = Multivector.blade(sig, mask)
            assert oracle_represent(mv, spec) == represent_with(spec, mv), (p, q, mask)


def test_oracle_largest_transforms_single_blade():
    # the size-32 transforms get one direct conjugation each; slow but it
    # exercises the full sandwich with no shared lifting helpers, on the
    # materialized P and Pinv (a dense pair, not the step-wise evaluation)
    for p, q in [(5, 5), (6, 4), (5, 4)]:
        sig = Signature(p, q)
        spec = get_spec(sig, "diagonal")
        tp = spec.transform
        dense = dataclasses.replace(spec, transform=TransformPair(tp.P, tp.Pinv, tp.scale))
        mv = Multivector.generator(sig, 1)
        assert oracle_represent(mv, dense) == represent_with(spec, mv), (p, q)


def test_equality_violation_flags_tampered_units():
    sig = Signature(3, 0)
    good = get_spec(sig)
    tampered = RepSpec(
        signature=good.signature,
        route="tampered",
        target=good.target,
        transform=good.transform,
        replication=good.replication,
        unit_blades={"i": Multivector.generator(sig, 1)},  # wrong unit
        node=good.node,
    )
    with pytest.raises(EqualityViolationError):
        oracle_represent(Multivector.generator(sig, 3), tampered)


def test_check_transform_pass_and_corrupted_fixture():
    report = check_transform_pair(get_spec(Signature(2, 1)))
    assert report.passed
    spec = get_spec(Signature(2, 0))
    sig = spec.signature
    rows = [list(r) for r in spec.transform.P.rows]
    rows[0][1] = rows[0][1] * 3
    bad = RepSpec(
        signature=spec.signature,
        route="corrupted",
        target=spec.target,
        transform=TransformPair(MvMatrix(sig, rows), spec.transform.Pinv, spec.transform.scale),
        replication=spec.replication,
        unit_blades=spec.unit_blades,
        node=spec.node,
    )
    report = check_transform_pair(bad)
    assert not report.passed
    assert report.counterexample is not None


def test_check_similarity_deterministic_bytes():
    r1 = check_similarity(Signature(1, 1), trials=20, seed=42)
    r2 = check_similarity(Signature(1, 1), trials=20, seed=42)
    assert emit_records([r1]).encode() == emit_records([r2]).encode()
    assert r1.seed == 42


def test_check_similarity_doubled_ring_routes():
    for p, q in [(1, 0), (2, 1), (0, 3), (3, 2)]:
        rep = check_similarity(Signature(p, q), trials=20, seed=5)
        assert rep.passed, rep.counterexample


def test_failing_report_carries_witness():
    spec = get_spec(Signature(2, 0))
    sig = spec.signature
    swapped = MvMatrix(sig, [spec.transform.P.rows[1], spec.transform.P.rows[0]])
    swapped_inv = MvMatrix(
        sig, [[row[1], row[0]] for row in spec.transform.Pinv.rows]
    )
    bad = RepSpec(
        signature=spec.signature,
        route="tampered",
        target=spec.target,
        transform=TransformPair(swapped, swapped_inv, spec.transform.scale),
        replication=spec.replication,
        unit_blades=spec.unit_blades,
        node=spec.node,
    )
    import cliffrep.verify as verify_mod

    rng = random.Random(0)
    a = random_multivector(spec.signature, rng)
    witness = verify_mod._similarity_once(bad, a)
    assert witness is not None


def test_check_suite_quaternion_routes_and_reports():
    for route in ("quaternion", "complex2", "real4"):
        reports = check_suite(Signature(0, 2), route, seed=9, trials=25)
        assert reports and all(r.passed for r in reports)
        names = [r.name for r in reports]
        assert names == sorted(names)


def test_check_suite_rejects_nonpositive_trials():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            check_suite(Signature(2, 1), trials=trials)


def test_check_suite_periodic_reduced_trials():
    reports = check_suite(Signature(9, 0), seed=1, trials=3)
    assert reports and all(r.passed for r in reports)


def test_run_catalog_suite_empty_list():
    assert run_catalog_suite(signatures=[]) == []


def test_emitters():
    rep = CheckReport(Signature(1, 1), "explicit", "unit", True, seed=3)
    assert emit_text([rep]).startswith("(1,1) explicit unit pass seed=3")
    assert emit_records([rep]) == "1,1\texplicit\tunit\tpass\t3\n"
    assert emit_text([]) == ""


def test_random_multivector_sparse_wide():
    rng = random.Random(0)
    wide = random_multivector(Signature(8, 0), rng)
    assert len(wide.blades()) <= 64
    dense = random_multivector(Signature(2, 2), rng)
    assert dense.sig.dim == 16


def test_check_homomorphism_runs():
    rep = check_homomorphism(Signature(2, 2), trials=10, seed=2)
    assert rep.passed


def test_periodicity_extends_beyond_the_catalog():
    # mixed-generator reduction: one +1 and one -1 outer generator
    from cliffrep.catalog import classify
    from cliffrep.rings import ring_identity

    for p, q in [(8, 1), (9, 1)]:
        sig = Signature(p, q)
        spec = get_spec(sig, "periodic")
        target = classify(sig)
        assert (spec.target.ring, spec.target.size) == (target.ring, target.size)
        one = Multivector.scalar(sig, 1)
        assert represent_with(spec, one) == ring_identity(spec.target.ring, spec.target.size)
        rep = check_similarity(sig, "periodic", trials=3, seed=11)
        assert rep.passed, rep.counterexample
        rng = random.Random(2)
        a, b = random_multivector(sig, rng), random_multivector(sig, rng)
        assert represent_with(spec, a * b) == represent_with(spec, a) * represent_with(spec, b)
