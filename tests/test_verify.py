"""Oracle conjugation, check reports, determinism and negative controls."""

import dataclasses
import hashlib
import importlib
import random
from fractions import Fraction
from math import lcm

import pytest

import cliffrep.catalog as catalog_mod
from cliffrep.algebra import Multivector, Signature
from cliffrep.catalog import (
    CONJUGATE_PAIRS,
    MvMatrix,
    ReplicationSpec,
    RepSpec,
    TransformPair,
    get_spec,
    routes_for,
)
from cliffrep.cli import main
from cliffrep.represent import (
    _kron,
    blade_image,
    element_charpoly,
    element_det,
    periodic_stage1,
    represent_with,
)
from cliffrep.rings import (
    BLOCK_RING,
    COMPONENTS,
    DOUBLE_REAL,
    REAL,
    BlockPair,
    RingMatrix,
    UnsupportedRingError,
    char_poly,
    from_numerators,
    mat_det,
    to_numerators,
)
from cliffrep.text import parse_multivector
from cliffrep.verify import (
    CheckReport,
    EqualityViolationError,
    _inner_oracle,
    _similarity_once,
    _stage_one,
    check_cayley_hamilton,
    check_homomorphism,
    check_inverse_pullback,
    check_round_trip,
    check_similarity,
    check_suite,
    check_transform_pair,
    check_unit,
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
    # exercises the full sandwich as one dense leaf product, on the
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


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize(
    "check", [check_similarity, check_homomorphism, check_round_trip, check_inverse_pullback,
              check_cayley_hamilton],
)
def test_sampled_checks_reject_nonpositive_trials(check, trials):
    with pytest.raises(ValueError, match=f"trials must be at least 1, not {trials}"):
        check(Signature(1, 1), trials=trials)


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


# sha256 of the printed samples for seeds 0, 1, 2, 17 and 81, each followed
# by the generator's next 32 bits, so a change in the draws shows here even
# where the verify records print only pass/fail and the seed
_SAMPLE_DIGESTS = {
    (0, 1): "a239151ef980630f3a3784886855e2c588aa8222ba28caa23a06658071086733",
    (2, 1): "3e46dd33496ef5ac3c263da545991380c2954280646e6f68a1bab408c4be8718",
    (2, 2): "459f52757a8d48407e57e934e8cbcd3572f9b490e8ac1cc63e9ae86bbbd4dbe3",
    (3, 3): "ce047e30cd7913d47269dbcf32a185da3b14e3e2674054430b61146228cce76b",
    (0, 6): "d013c7331ab5af613c8863776276a7bda58af428f77cddfaeb119dda3d378869",
    (4, 3): "cdf4456fec742b968cbc45a5a74bf0405008229c71fcd41dd23c9b1648cdddb9",
    (9, 0): "a798b87eea53dab8155e85458afe9cc5ad93e33195c382ef91ba13057fddf9e6",
    (8, 1): "9fd137f80f1d583b1df111b5355223214360d592f91318ee9d34063422e0393d",
    (17, 0): "6622d61adf6e7fce5f00c3ee5ad3207a74d606f8e220cc6be411e10593c5190b",
}


@pytest.mark.parametrize("pq", sorted(_SAMPLE_DIGESTS))
def test_random_multivector_samples_are_pinned(pq):
    sig = Signature(*pq)
    lines = []
    for seed in (0, 1, 2, 17, 81):
        rng = random.Random(seed)
        a = random_multivector(sig, rng)
        lines.append(f"{a} | {rng.getrandbits(32)}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _SAMPLE_DIGESTS[pq]


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


def test_periodic_similarity_fails_on_a_swapped_core(monkeypatch):
    # negative control for the periodic two-stage check: carry the (8,0) core
    # transform in through e2, e1, e3..e8; the pair is still invertible, but
    # its sandwich no longer matches the fast path's stage one
    import cliffrep.catalog as catalog_mod
    from cliffrep.algebra import GeneratorList

    sig = Signature(9, 0)
    spec = get_spec(sig, "periodic")
    gens = GeneratorList(sig, [Multivector.generator(sig, g) for g in (2, 1, 3, 4, 5, 6, 7, 8)])
    swapped = dataclasses.replace(
        spec,
        route="swapped-core",
        transform=TransformPair.reindexed(spec.node.core.transform, gens, "(9,0) swapped core"),
    )
    assert check_transform_pair(swapped).passed
    monkeypatch.setitem(catalog_mod._SPECS, (9, 0, "swapped-core"), swapped)
    report = check_similarity(sig, "swapped-core", trials=1)
    assert not report.passed
    assert "stage-one" in report.counterexample


def _paste_grid(grid, t: int) -> RingMatrix:
    """One matrix from a grid of t x t blocks over one ring."""
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


def _direct_nested(spec: RepSpec, stage1) -> object:
    """The inner recipe's own oracle on each stage-one entry, pasted."""
    inner = spec.node.inner
    images = [[oracle_represent(x, inner) for x in row] for row in stage1]
    t = inner.target.size
    if spec.target.ring in BLOCK_RING:
        plus = _paste_grid([[m.plus for m in row] for row in images], t)
        minus = _paste_grid([[m.minus for m in row] for row in images], t)
        return BlockPair(spec.target.ring, plus, minus)
    return _paste_grid(images, t)


def test_linear_inner_oracle_matches_the_direct_nested_oracle():
    # the inner oracle combines one sandwich per inner basis blade; the
    # direct nested oracle sandwiches every stage-one entry on its own
    elements = []
    for p, q in ((9, 0), (8, 1)):
        sig = Signature(p, q)
        rng = random.Random(p * 10 + q)
        elements += [(sig, random_multivector(sig, rng)) for _ in range(3)]
    sig = Signature(17, 0)
    elements += [(sig, Multivector.blade(sig, mask)) for mask in (1, 1 << 16, 0b101 << 8)]
    for sig, a in elements:
        spec = get_spec(sig, "periodic")
        stage1 = _stage_one(a, spec)
        linear = _inner_oracle(spec, stage1)
        assert linear == _direct_nested(spec, stage1), (sig, a)
        assert linear == represent_with(spec, a), (sig, a)


def test_negated_inner_unit_fails_similarity_through_the_inner_oracle():
    # negative control for the linear inner oracle: the (8,1) recipe's inner
    # C(1) recipe reads its entries with i negated; stage one is untouched
    sig = Signature(8, 1)
    spec = get_spec(sig, "periodic")
    inner = spec.node.inner
    negated = {**inner.unit_blades, "i": -inner.unit_blades["i"]}
    node = dataclasses.replace(spec.node, inner=dataclasses.replace(inner, unit_blades=negated))
    broken = dataclasses.replace(spec, route="negated-inner-i", node=node)
    a = random_multivector(sig, random.Random(3))
    assert _stage_one(a, broken) == periodic_stage1(broken.node, a)
    assert _similarity_once(broken, a) == "oracle and fast path disagree"
    assert _similarity_once(spec, a) is None


def test_sign_flipped_inner_sandwich_fails_periodic_similarity(monkeypatch):
    # negative control for the in-place inner sum: the (9,0) recipe's inner
    # sandwich of e1 comes back negated; stage one and the scalar's are kept
    verify_mod = importlib.import_module("cliffrep.verify")
    sig = Signature(9, 0)
    inner = get_spec(sig, "periodic").node.inner
    direct = verify_mod.oracle_represent
    assert check_similarity(sig, "periodic", trials=3).passed

    def flipped(a, spec):
        value = direct(a, spec)
        return -value if spec is inner and a == Multivector.blade(inner.signature, 1) else value

    monkeypatch.setattr(verify_mod, "oracle_represent", flipped)
    report = check_similarity(sig, "periodic", trials=3)
    assert not report.passed
    assert report.counterexample.startswith("trial 0: a = ")
    assert report.counterexample.endswith("oracle and fast path disagree")


def test_reader_refuses_a_ring_unit_that_is_not_a_signed_blade():
    sig = Signature(3, 0)
    good = get_spec(sig)
    doubled = {**good.unit_blades, "i": good.unit_blades["i"] * 2}
    tampered = dataclasses.replace(good, route="doubled-i", unit_blades=doubled)
    with pytest.raises(EqualityViolationError, match="not a signed unit blade"):
        oracle_represent(Multivector.generator(sig, 1), tampered)


def test_plain_copies_fail_similarity_on_conjugate_pair_routes(monkeypatch):
    # a conjugate-pair recipe fed diag(a, ..., a) instead of diag(a I, conj(a) I)
    # leaves entries outside the target ring's units
    for p, q, route in ((2, 1, "diagonal"), (0, 1, "real2"), (5, 0, "explicit")):
        sig = Signature(p, q)
        spec = get_spec(sig, route)
        assert spec.replication.kind == CONJUGATE_PAIRS
        plain = dataclasses.replace(
            spec, route="plain-copies", replication=ReplicationSpec(spec.replication.copies)
        )
        monkeypatch.setitem(catalog_mod._SPECS, (p, q, "plain-copies"), plain)
        report = check_similarity(sig, "plain-copies", trials=1)
        assert not report.passed, sig
        assert "oracle violation" in report.counterexample, sig


# -- negative controls on tampered blade images


def _registered_copy(monkeypatch, sig: Signature, route: str, images: dict) -> RepSpec:
    """A copy of the signature's default recipe, registered under ``route``,
    with the given compiled blade images in place of its own."""
    copy = dataclasses.replace(get_spec(sig), route=route)
    copy.blade_images.update(images)
    monkeypatch.setitem(catalog_mod._SPECS, (sig.p, sig.q, route), copy)
    return copy


def test_dependent_blade_images_fail_checks_without_raising(monkeypatch, capsys):
    sig = Signature(2, 0)
    _registered_copy(monkeypatch, sig, "e1-as-e2", {1: blade_image(get_spec(sig), 2)})
    reports = {r.name: r for r in check_suite(sig, "e1-as-e2", trials=2)}
    for name in ("faithfulness", "round_trip", "inverse_pullback"):
        assert not reports[name].passed, name
        assert "Gram matrix" in reports[name].counterexample, name
    assert main(["verify", "--sig", "2,0", "--route", "e1-as-e2"]) == 1
    err = capsys.readouterr().err
    assert "failing check" in err and "Traceback" not in err


def test_inverse_pullback_check_reports_a_wrong_inverse(monkeypatch):
    # the package re-exports a function named represent over the module name
    represent_module = importlib.import_module("cliffrep.represent")
    monkeypatch.setattr(represent_module, "reconstruct", lambda image: Multivector.scalar(image.signature, 2))
    report = check_inverse_pullback(Signature(0, 2), trials=2)
    assert not report.passed
    assert report.counterexample.startswith("a = ") and "does not invert it" in report.counterexample


def test_negated_generator_image_fails_homomorphism_and_similarity(monkeypatch):
    sig = Signature(2, 0)
    _registered_copy(monkeypatch, sig, "negated-e1", {1: _kron(bytes(2), blade_image(get_spec(sig), 1), 1)})
    report = check_homomorphism(sig, "negated-e1", trials=3, seed=0)
    assert not report.passed
    assert report.counterexample.startswith("trial 0: product image mismatch for a=")
    report = check_similarity(sig, "negated-e1", trials=3, seed=0)
    assert not report.passed
    assert report.counterexample.startswith("trial 0: a = ")
    assert report.counterexample.endswith("; oracle and fast path disagree")


def test_negated_unit_image_fails_unit_check(monkeypatch):
    sig = Signature(2, 0)
    _registered_copy(monkeypatch, sig, "negated-unit", {0: _kron(bytes(2), blade_image(get_spec(sig), 0), 1)})
    report = check_unit(sig, "negated-unit")
    assert not report.passed
    assert report.counterexample == "image of 1 is not the identity matrix"


# -- determinants and characteristic polynomials of 2R images, block by block
#
# The reference is the block-diagonal real matrix of the pair, pasted with
# _paste_grid, and its determinant and characteristic polynomial over R.


def _doubled_real_routes():
    """Every listed route with a 2R target and n <= 9, then (6,5)."""
    found = [
        (Signature(p, n - p), route)
        for n in range(10)
        for p in range(n + 1)
        for route in routes_for(Signature(p, n - p))
        if get_spec(Signature(p, n - p), route).target.ring == DOUBLE_REAL
    ]
    return found + [(Signature(6, 5), "diagonal")]


def _block_diagonal(pair: BlockPair) -> RingMatrix:
    zero = RingMatrix.zeros(REAL, pair.nrows)
    return _paste_grid([[pair.plus, zero], [zero, pair.minus]], pair.nrows)


def _plus_one_blade(sig: Signature) -> Multivector:
    """The first non-scalar blade squaring to +1, so that 1 + b is a zero divisor."""
    one = Multivector.scalar(sig, 1)
    return next(b for m in range(1, sig.dim) if (b := Multivector.blade(sig, m)) * b == one)


def _seeded(sig: Signature, rng: random.Random, blades: int | None) -> Multivector:
    masks = range(sig.dim) if blades is None else rng.sample(range(sig.dim), min(blades, sig.dim))
    return Multivector(sig, {m: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for m in masks})


def test_doubled_real_routes_cover_the_named_signatures():
    pairs = {(sig.p, sig.q) for sig, _ in _doubled_real_routes()}
    assert {(1, 0), (2, 1), (4, 3), (9, 0), (6, 5)} <= pairs


@pytest.mark.parametrize("sig,route", _doubled_real_routes(), ids=lambda x: str(x))
def test_blockwise_det_and_charpoly_match_the_pasted_form(sig, route):
    rng = random.Random(f"blockwise:{sig}:{route}")
    zero_divisor = Multivector.scalar(sig, 1) + _plus_one_blade(sig)
    # dense up to n = 7 (24 blades above, where the pasted charpoly is slow),
    # sparse, and a singular product through the zero divisor 1 + b
    singular = _seeded(sig, rng, 3) * zero_divisor * _seeded(sig, rng, 2)
    elements = [_seeded(sig, rng, None if sig.n <= 7 else 24), _seeded(sig, rng, 3), singular]
    for a in elements:
        pasted = _block_diagonal(represent_with(get_spec(sig, route), a))
        det, coeffs = element_det(a, route), element_charpoly(a, route)
        assert det == mat_det(pasted) and det.ring == REAL
        assert coeffs == char_poly(pasted)
        assert len(coeffs) == pasted.size + 1 and coeffs[0] == 1
        assert all(type(c) is Fraction for c in coeffs)
    assert element_det(singular, route).is_zero


def test_doubled_quaternion_refusals_are_unchanged():
    a = parse_multivector(Signature(0, 3), "1 + eps1")
    with pytest.raises(UnsupportedRingError) as det_refusal:
        element_det(a)
    assert str(det_refusal.value) == "determinant over doubled quaternions is unsupported"
    with pytest.raises(UnsupportedRingError) as charpoly_refusal:
        element_charpoly(a)
    assert str(charpoly_refusal.value) == "characteristic polynomial needs a real target"
