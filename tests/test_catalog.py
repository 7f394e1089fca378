"""Catalog recipes: classification, transforms, routes, corrections."""

import dataclasses
import hashlib
import random
import re
from fractions import Fraction

import pytest

import cliffrep.catalog as catalog_mod
from cliffrep.algebra import GeneratorList, Multivector, Signature, SignatureMismatchError
from cliffrep.catalog import (
    CONJUGATE_PAIRS,
    PLAIN,
    CatalogMissError,
    CORRECTIONS,
    MvMatrix,
    TransformCheckError,
    TransformPair,
    catalog_signatures,
    catalog_text,
    classify,
    corrections_markdown,
    default_route,
    get_spec,
    routes_for,
)

HALF = Fraction(1, 2)


def test_classify_spot_values():
    assert str(classify(Signature(3, 1))) == "R(4)"
    assert str(classify(Signature(0, 2))) == "H(1)"
    assert str(classify(Signature(2, 1))) == "2R(2)"
    assert str(classify(Signature(0, 1))) == "C(1)"
    assert str(classify(Signature(2, 2))) == "R(4)"
    assert str(classify(Signature(9, 0))) == "2R(16)"
    assert str(classify(Signature(0, 9))) == "C(16)"


def test_classify_periodicity_size_rule():
    for p, q in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3)]:
        base = classify(Signature(p, q))
        lifted = classify(Signature(p + 8, q))
        assert lifted.ring == base.ring
        assert lifted.size == 16 * base.size


def test_explicit_zero_one_recipe():
    spec = get_spec(Signature(0, 1), "real2")
    sig = spec.signature
    one = Multivector.scalar(sig, 1)
    eps = Multivector.generator(sig, 1)
    assert spec.transform.P == MvMatrix(sig, [[one, eps], [-eps, -one]])
    assert spec.transform.scale == HALF
    assert spec.target.ring == "R" and spec.target.size == 2
    assert spec.replication.kind == CONJUGATE_PAIRS


def test_explicit_two_zero_recipe():
    spec = get_spec(Signature(2, 0))
    sig = spec.signature
    one = Multivector.scalar(sig, 1)
    e1 = Multivector.generator(sig, 1)
    e2 = Multivector.generator(sig, 2)
    e12 = e1 * e2
    expected = MvMatrix(sig, [[one + e1, e2 - e12], [e2 + e12, one - e1]]).scale(HALF)
    assert spec.transform.P == expected
    assert spec.transform.Pinv == expected
    assert spec.transform.scale == 1
    # equal matrices built apart hash alike, so they dedupe in a set
    assert hash(spec.transform.P) == hash(expected)
    assert len({spec.transform.P, spec.transform.Pinv, expected}) == 1
    assert spec.replication.kind == PLAIN and spec.replication.copies == 2


# -- typed refusals of matrices over the algebra


_S21 = Signature(2, 1)
_ONE21 = Multivector.scalar(_S21, 1)
_E1 = Multivector.generator(_S21, 1)
_ONE30 = Multivector.scalar(Signature(3, 0), 1)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([], ValueError, "empty matrix"),
        ([[]], ValueError, "empty matrix"),
        ([[_ONE21, _E1], [_E1]], ValueError, "ragged rows"),
        ([[_ONE21], [_E1, _ONE21]], ValueError, "ragged rows"),
        ([[_ONE21, _ONE30]], SignatureMismatchError, "different algebra"),
    ],
)
def test_mvmatrix_refuses_malformed_grids(rows, error, message):
    with pytest.raises(error, match=message):
        MvMatrix(_S21, rows)


def test_mvmatrix_product_refuses_mismatched_operands():
    row = MvMatrix(_S21, [[_ONE21, _E1]])
    with pytest.raises(ValueError, match="shape mismatch in product"):
        row * row
    other = MvMatrix(Signature(3, 0), [[_ONE30]])
    with pytest.raises(SignatureMismatchError, match="different algebras"):
        MvMatrix(_S21, [[_ONE21]]) * other
    with pytest.raises(SignatureMismatchError, match="different algebras"):
        other * MvMatrix(_S21, [[_ONE21]])


def test_dense_leaf_with_a_smaller_inverse_is_refused():
    P = MvMatrix(_S21, [[_ONE21, _E1], [_E1, _ONE21]])
    short = TransformPair(P, MvMatrix(_S21, [[_ONE21]]), HALF)
    with pytest.raises(ValueError, match="shape mismatch in product"):
        short.identity_defect()


# -- the one product kernel against a written-out triple loop


def _random_mv(sig: Signature, rng: random.Random) -> Multivector:
    """Zero a fifth of the time, else up to four blades with small rationals."""
    if rng.random() < 0.2:
        return Multivector.zero(sig)
    terms = {}
    for _ in range(4):
        terms[rng.randrange(sig.dim)] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    return Multivector(sig, terms)


def _random_matrix(sig: Signature, rng: random.Random, nrows: int, ncols: int) -> MvMatrix:
    return MvMatrix(sig, [[_random_mv(sig, rng) for _ in range(ncols)] for _ in range(nrows)])


def _reference_sandwich_sum(left, middles, right, factor) -> MvMatrix:
    """factor * sum_k left[r][k] * middles[k] * right[k][s] per block, entry by
    entry over ``rows`` in Multivector arithmetic."""
    h = middles[0].nrows
    rows = []
    for r in range(left.nrows):
        for i in range(h):
            line = []
            for s in range(right.ncols):
                for j in range(h):
                    acc = Multivector.zero(left.sig)
                    for k in range(left.ncols):
                        acc = acc + left.rows[r][k] * middles[k].rows[i][j] * right.rows[k][s]
                    line.append(acc * factor)
            rows.append(line)
    return MvMatrix(left.sig, rows)


@pytest.mark.parametrize("pq", [(2, 1), (1, 3), (3, 3)])
@pytest.mark.parametrize("h", [1, 2, 4])
def test_kernel_matches_written_out_triple_loop(pq, h):
    sig = Signature(*pq)
    rng = random.Random(f"kernel:{pq}:{h}")
    for factor in (1, HALF, Fraction(1, 4), Fraction(3, 7)):
        nrows, inner, ncols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        left = _random_matrix(sig, rng, nrows, inner)
        middles = [_random_matrix(sig, rng, h, h) for _ in range(inner)]
        right = _random_matrix(sig, rng, inner, ncols)
        # the same term twice, its right factor negated in block column 0:
        # that block column cancels to zero entry by entry
        lead = right.rows[0][0] or Multivector.generator(sig, 1) * HALF
        twice = MvMatrix(sig, [[row[0], row[0]] for row in left.rows])
        signs = MvMatrix(sig, [[lead] + list(right.rows[0][1:]), [-lead] + list(right.rows[0][1:])])
        for case in ((left, middles, right), (twice, middles[:1] * 2, signs)):
            got = catalog_mod._sandwich_sum(*case, factor)
            want = _reference_sandwich_sum(*case, factor)
            assert (got.nrows, got.ncols) == (nrows * h, ncols * h)
            assert got == want and hash(got) == hash(want)
            assert got._den == want._den and got.rows == want.rows
        assert not any(row[j] for row in got.rows for j in range(h))
        zero = catalog_mod._sandwich_sum(left, middles, right, 0)
        assert zero._den == 1 and not any(x for row in zero.rows for x in row)


def test_kernel_refuses_mismatched_middles():
    one = MvMatrix(_S21, [[_ONE21]])
    pair = MvMatrix.identity(_S21, 2)
    for middles in ([one], [one, one, one], [one, pair], [pair, MvMatrix(_S21, [[_ONE21, _E1]])]):
        with pytest.raises(ValueError, match="shape mismatch in product"):
            catalog_mod._sandwich_sum(pair, middles, pair, 1)
    other = MvMatrix.identity(Signature(3, 0), 1)
    with pytest.raises(SignatureMismatchError, match="different algebras"):
        catalog_mod._sandwich_sum(pair, [one, other], pair, 1)


def test_quaternion_real4_recipe():
    spec = get_spec(Signature(0, 2), "real4")
    assert spec.target.ring == "R" and spec.target.size == 4
    assert spec.replication.copies == 4
    assert spec.transform.P == spec.transform.Pinv
    assert spec.transform.identity_defect() is None


def test_transform_identity_small_catalog():
    for p, q in [(1, 0), (0, 1), (1, 1), (0, 3), (2, 1), (3, 1), (0, 4), (1, 3)]:
        sig = Signature(p, q)
        for route in routes_for(sig):
            assert get_spec(sig, route).transform.identity_defect() is None


def test_unit_blade_relations():
    for p, q in [(3, 0), (1, 2), (0, 2), (4, 0), (1, 3), (4, 1), (0, 5)]:
        sig = Signature(p, q)
        spec = get_spec(sig)
        units = spec.unit_blades
        if "i" in units:
            assert units["i"] * units["i"] == -1
        if "j" in units:
            assert units["j"] * units["j"] == -1
            assert units["i"] * units["j"] == -(units["j"] * units["i"])


def test_route_listing_and_defaults():
    assert routes_for(Signature(0, 2)) == ("quaternion", "complex2", "real4")
    assert routes_for(Signature(0, 1)) == ("real2", "complex1")
    assert default_route(Signature(2, 2)) == "diagonal"
    assert default_route(Signature(5, 4)) == "diagonal"
    assert default_route(Signature(9, 0)) == "periodic"
    with pytest.raises(CatalogMissError):
        default_route(Signature(3, 4))


def test_catalog_miss_names_nearest_route():
    with pytest.raises(CatalogMissError) as err:
        get_spec(Signature(3, 4))
    assert "(4,3)" in str(err.value)


def test_catalog_miss_names_a_nearest_covered_signature():
    # no signature with a route is strictly nearer than the one the hint names
    sigs = [Signature(p, n - p) for n in range(18) for p in range(n + 1)]
    covered = [c for c in sigs if routes_for(c)]
    for sig in sigs:
        if routes_for(sig):
            continue
        with pytest.raises(CatalogMissError) as err:
            get_spec(sig)
        named = re.search(r"nearest covered signature \((\d+),(\d+)\)", str(err.value))
        p, q = map(int, named.groups())
        nearest = min(abs(c.p - sig.p) + abs(c.q - sig.q) for c in covered)
        assert routes_for(Signature(p, q)), (sig, str(err.value))
        assert abs(p - sig.p) + abs(q - sig.q) == nearest, (sig, str(err.value))
    # each has a covered signature one step away, far nearer than (8,0) or (0,8)
    for (p, q), near in [((11, 4), "(11,3)"), ((1, 16), "(0,16)")]:
        with pytest.raises(CatalogMissError) as err:
            get_spec(Signature(p, q))
        assert f"the nearest covered signature {near} is covered" in str(err.value)


def test_listed_routes_compile_distinct_images():
    # a second route with the same target and blade images as another one of
    # its signature would be the same recipe listed twice
    from cliffrep.represent import blade_image

    for sig, routes in catalog_signatures():
        specs = [get_spec(sig, route) for route in routes]
        for i, a in enumerate(specs):
            for b in specs[i + 1:]:
                assert a.target != b.target or any(
                    blade_image(a, m) != blade_image(b, m) for m in range(sig.dim)
                ), (sig, a.route, b.route)


def test_diagonal_route_requires_shape():
    with pytest.raises(CatalogMissError):
        get_spec(Signature(1, 2), "diagonal")


def test_periodic_needs_covered_reduction():
    spec = get_spec(Signature(9, 0), "periodic")
    assert str(spec.target) == "2R(16)"
    with pytest.raises(CatalogMissError):
        get_spec(Signature(6, 2), "periodic")


def test_practical_construction_bound():
    # classification stays unbounded; constructions stop at 17 generators
    assert str(classify(Signature(12, 12))) == "R(4096)"
    assert routes_for(Signature(12, 12)) == ()
    for sig, route in [(Signature(12, 12), None), (Signature(18, 0), "periodic")]:
        with pytest.raises(CatalogMissError) as err:
            get_spec(sig, route)
        assert "at most 17 generators" in str(err.value)


_ROUTE_NAMES = (
    "scalar", "explicit", "real2", "complex1", "quaternion", "complex2", "real4", "diagonal",
    "periodic",
)


def test_unlisted_routes_are_never_built():
    # naming a route builds it only when routes_for lists it: (18,0) periodic
    # and (9,9) diagonal would otherwise build past the 17-generator bound
    for n in range(19):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            listed = routes_for(sig)
            assert set(listed) <= set(_ROUTE_NAMES)
            for route in _ROUTE_NAMES:
                if route not in listed:
                    with pytest.raises(CatalogMissError):
                        get_spec(sig, route)


def test_route_listing_is_pinned():
    # every route of every signature with n <= 18, in order (so every
    # default too), as listed once the diagonal family became the one route
    # of (1,1) to (3,3), which had an explicit twin each before
    listing = [
        (p, n - p, routes_for(Signature(p, n - p))) for n in range(19) for p in range(n + 1)
    ]
    assert sum(1 for _p, _q, routes in listing if routes) == 112
    digest = hashlib.sha256(repr(listing).encode()).hexdigest()
    assert digest == "a45334b5010b80368ce8d1f02c3ecebbf1b37951525bcf8488a3869861b0edd7"


def test_catalog_outputs_are_pinned():
    # the `cliffrep catalog` text, as printed once (1,1) to (3,3) default to
    # the diagonal family, and the `cliffrep catalog --corrections` text, as
    # printed before the oracle's readers were merged
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert sha(catalog_text()) == "2330dace52857448e78e33383ff23fd9c092cc61a9e320c33481930659700100"
    assert sha(corrections_markdown()) == "c9e91b525eefcb4ea17f2df6012855023981b79835341576d046ee79c6e5d751"


def test_double_periodicity_chain():
    # (17,0) reduces through (9,0) down to (1,0)
    from cliffrep.represent import represent_with
    from cliffrep.rings import ring_identity

    sig = Signature(17, 0)
    spec = get_spec(sig, "periodic")
    assert str(spec.target) == "2R(256)" == str(classify(sig))
    one = Multivector.scalar(sig, 1)
    assert represent_with(spec, one) == ring_identity("2R", 256)


def test_memo_table_idempotent():
    a = get_spec(Signature(2, 0))
    b = get_spec(Signature(2, 0))
    assert a is b


def test_catalog_enumeration():
    entries = dict((tuple((s.p, s.q)), routes) for s, routes in catalog_signatures())
    # the full explicit small catalog
    for n in range(7):
        for p in range(n + 1):
            assert (p, n - p) in entries
    for extremal in [(7, 0), (0, 7), (8, 0), (0, 8)]:
        assert "explicit" in entries[extremal]
    # diagonal families up to ten generators
    for pair in [(4, 3), (5, 4), (6, 4), (5, 5), (8, 2), (7, 1)]:
        assert "diagonal" in entries[pair]
    assert "periodic" in entries[(9, 0)] and "periodic" in entries[(0, 9)]
    # mirrors the source leaves unstated are not silently covered
    assert (3, 4) not in entries and (2, 5) not in entries and (1, 6) not in entries


def test_catalog_text_lists_signatures():
    text = catalog_text()
    assert "(0,2) route=quaternion target=H(1) replication=plain" in text
    assert "(9,0) route=periodic target=2R(16)" in text


# -- corrections registry


def test_corrections_have_executable_failing_demos():
    assert CORRECTIONS, "amended formulas must be recorded"
    for corr in CORRECTIONS:
        assert corr.source and corr.literal and corr.corrected and corr.failing_check
        assert corr.demonstrate(), f"literal form unexpectedly passes: {corr.source}"


def test_corrections_markdown_contains_entries():
    doc = corrections_markdown()
    for corr in CORRECTIONS:
        assert corr.source in doc
    assert "Verified as printed" in doc


def test_corrupted_transform_detected():
    spec = get_spec(Signature(2, 0))
    sig = spec.signature
    bad_rows = [list(r) for r in spec.transform.P.rows]
    bad_rows[0][0] = bad_rows[0][0] + Multivector.scalar(sig, 1)
    bad = TransformPair(MvMatrix(sig, bad_rows), spec.transform.Pinv, spec.transform.scale)
    assert bad.identity_defect() is not None


# -- transforms built on first use

# every route with n <= 6, then the wide explicit, diagonal and periodic ones
_DEFERRAL_PAIRS = [
    (Signature(p, n - p), route)
    for n in range(7)
    for p in range(n, -1, -1)
    for route in routes_for(Signature(p, n - p))
] + [
    (Signature(p, q), route)
    for p, q in [(7, 0), (8, 0), (5, 5), (9, 0), (8, 1)]
    for route in routes_for(Signature(p, q))
]

# SHA-256 of P, Pinv and scale (entries in the text grammar) as eager
# construction built them, before transforms were deferred
_TRANSFORM_DIGESTS = {
    ((0, 0), "scalar"): "e8298705adddf050e93107df0ae22534fe678f6a38025d4ec2aefe4e463d337c",
    ((1, 0), "explicit"): "da629d16add3e017ddf7c5e82c1fb1533ed6d7fdd24cacc641fc40255c54379b",
    ((0, 1), "real2"): "9f60020fb50116d4bd62cde11bb669ae36bfe1c3a5e8d5d14a3553542fe82897",
    ((0, 1), "complex1"): "e8298705adddf050e93107df0ae22534fe678f6a38025d4ec2aefe4e463d337c",
    ((2, 0), "explicit"): "e23b3b75bfe63cde54c28da1221637b4ef8c263453a16a1ede963d48fa9ed393",
    ((1, 1), "diagonal"): "46cc6cd22ac50a0ad1d6fc0b2325821d55e1cd570ed6d20e95aea86ff29480c7",
    ((0, 2), "quaternion"): "e8298705adddf050e93107df0ae22534fe678f6a38025d4ec2aefe4e463d337c",
    ((0, 2), "complex2"): "8def924855d49e88bdf05a901c5e7f2facebce09624276b7c89f7f8351cc759b",
    ((0, 2), "real4"): "b1b63a18a94fba0e15c63db2197efab6d0a4b68ec8cb88d0c818574820b5b9f9",
    ((3, 0), "explicit"): "e23b3b75bfe63cde54c28da1221637b4ef8c263453a16a1ede963d48fa9ed393",
    ((2, 1), "diagonal"): "117f6da2e05aeac1e865694e87a0ab8a970badbcfb4b39734dc4d98355985e41",
    ((1, 2), "explicit"): "46cc6cd22ac50a0ad1d6fc0b2325821d55e1cd570ed6d20e95aea86ff29480c7",
    ((0, 3), "explicit"): "cb5cb5e9d8052cd7b5d63e8fdd7a8b88775b9853b7b95a5b7af3acfae670df4e",
    ((4, 0), "explicit"): "e23b3b75bfe63cde54c28da1221637b4ef8c263453a16a1ede963d48fa9ed393",
    ((3, 1), "diagonal"): "b8690fb10088a0a8ed0cd8c099ee140ce073ed673fc184a5eb96e6266bf88988",
    ((2, 2), "diagonal"): "3d99347adb85386869aed6bf27f9dc77a2ce6abdfce88b796f8abfcab91477c5",
    ((1, 3), "explicit"): "b6c8ebc1d852e65bb379d7319d61ea1a248dd5ce80e318c65d7577b5df75487c",
    ((0, 4), "explicit"): "c6076f838160ede64f4c2c6a64132feffda30f3ce566866b8cfafe57173202d5",
    ((5, 0), "explicit"): "b8e700b913f4ed9c5c202ad5d4dcd318cfe6b43bf93936e79ff394efe9c0e317",
    ((4, 1), "diagonal"): "b8690fb10088a0a8ed0cd8c099ee140ce073ed673fc184a5eb96e6266bf88988",
    ((3, 2), "diagonal"): "f3203a654fe4937a7551aeec210e3495be1c7864d38bb80813999c04089847ec",
    ((2, 3), "explicit"): "3d99347adb85386869aed6bf27f9dc77a2ce6abdfce88b796f8abfcab91477c5",
    ((1, 4), "explicit"): "b1986432ecf244cb4ecc40d0a0fe5d038f9382238730ee504fc7bfd969b8b206",
    ((0, 5), "explicit"): "7ec272f0205a0e5f4e02fc859479e3b08316ccc33cf112b9a577e92df9c3b5cc",
    ((6, 0), "explicit"): "031794f46ab2331f0651c0ccda4b924147187138a395489493f8400d4c0299bc",
    ((5, 1), "diagonal"): "38f18af5f97a789fa76d169f0bab1b106d9bea1627e9fd9b3355a356a511c839",
    ((4, 2), "diagonal"): "dc78aa3a7aee4c2ee9b7c53864932504aad24e9093870fd309b21e02d62cf323",
    ((3, 3), "diagonal"): "ed4affad3065036a97575ccd591950558a044895bec99ad27096ae98c0047f1e",
    ((2, 4), "explicit"): "e1416dc29a815f9dd190756d982b84c4788703148bc5346081da03a6d139a58d",
    ((1, 5), "explicit"): "0e7f6b21378eaab84debf2ba224a12a844a792a4857ee3ac8201381b041d5a25",
    ((0, 6), "explicit"): "965daa9b7317d884ce4b13fa757afb517b3d3d305ea8285d29e0b91f973dffdb",
    ((7, 0), "explicit"): "4d7bb1b67e35471622a8e19cc64db3d3633f6bb1b67b9737c465892c0f568815",
    ((8, 0), "explicit"): "aff48437be494254aea199814004106116819b0c9d5e599927b12eb769dc9c5d",
    ((5, 5), "diagonal"): "ee517a87d56f50c5d4b23cbf6ee1a35c46fbb247228db991dcfdc995946e26a2",
    ((9, 0), "periodic"): "aff48437be494254aea199814004106116819b0c9d5e599927b12eb769dc9c5d",
    ((8, 1), "periodic"): "aff48437be494254aea199814004106116819b0c9d5e599927b12eb769dc9c5d",
}


def _transform_digest(tp: TransformPair) -> str:
    from cliffrep.text import format_multivector

    def text(m):
        return "\n".join(" ; ".join(format_multivector(x) for x in row) for row in m.rows)

    blob = "\n|\n".join([text(tp.P), text(tp.Pinv), str(tp.scale)])
    return hashlib.sha256(blob.encode()).hexdigest()


def _corrupted_two_zero() -> TransformPair:
    spec = get_spec(Signature(2, 0))
    rows = [list(r) for r in spec.transform.P.rows]
    rows[0][1] = rows[0][1] * 3
    return TransformPair(MvMatrix(spec.signature, rows), spec.transform.Pinv, spec.transform.scale)


def test_recipes_and_images_leave_transforms_unbuilt(monkeypatch):
    from cliffrep.represent import reconstruct, represent
    from cliffrep.verify import random_multivector

    fresh: dict = {}
    monkeypatch.setattr(catalog_mod, "_SPECS", fresh)
    rng = random.Random(5)
    for sig, route in _DEFERRAL_PAIRS:
        get_spec(sig, route)
        a = random_multivector(sig, rng)
        image = represent(a, route)
        if sig.n <= 6:
            assert reconstruct(image) == a
    assert len(fresh) >= len(_DEFERRAL_PAIRS)
    unbuilt = [key for key, spec in fresh.items() if spec.transform._parts is not None]
    assert not unbuilt
    assert get_spec(Signature(5, 5), "diagonal").transform.size == 32


def _reindexed_copy(leaf: TransformPair, where: str) -> TransformPair:
    """A (2,0) leaf carried into (2,0) through e1, e2."""
    sig = Signature(2, 0)
    gens = GeneratorList(sig, [Multivector.generator(sig, g) for g in (1, 2)])
    return TransformPair.reindexed(leaf, gens, where)


def test_deferred_transform_checked_before_use():
    bad = _corrupted_two_zero()
    assert bad.identity_defect() is not None
    pair = _reindexed_copy(bad, "corrupted (2,0)")
    reads = [
        lambda: pair.P,
        lambda: pair.Pinv,
        lambda: pair.scale,
        lambda: pair.conjugate([Multivector.scalar(bad.P.sig, 1)] * 2),
    ]
    for read in reads:
        with pytest.raises(TransformCheckError, match="corrupted"):
            read()
    assert pair.identity_defect() == bad.identity_defect()
    assert pair._parts is None


def test_deferred_transforms_match_recorded_digests():
    got = {((sig.p, sig.q), route): _transform_digest(get_spec(sig, route).transform)
           for sig, route in _DEFERRAL_PAIRS}
    assert got == _TRANSFORM_DIGESTS


def test_identity_defect_computed_once_per_pair(monkeypatch):
    from cliffrep.verify import check_transform_pair

    products = []
    kernel = catalog_mod._sandwich_sum

    def counted(left, middles, right, factor):
        products.append(left.nrows)
        return kernel(left, middles, right, factor)

    good = get_spec(Signature(2, 0)).transform
    parts = (good.P, good.Pinv, good.scale)
    bad = _corrupted_two_zero()
    monkeypatch.setattr(catalog_mod, "_sandwich_sum", counted)
    # a reindexed pair's check and its later reads share one product
    pair = _reindexed_copy(TransformPair(*parts), "(2,0) copy")
    assert pair.identity_defect() is None
    assert pair.identity_defect() is None
    assert len(products) == 1
    defect = bad.identity_defect()
    assert defect is not None and bad.identity_defect() == defect
    assert len(products) == 2
    spec = dataclasses.replace(get_spec(Signature(2, 0)), transform=bad)
    assert not check_transform_pair(spec).passed


# -- identity check and sandwich one recipe step at a time


def _dense(tp: TransformPair) -> TransformPair:
    """The pair multiplied out into a dense leaf, checked and conjugated densely."""
    return TransformPair(tp.P, tp.Pinv, tp.scale)


def _restepped(pair: TransformPair, sub: TransformPair, where: str) -> TransformPair:
    """``pair``'s own step taken around a replacement sub-pair."""
    _, gens, left, right = pair._step
    if left is None:
        return TransformPair.reindexed(sub, gens, where)
    return TransformPair.doubled(sub, gens, left.rows, right.rows, where)


def _corrupted_doubling(pair: TransformPair, where: str) -> TransformPair:
    """A copy of a doubled pair with the upper-right entry of L tripled."""
    sub, gens, left, right = pair._step
    rows = [list(row) for row in left.rows]
    rows[0][1] = rows[0][1] * 3
    return TransformPair.doubled(sub, gens, rows, right.rows, where)


def test_stepwise_identity_matches_dense_product():
    checked = 0
    for sig, routes in catalog_signatures():
        for route in routes:
            tp = get_spec(sig, route).transform
            if tp.size <= 16:
                assert tp.identity_defect() is None, (sig, route)
                assert _dense(tp).identity_defect() is None, (sig, route)
                checked += 1
    assert checked >= 49


def test_stepwise_sandwich_matches_dense_product():
    from cliffrep.verify import random_multivector

    rng = random.Random(17)
    checked = 0
    for sig, routes in catalog_signatures():
        for route in routes:
            spec = get_spec(sig, route)
            if spec.transform.size > 8:
                continue
            diag = spec.replication.diagonal_for(random_multivector(sig, rng))
            want = _dense(spec.transform).conjugate(diag)
            assert spec.transform.conjugate(diag) == want, (sig, route)
            checked += 1
    assert checked >= 36


def _bottom_half(replication, x):
    """The conjugate ``diagonal_for`` puts on the bottom half, after checking
    that ``x`` fills the top half."""
    diag = replication.diagonal_for(x)
    half = replication.copies // 2
    assert diag == [x] * half + [diag[-1]] * half
    return diag[-1]


def test_conjugate_pair_properties():
    # along the step's own split, a0 + a1*u -> a0 - a1*u fixes the sub
    # generators, negates u, and is a linear, multiplicative involution
    from cliffrep.verify import random_multivector

    rng = random.Random(77)
    routes = 0
    for sig, names in catalog_signatures():
        for route in names:
            replication = get_spec(sig, route).replication
            if replication.kind != CONJUGATE_PAIRS:
                continue
            routes += 1
            split = replication.split
            for g in split.sub.elements:
                assert _bottom_half(replication, g) == g, (sig, route)
            (u,) = split.outer.elements
            assert _bottom_half(replication, u) == -u, (sig, route)
            for _ in range(5):
                a, b = random_multivector(sig, rng), random_multivector(sig, rng)
                ca, cb = _bottom_half(replication, a), _bottom_half(replication, b)
                assert _bottom_half(replication, ca) == a, (sig, route)
                assert _bottom_half(replication, a + b * 3) == ca + cb * 3, (sig, route)
                assert _bottom_half(replication, a * b) == ca * cb, (sig, route)
    assert routes == 12
    with pytest.raises(SignatureMismatchError):
        get_spec(Signature(2, 1)).replication.diagonal_for(Multivector.scalar(Signature(3, 0), 1))


def test_conjugate_needs_one_element_per_row():
    for sig, route in ((Signature(3, 1), None), (Signature(0, 2), "real4")):
        tp = get_spec(sig, route).transform
        one = Multivector.scalar(sig, 1)
        for count in (0, tp.size - 1, tp.size + 1, 2 * tp.size):
            with pytest.raises(ValueError, match=f"needs {tp.size} diagonal elements, not {count}"):
                tp.conjugate([one] * count)


@pytest.mark.parametrize("depth", [0, 2])
def test_corrupted_doubling_step_fails_checks(monkeypatch, depth):
    from cliffrep.catalog import _sandwich
    from cliffrep.verify import check_similarity, check_transform_pair

    # (3,3) diagonal doubles (2,2), which doubles (1,1), which doubles (0,0)
    sig = Signature(3, 3)
    spec = get_spec(sig, "diagonal")
    chain = [spec.transform]
    for _ in range(depth):
        chain.append(chain[-1]._step[0])
    bad = _corrupted_doubling(chain[-1], "corrupted")
    for pair in reversed(chain[:-1]):
        bad = _restepped(pair, bad, "host of corrupted")
    assert bad.size == spec.transform.size
    # the step-wise witness names the dense product's first bad cell
    assert bad.identity_defect() == TransformPair(*bad._multiplied()).identity_defect()

    report = check_transform_pair(dataclasses.replace(spec, transform=bad))
    assert not report.passed and "cell (" in report.counterexample
    for read in (lambda: bad.P, lambda: bad.conjugate([Multivector.scalar(sig, 1)] * 8)):
        with pytest.raises(TransformCheckError):
            read()

    registry = dict(catalog_mod._SPECS)
    registry[(3, 3, "corrupted")] = dataclasses.replace(spec, route="corrupted", transform=bad)
    monkeypatch.setattr(catalog_mod, "_SPECS", registry)
    report = check_similarity(sig, "corrupted", trials=2, seed=3)
    assert not report.passed and "transform check failed" in report.counterexample

    # the step-wise sandwich is the dense one even for a pair that fails its
    # identity, so the oracle does not lean on the check to be exact
    diag = [Multivector.generator(sig, 1)] * 8
    unchecked = TransformPair(*bad._multiplied())
    assert _sandwich(*bad._carried_steps(), diag) == unchecked.conjugate(diag)
    registry[(3, 3, "corrupted")] = dataclasses.replace(registry[(3, 3, "corrupted")], transform=unchecked)
    assert not check_similarity(sig, "corrupted", trials=2, seed=3).passed
