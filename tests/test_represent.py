"""Element images, reconstruction, inverses and the rectangular lifts."""

import copy
import dataclasses
import hashlib
import importlib
import pickle
import random
from fractions import Fraction

import pytest

from cliffrep.algebra import (
    GeneratorList,
    Multivector,
    Signature,
    SignatureMismatchError,
    SplitBasis,
    StructureError,
)
from cliffrep.catalog import (
    CatalogError,
    CatalogMissError,
    PeriodicNode,
    Target,
    catalog_signatures,
    get_spec,
)
from cliffrep.represent import (
    _PATTERNS,
    BasisImageTable,
    InversePullbackError,
    NotInImageError,
    RepImage,
    _blade_cells,
    _blocks,
    _cell_count,
    _kron,
    basis_table,
    blade_image,
    charpoly_evaluate,
    element_charpoly,
    element_det,
    element_inverse,
    matrix_represent,
    reconstruct,
    represent,
    represent_with,
)
from cliffrep.rings import (
    BLOCK_RING,
    COMPLEX,
    COMPONENTS,
    DOUBLE_REAL,
    QUATERNION,
    REAL,
    BlockPair,
    RingMatrix,
    RingScalar,
    UnsupportedRingError,
    format_matrix,
    from_numerators,
    mat_inverse,
    ring_identity,
)
from cliffrep import rings
from cliffrep.text import parse_multivector
from cliffrep.verify import _similarity_once, random_multivector

S10 = Signature(1, 0)
S01 = Signature(0, 1)
S20 = Signature(2, 0)
S02 = Signature(0, 2)


def rand_mv(sig, rng, lo=-9, hi=9):
    return Multivector(
        sig, {m: Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3))) for m in range(sig.dim)}
    )


# -- image formulas frozen from the printed constructions


def test_image_zero_one():
    a = parse_multivector(S01, "2 + 3*eps1")
    assert represent(a).value == RingMatrix.from_components(REAL, [[2, -3], [3, 2]])


def test_image_one_zero():
    a = parse_multivector(S10, "2 + 3*e1")
    img = represent(a).value
    assert isinstance(img, BlockPair)
    assert img.plus == RingMatrix.from_components(REAL, [[5]])
    assert img.minus == RingMatrix.from_components(REAL, [[-1]])


def test_image_two_zero():
    a = parse_multivector(S20, "1 + 2*e1 + 3*e2 + 4*e12")
    assert represent(a).value == RingMatrix.from_components(REAL, [[3, 7], [-1, -1]])


def test_image_quaternion_complex_route():
    a = parse_multivector(S02, "1 + 2*eps1 + 3*eps2 + 4*eps12")
    got = represent(a, "complex2").value
    assert got == RingMatrix.from_components(
        "C", [[(1, 2), (-3, -4)], [(3, -4), (1, -2)]]
    )


def test_image_quaternion_real4_route():
    a = parse_multivector(S02, "1 + 2*eps1 + 3*eps2 + 4*eps12")
    got = represent(a, "real4").value
    assert got == RingMatrix.from_components(
        REAL,
        [
            [1, -2, -3, -4],
            [2, 1, -4, 3],
            [3, 4, 1, -2],
            [4, -3, 2, 1],
        ],
    )


def test_unit_maps_to_identity_everywhere():
    for sig, routes in catalog_signatures():
        for route in routes:
            spec = get_spec(sig, route)
            one = Multivector.scalar(sig, 1)
            assert represent_with(spec, one) == ring_identity(spec.target.ring, spec.target.size)


def test_route_tag_recorded():
    img = represent(Multivector.scalar(S02, 1), "complex2")
    assert img.route == "complex2"


# -- reconstruction


def test_reconstruct_identity_and_closed_form():
    assert reconstruct(represent(Multivector.scalar(S20, 1))) == Multivector.scalar(S20, 1)
    # image of 1 + e12, then invert the map
    a = parse_multivector(S20, "1 + e12")
    img = represent(a)
    assert img.value == RingMatrix.from_components(REAL, [[1, 1], [-1, 1]])
    assert reconstruct(img) == a


def test_reconstruct_all_basis_blades_small():
    for p, q in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (0, 3)]:
        sig = Signature(p, q)
        for route in ("real2", "complex1") if (p, q) == (0, 1) else (None,):
            for mask in range(sig.dim):
                mv = Multivector.blade(sig, mask)
                img = represent(mv, route)
                assert reconstruct(img) == mv


def test_foreign_matrix_rejected():
    # the (0,1) image is the proper subspace [[a, -b], [b, a]] of R(2)
    img = represent(Multivector.scalar(S01, 1), "real2")
    foreign = RingMatrix.from_components(REAL, [[1, 0], [0, 0]])
    with pytest.raises(NotInImageError):
        reconstruct(RepImage(S01, img.route, foreign))
    wrong_shape = RingMatrix.from_components(REAL, [[1]])
    with pytest.raises(NotInImageError):
        reconstruct(RepImage(S01, img.route, wrong_shape))


def test_reconstruct_rejects_wrong_kind_ring_and_size():
    route20 = represent(Multivector.scalar(S20, 1)).route  # target R(2)
    eye = ring_identity(REAL, 2)
    for value in (
        BlockPair(DOUBLE_REAL, eye, eye),
        RingMatrix.from_components(QUATERNION, [[(1, 0, 0, 0)]]),  # as many components
        ring_identity(COMPLEX, 2),
        ring_identity(REAL, 3),
    ):
        with pytest.raises(NotInImageError):
            reconstruct(RepImage(S20, route20, value))
    s21 = Signature(2, 1)  # target 2R(2): a plain matrix is not a pair
    with pytest.raises(NotInImageError):
        reconstruct(RepImage(s21, represent(Multivector.scalar(s21, 1)).route, eye))


def test_basis_table_memoized_on_spec():
    sig = Signature(2, 1)
    table = basis_table(sig)
    assert basis_table(sig) is table and basis_table(sig, get_spec(sig).route) is table
    assert table.spec is get_spec(sig) and get_spec(sig).basis_table is table


@pytest.mark.parametrize("pq, route", [((2, 1), None), ((0, 2), "quaternion"),
                                       ((0, 1), "real2"), ((9, 0), None)])
def test_spec_copy_and_pickle_round_trips(pq, route):
    # a copy starts with empty memos, so no cell run goes without its -1 run
    sig = Signature(*pq)
    spec = get_spec(sig, route)
    rng = random.Random(28)
    elements = [random_multivector(sig, rng) for _ in range(3)]
    images = [represent_with(spec, a) for a in elements]
    basis_table(sig, route)
    for copied in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert copied is not spec and copied.transform is not spec.transform
        assert (copied.blade_images, copied.blade_cells, copied.basis_table) == ({}, {}, None)
        assert [represent_with(copied, a) for a in elements] == images
        assert all(_similarity_once(copied, a) is None for a in elements)
    assert spec.blade_cells


def test_corrupted_blade_image_fails_certificate():
    sig = Signature(2, 1)
    spec = dataclasses.replace(get_spec(sig))
    spec.blade_images[0b101] = blade_image(spec, 0b011)
    with pytest.raises(NotInImageError, match=r"at blades \(0x3, 0x5\)"):
        BasisImageTable(spec)
    # the copy's image of e1*eps1 is that of e12; reading it back through the
    # copy must fail rather than return an element
    value = represent_with(spec, Multivector.blade(sig, 0b101))
    with pytest.raises(NotInImageError):
        BasisImageTable(spec).reconstruct(value)
    assert blade_image(get_spec(sig), 0b101) != spec.blade_images[0b101]
    assert reconstruct(represent(Multivector.blade(sig, 0b101))) == Multivector.blade(sig, 0b101)


def test_certificate_size_bound():
    # (17,0) has 2^17 blade images of 512 rows each: refused before any is built
    spec = get_spec(Signature(17, 0))
    compiled = len(spec.blade_images)
    with pytest.raises(CatalogMissError, match="over the bound"):
        basis_table(Signature(17, 0))
    assert len(spec.blade_images) == compiled and spec.basis_table is None


def test_inverse_over_the_bound_is_refused_before_inverting(monkeypatch):
    # (7,7) is R(128): the refusal comes before the Gauss-Jordan pass, for a
    # singular element (1+e1) as for an invertible one (2+e1)
    represent_module = importlib.import_module("cliffrep.represent")
    calls = []
    monkeypatch.setattr(represent_module, "mat_inverse", calls.append)
    for text in ("1+e1", "2+e1"):
        with pytest.raises(CatalogMissError, match="over the bound"):
            element_inverse(parse_multivector(Signature(7, 7), text))
    assert calls == []


# -- inverses


def test_inverse_examples():
    assert element_inverse(parse_multivector(S10, "1+e1")) is None
    assert element_inverse(parse_multivector(S01, "eps1")) == parse_multivector(S01, "-1*eps1")
    got = element_inverse(parse_multivector(S02, "1+eps1+eps2+eps12"))
    # oracle: conjugate over norm, computed right here
    assert got == parse_multivector(S02, "1/4 - 1/4*eps1 - 1/4*eps2 - 1/4*eps12")
    norm = Fraction(4)
    assert got == Multivector(S02, {0: 1 / norm, 1: -1 / norm, 2: -1 / norm, 3: -1 / norm})


def test_inverse_random_quaternion_norm_oracle():
    rng = random.Random(6)
    for _ in range(25):
        a = rand_mv(S02, rng)
        inv = element_inverse(a)
        comps = [a.coefficient(m) for m in (0, 1, 2, 3)]
        norm = sum(c * c for c in comps)
        if norm == 0:
            assert inv is None
            continue
        conj = Multivector(
            S02, {0: comps[0] / norm, 1: -comps[1] / norm, 2: -comps[2] / norm, 3: -comps[3] / norm}
        )
        assert inv == conj


def test_inverse_pullback_failure_raises(monkeypatch):
    # the package re-exports a function named represent over the module name
    represent_module = importlib.import_module("cliffrep.represent")
    monkeypatch.setattr(represent_module, "reconstruct", lambda image: Multivector.scalar(S02, 2))
    with pytest.raises(InversePullbackError):
        element_inverse(parse_multivector(S02, "1+eps1"))


def test_inverse_round_trip_split_signature():
    rng = random.Random(15)
    one = Multivector.scalar(Signature(2, 1), 1)
    hits = 0
    for _ in range(40):
        a = rand_mv(Signature(2, 1), rng)
        inv = element_inverse(a)
        if inv is None:
            continue
        hits += 1
        assert a * inv == one and inv * a == one
    assert hits > 10


# -- determinants and characteristic polynomials


def test_det_formula_one_zero():
    rng = random.Random(2)
    for _ in range(25):
        a = rand_mv(S10, rng)
        a0, a1 = a.coefficient(0), a.coefficient(1)
        assert element_det(a).r == a0 * a0 - a1 * a1


def test_det_formula_two_zero():
    rng = random.Random(3)
    for _ in range(25):
        a = rand_mv(S20, rng)
        a0, a1, a2, a3 = (a.coefficient(m) for m in (0, 1, 2, 3))
        assert element_det(a).r == a0 * a0 - a1 * a1 - a2 * a2 + a3 * a3


def test_det_of_unit():
    assert element_det(Multivector.scalar(S20, 1)).r == 1


def test_det_unsupported_for_quaternion_targets():
    with pytest.raises(UnsupportedRingError):
        element_det(Multivector.scalar(S02, 1))
    with pytest.raises(UnsupportedRingError):
        element_charpoly(Multivector.scalar(S02, 1))


def test_charpoly_refusal_on_doubled_quaternions_names_the_charpoly():
    a = parse_multivector(Signature(0, 3), "1 + eps1")
    with pytest.raises(UnsupportedRingError, match="characteristic polynomial"):
        element_charpoly(a)
    with pytest.raises(UnsupportedRingError, match="determinant over doubled quaternions"):
        element_det(a)


def test_det_over_complex_targets():
    sig = Signature(3, 0)
    rng = random.Random(19)
    for _ in range(15):
        a, b = rand_mv(sig, rng, -4, 4), rand_mv(sig, rng, -4, 4)
        da, db, dab = element_det(a), element_det(b), element_det(a * b)
        assert da.ring == "C"
        assert dab == da * db
    assert element_det(Multivector.scalar(sig, 1)).r == 1


def test_charpoly_annihilates_element():
    rng = random.Random(12)
    for p, q in [(1, 0), (2, 0), (1, 1), (3, 1), (2, 2)]:
        sig = Signature(p, q)
        for _ in range(10):
            a = rand_mv(sig, rng)
            coeffs = element_charpoly(a)
            assert charpoly_evaluate(coeffs, a).is_zero


def _horner(coeffs, a):
    """Written-out Horner in a over the descending coefficients."""
    acc = Multivector.zero(a.sig)
    for c in coeffs:
        acc = acc * a + Multivector.scalar(a.sig, c)
    return acc


def test_charpoly_evaluate_edge_degrees():
    sig = Signature(2, 1)
    a = rand_mv(sig, random.Random(5))
    assert charpoly_evaluate([], a) == Multivector.zero(sig)
    assert charpoly_evaluate([Fraction(-3, 2)], a) == Multivector.scalar(sig, Fraction(-3, 2))
    assert charpoly_evaluate([1, Fraction(2, 3)], a) == a + Fraction(2, 3)
    assert charpoly_evaluate([Fraction(0), Fraction(0)], a).is_zero


def test_charpoly_evaluate_matches_horner_on_every_real_target():
    # chunked evaluation agrees with Horner at every degree up to 8, on
    # every signature with n <= 6 whose default recipe has a real target
    rng = random.Random(2025)
    sigs = [sig for sig, _ in catalog_signatures() if sig.n <= 6]
    real = [sig for sig in sigs if get_spec(sig).target.ring in (REAL, DOUBLE_REAL)]
    assert Signature(3, 3) in real and Signature(0, 0) in real
    for sig in real:
        for _ in range(2):
            a = random_multivector(sig, rng)
            for degree in range(9):
                coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5))) for _ in range(degree + 1)]
                assert charpoly_evaluate(coeffs, a) == _horner(coeffs, a), (sig, degree)


# -- homomorphism and similarity transfer


def test_homomorphism_random():
    rng = random.Random(44)
    for p, q in [(2, 0), (1, 1), (0, 2), (2, 1), (3, 0), (2, 2)]:
        sig = Signature(p, q)
        spec = get_spec(sig)
        for _ in range(25):
            a, b = rand_mv(sig, rng, -5, 5), rand_mv(sig, rng, -5, 5)
            fa, fb = represent_with(spec, a), represent_with(spec, b)
            assert represent_with(spec, a * b) == fa * fb
            assert represent_with(spec, a + b) == fa + fb
            assert represent_with(spec, a * 3) == fa * 3


def test_similarity_conjugacy_transfer():
    rng = random.Random(91)
    sig = Signature(2, 0)
    spec = get_spec(sig)
    one = Multivector.scalar(sig, 1)
    done = 0
    while done < 10:
        x = rand_mv(sig, rng, -5, 5)
        xinv = element_inverse(x)
        if xinv is None:
            continue
        done += 1
        a = rand_mv(sig, rng, -5, 5)
        b = x * a * xinv
        fx, fa, fb = (represent_with(spec, t) for t in (x, a, b))
        assert fx * fa * mat_inverse(fx) == fb


# -- bit-for-bit regression: images recorded from the step-structure walker
# that preceded the compiled blade images


def _coeff(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))


def _digest_cases():
    """(label, spec, element): one dense and one sparse element per route."""
    pairs = [(sig, route) for sig, routes in catalog_signatures() for route in routes]
    pairs.append((Signature(8, 1), "periodic"))
    for sig, route in pairs:
        spec = get_spec(sig, route)
        if spec.target.size > 32:
            continue
        rng = random.Random(f"digest:{sig.p},{sig.q},{route}")
        dense = Multivector(sig, {m: _coeff(rng) for m in range(sig.dim)})
        sparse = Multivector(sig, {rng.randrange(sig.dim): _coeff(rng) for _ in range(3)})
        yield f"{sig.p},{sig.q},{route},dense", spec, dense
        yield f"{sig.p},{sig.q},{route},sparse", spec, sparse


def _digest(spec, a):
    return hashlib.sha256(format_matrix(represent_with(spec, a)).encode()).hexdigest()


IMAGE_DIGESTS = {
    "0,0,scalar,dense": "a913016a6860f2d88ee66914785c951575c4ddc9208b327ae88a388b031aec0f",
    "0,0,scalar,sparse": "3de48e5810eb6af22371ee50608c37781c50474ff1b70033db80c78971a1067f",
    "1,0,explicit,dense": "1d1d8476e1003867f24448e4f48747cb0a53c4c114fd5891a1be566256337a31",
    "1,0,explicit,sparse": "10055bb165ca70d43769f0c8b13433f49d8def19de4c70eb4fc5b4920cd745ab",
    "0,1,real2,dense": "692899afa97be8099e557cb4027a8a80e5752eccb5c6aef40a268651b8fa5b5c",
    "0,1,real2,sparse": "49b7913e209b3a552a288e1cce80049674cb86e7eeaa44037e79737cdc112a8c",
    "0,1,complex1,dense": "3dda6ef1eed04c5169383930af2c952a27c1a0e1c023559c2a4120bac81aacda",
    "0,1,complex1,sparse": "d6dba0d514242f4b36a7dde027092284caed1d0b0e0d6f77df5089f40efce531",
    "2,0,explicit,dense": "c1617f45836eb2cc01982a3084b219a08622dded520df301beca75f57d93c4d3",
    "2,0,explicit,sparse": "c014a7469a31edecd4ec21577a7ab238ef16339db8b2a2ab1f933ed9616bd4c7",
    "1,1,diagonal,dense": "2e1eec3a2c5fd0bbe3a458e4fd8012a7f36a48c4d6f3eed099b5d776822455a0",
    "1,1,diagonal,sparse": "ec9b985faab51d35b492cb1b1ae013110b3c32391890f4dbfca0fc248cba9ddc",
    "0,2,quaternion,dense": "0fa4510b98a0906d6226a35e29e5cae3e90a9988cdc5fbb63354dcd35b660409",
    "0,2,quaternion,sparse": "96f6915e2e65ffa38e7298f1b614fab9bcd0252886e4f6be50522edb92933c3f",
    "0,2,complex2,dense": "a08b5ec4ef3191346fb14e8b6ebd661b77a01616756c7cf321f71147ecf54080",
    "0,2,complex2,sparse": "065481303150c82094e403bdc90f398189223345a3f8e1647c91a35c509e657b",
    "0,2,real4,dense": "1ae28c391b5fd3b1d422536d7f4842bb3538fcc78986540ca1ef09b4e3e463a9",
    "0,2,real4,sparse": "d88762a2bea095b3c0c5deb1504c7551ff2624d4ea11c7ac55c31cae8da9e37d",
    "3,0,explicit,dense": "2e0ea34cebf76938b48bb5eea34b654843edf1f3bf37069aa4992ea7114c8c56",
    "3,0,explicit,sparse": "87e8dcb7ffca6e8185b5c988935b1ecbe5c49e6161abfb23ed08afe456c2448b",
    "2,1,diagonal,dense": "b8bd83574d66c2638e1e2556124611cbc2f1d68f209fd84d07d79ad8a4847cbc",
    "2,1,diagonal,sparse": "46cb116247740bda971c6eea7a1e96e50bff3723776ef3a09489b2486f6fb806",
    "1,2,explicit,dense": "15867014fd95e4a308e7389ced8f6cf9845af483a03788bb4e03a1c42cea4cf0",
    "1,2,explicit,sparse": "e1141f68f07c5086b514797d146d9348f86ac79fc55763fbe04361287f4a41fc",
    "0,3,explicit,dense": "d50697f54b4e94c9ac0f3e6498470f6736ccc7274c1cb7e32e716f9a0a6f28d6",
    "0,3,explicit,sparse": "e5ad9d55a5210464f74fe15402438b19c6acf9051e9dc7f4efcac1555a688e98",
    "4,0,explicit,dense": "ce8c1dcc6ca3c265b6dd99b9a0b2762ab4c688cd42e1f9dae39d932f30811670",
    "4,0,explicit,sparse": "00886e77df3c73fa0e766e948726a0a4a823c97ba30651181e52b4d27debb06a",
    "3,1,diagonal,dense": "48c47ecbe395e738ff05ebb0718c0153a072f2413f45a5fe74dce21b783f12d6",
    "3,1,diagonal,sparse": "a49cce3fadd8a7970f51e789e2637625331eaba810bb1f58983a3a7138a95787",
    "2,2,diagonal,dense": "897d1289a718d1c434507228fb716c1ff9190837847e6e207c85299dd945583f",
    "2,2,diagonal,sparse": "a4d85f04106caa4835d707663dbde59a09e970721f9bf804af724dc7e9363b14",
    "1,3,explicit,dense": "1391aa7266b70a1b089f2804b4868bbb526befedc64657715c8b2a7e099e1443",
    "1,3,explicit,sparse": "c9def843657bf3486dd9c3134492b4d1ceb7e7d1f85ab2bf3cbf046254cff46f",
    "0,4,explicit,dense": "9e081066615c8f596d11e4b4396d06479b72fe802e64ba97305b30bce1a5fb67",
    "0,4,explicit,sparse": "d52eae5c5b6ec7840901ac73be5ba776a7e45f257a44735f612c08a4d232f9cd",
    "5,0,explicit,dense": "a58db6097ef4df2e857c5a862211fa3c3d22773702cd9e959026b89e4ce02bc8",
    "5,0,explicit,sparse": "e0b0e8024c05917467307d1d3d362b7c52314c06e87703ba804b569cf676f58b",
    "4,1,diagonal,dense": "141a09b443615a44ff55b938e142f2b29f483b2a536074c6aeaee1cc31f14839",
    "4,1,diagonal,sparse": "17effce09646e6b58682a5c783dcae25d3ecac395f0067c9f41b604f3dac2b09",
    "3,2,diagonal,dense": "9f5d24fd6bcc23b62bb1a2c8a4dee7ff65d38de86b723903ee02503d007e5529",
    "3,2,diagonal,sparse": "827114e161503a2101d8e91863046d07a2b76d9f21e33357bb85f4543922392f",
    "2,3,explicit,dense": "306738c1595289c373daa701f2a7a10de243bd24173fd66e134c4df97a9765b0",
    "2,3,explicit,sparse": "9844077d76d6512fa9368b34b02e4e0479acb23d11c0ade8561df454cf1fd367",
    "1,4,explicit,dense": "5d73a0516fc18f86957680c46981f21169fcab8e912afc885f0e4712c5347ce5",
    "1,4,explicit,sparse": "004dd1624476d4da699e9b4d89e5e8bfeee3848024f222942932a7d66917a3f0",
    "0,5,explicit,dense": "ba5c98554f9390c31026d7c2f78e3e706dcfbb6f62a89a5e48221c30ae41b20a",
    "0,5,explicit,sparse": "e7d4da31cfc6f91766b5b6faac9f6bb91aa6dccbd48f090234deb31333926c2b",
    "6,0,explicit,dense": "85b2a610e9ff7561de460b132c75645f01bca18ca4982296494b6ca873979bf9",
    "6,0,explicit,sparse": "eebf9631d7ecdcf59ec4849cd10c5ca802e9c0effcea86405565a4e039c39c6a",
    "5,1,diagonal,dense": "92d80f15bf5680231b527ff96d5a54626e68c1b96cdeb7b3d265c84d07f7fc99",
    "5,1,diagonal,sparse": "7953fb8fb44be524338bc3574b2923672767704573376cd49d8e2faf6ab55be3",
    "4,2,diagonal,dense": "ffc4d051242a0f10f107927765dd19709f560d8044a04f058704ec5c0bd2ce05",
    "4,2,diagonal,sparse": "294a24a4d5219bfac289623d8ce482ced5deccf9f4f1bbe40d05cadc219b9514",
    "3,3,diagonal,dense": "f0ade79ea57d24ab1432b0929f828815d6e0949c81793f9d9b46b7c9a4cbe9dc",
    "3,3,diagonal,sparse": "9d937205367e9bc932658dcd6da8c26e03e13f399d88a04c1b61eb9ec477a1eb",
    "2,4,explicit,dense": "b3a3c46f84836475076796a962a7c369c89331ec1d5f3ae84a6162811e0802bf",
    "2,4,explicit,sparse": "555b6c182797e1d127c5bb474e00d681dfa3ca43ec3728bf7242adf293811274",
    "1,5,explicit,dense": "9e909b635afd7dea50cc15c2ecb26a327344f027f1a8a35bc446bf9384269efe",
    "1,5,explicit,sparse": "9003ba955e4b8263fed27356a60b4de03feb317ed7b731c5db06a7c558f147b7",
    "0,6,explicit,dense": "c40b09fad2aede2f50431c3cb5b6b7e02e0d80105d5bad7217933d530df8cc83",
    "0,6,explicit,sparse": "5ea4612a50b7985ff00bfe55b7e9bfe367e161faa5e20de871a3bbf9dae2d568",
    "7,0,explicit,dense": "cb7a47072185e9cf8960ad26c9e04a385254e8f4e2d6691797b9243660acfe8a",
    "7,0,explicit,sparse": "c1ff4f5106bbfa5b174512ae6512c41c60fdf1ec9c8cef62fea3b0290b179b40",
    "6,1,diagonal,dense": "f4c26b1b95bfc7e545d26cc5e8a333c51239f06b084ec6948c48729fd221b591",
    "6,1,diagonal,sparse": "40abe7418305a29d74e5dffbffb73a0deb05f712c49c2af080c5e618af769baa",
    "5,2,diagonal,dense": "a97ec9882206343602690cfe0996fc93e10217cf2795eebc722b7e16aa1d9594",
    "5,2,diagonal,sparse": "40e9dc85067771e8c8fcaf3225481a5a165a6f2bd1f0aa9b8bc91005623461fe",
    "4,3,diagonal,dense": "2bb5cfa265b69d475272ec614da2f767190db23ae41691878ddbb057eeee4ab2",
    "4,3,diagonal,sparse": "a35eb07e308904856d4c56489ef01ff35c5fa9e9689bca0115245ef79bdbcccf",
    "0,7,explicit,dense": "3472c7055fa9040a51213114682eb61d3324798cf53c14f139fc368903f5a5ca",
    "0,7,explicit,sparse": "5bad751c4060e5eec64fccb8c0be911986fef62ea56ee6f48643592e2b8b4576",
    "8,0,explicit,dense": "20715fd974bf412e8667537012bd78a99b116bef3d5237218b6327d309abfa28",
    "8,0,explicit,sparse": "780284eecf7142f10fa3372c6ce6261dad78812f01314d105008a6b33fe237b4",
    "7,1,diagonal,dense": "a1bb8a38444680d30a2baaf31a50a780b65383525f41b05286410634b501aeb4",
    "7,1,diagonal,sparse": "446b986c318c9c2a548d5730572496a4112e9cb68445995682702859b395e9ae",
    "6,2,diagonal,dense": "8cea63174c28738ab583091666fec269f53ce061532c6556d3e0798fae686e65",
    "6,2,diagonal,sparse": "112ef1f2d1818c2fcfed906aa3be8e34532e680c46148520d17943c0ab95c4ed",
    "5,3,diagonal,dense": "57c5af2e7d20569ebddfe2ab04b24fd99514517cef0a2b528ff9d628a2379a07",
    "5,3,diagonal,sparse": "d6d16912342720f81fd6a48687d8c4d6cd058f006e67cd1ea29862d0fc1a4ba8",
    "4,4,diagonal,dense": "4fce49cd4deb11ec2b0ce49c50013e3b6bc510c0a99122dc54e4b037ebc49f54",
    "4,4,diagonal,sparse": "61d579d217e6c5ea396b70da4ccd96cbf491bbad758d23b210a43819fc134170",
    "0,8,explicit,dense": "98153aa3d32b394ff177143abcd2cb761e638433d13f4d92423a9a022568951d",
    "0,8,explicit,sparse": "ca9e79139a034fa005de50267b7e61873698b8f0f1b325cdfc1a75d3805f02e2",
    "9,0,periodic,dense": "d8d08ddc1751a5d9ad0c069ff8bde4d9f767792975bacd901c5d8a612f441da3",
    "9,0,periodic,sparse": "6980ba376fd076b0610b16c6d87bae16f3364f35bb608d15ebae51323db0354f",
    "7,2,diagonal,dense": "58a0154484802dfd55123c3deaa54c342c672a6f977f5c1d8674bac013e90ac9",
    "7,2,diagonal,sparse": "6f2a0e487199b34aad27fec280c056e14dca6f5c8fe69d23174e23dbbddd4c83",
    "6,3,diagonal,dense": "3f0b6efa3302e44af96c727918ff945278ff4398233cccc8bb17ec67d1babadc",
    "6,3,diagonal,sparse": "b267fec6eeaa76d66ba988fac8a9a165da33badc48e99f19495b6cae6b2b36bf",
    "5,4,diagonal,dense": "12b96d4590c24bfe3389b1648219bae57856660655fbfa859f41547432b1d148",
    "5,4,diagonal,sparse": "f196eca06e616a75bc0d1f958be9f72a87231a00151bf27771d52401ff04f258",
    "0,9,periodic,dense": "a5c1f613577fd7fc6ef046308d5367ee13af038cb08cdcb20368da6d37bc7bd8",
    "0,9,periodic,sparse": "d5e49415aa96c8eb68e51d1b33a4ded97eda58990c376e76f2344c488eb1d373",
    "8,2,diagonal,dense": "4f11fcb4cf3d895dc3db6306a745f51ac52f2a9e4b56f11a09b08baa93bb61ad",
    "8,2,diagonal,sparse": "fe222fca78c3d6863a9357a49f0454924a6e389765b4e1145902d34bc092cdd9",
    "8,2,periodic,dense": "07b4cc34ccf4bbd39c99c9c43091b2bd4d22d01bd801c6a308844e8cf365aab1",
    "8,2,periodic,sparse": "2983b40660425b228507238c49a385fa58d16d09d22d5e04a2188b0f9a76a38f",
    "7,3,diagonal,dense": "e313bac8c0a2d7ea5a85619294713a1720fc3bd8a2b8c3202f638759c852ba32",
    "7,3,diagonal,sparse": "d4a06b9db9975acd3704b54e8214467f00f5d49dfc004461a5b66bcfa0ce9dea",
    "6,4,diagonal,dense": "7a24b233a72f7045ea11a8712c1836a92d6cd04a793ec2d7eda15495e6208337",
    "6,4,diagonal,sparse": "6be04d90a2634c984b5b7f79fba47108a3e1b24de7b63a80358f631a7e39e145",
    "5,5,diagonal,dense": "ef55a8658b82905a9957185d30cc6bda30557f6129db3dad52cb30c9433881ef",
    "5,5,diagonal,sparse": "ca368cdc47a6eef379a185cf088ac435328a3740d77f6ddd392cd06f40cc5f80",
    "8,1,periodic,dense": "02662e30a0253685bfe255cdb744d0ef0287e658fa92ea436d18fe3daa2ad05c",
    "8,1,periodic,sparse": "1ef8d4d7d3499293a23c3209067ef53b2b48e504660bbef1e9049d49ca091ba5",
    "17,0,periodic,e17": "788711096666ad2f2e348e26794c548e035218db37ad510fb946de380f70481f",
}


def test_images_match_recorded_digests():
    seen = {}
    for label, spec, a in _digest_cases():
        seen[label] = _digest(spec, a)
    sig = Signature(17, 0)
    seen["17,0,periodic,e17"] = _digest(get_spec(sig), Multivector.generator(sig, 17))
    assert seen == IMAGE_DIGESTS


def _wide_text_cases():
    """(label, matrix): the widest images, a dense (5,5), each (0,2) route, zeros."""
    for p, q in ((17, 0), (16, 1), (9, 0)):
        sig = Signature(p, q)
        rng = random.Random(f"wide:{p},{q}")
        yield f"{p},{q},random", represent(random_multivector(sig, rng)).value
        yield f"{p},{q},e1", represent(Multivector.generator(sig, 1)).value
    rng = random.Random("wide:dense")
    s55 = Signature(5, 5)
    yield "5,5,dense", represent(Multivector(s55, {m: _coeff(rng) for m in range(s55.dim)})).value
    for route in ("quaternion", "complex2", "real4"):
        a = Multivector(S02, {m: _coeff(rng) for m in range(S02.dim)})
        yield f"0,2,{route},dense", represent(a, route).value
    yield "zeros,R(3)", RingMatrix.zeros(REAL, 3)
    yield "zeros,H(2x5)", RingMatrix.zeros(QUATERNION, 2, 5)


WIDE_TEXT_DIGESTS = {
    "17,0,random": "9e6b3591b93ede8d5017a76fdf35ef8e342af50ed143d5fffdeeb150fbee620f",
    "17,0,e1": "737c0b846d4b925fafadac638653eee440690de9144d43cd7cf774d9890c52b1",
    "16,1,random": "9585ae6d993c2d82bec0b932f3fd2fcc42b36fac05a45b19d77a41aa895e00d7",
    "16,1,e1": "95e0469ad34804a777c0da92eb816fe24210d22b2d5f544dc7ac04b7badff879",
    "9,0,random": "0f171b585beab561744733a29d986d02c340f2b7431dd452865a6b7361aecad5",
    "9,0,e1": "6204d336087629942ae2c50b45b30c5b950f7a9a3d6d4f95016d3dd2ff1ad855",
    "5,5,dense": "ea505a1deac6c79fdae9e1783ad65c810636ff85fde29608441828f7cd758c45",
    "0,2,quaternion,dense": "0cb30841ccc4c40e8fc61ec5a4cbb8b4850234f1604c2c2655748ba2a786e3ca",
    "0,2,complex2,dense": "500f12abf59403be18991e94695f4281d38d0d0f22cdb725b5910d8bb359ea22",
    "0,2,real4,dense": "4b4c1298f7b1f265ccc775edff6a1d7c3bbbca8a4cea7ecf3964eed5219e77e5",
    "zeros,R(3)": "680e5dedae4c4986b3b0cf66158129385f398f69c00c384cf855190aea43ada5",
    "zeros,H(2x5)": "5dde7453a4d1362b066fedbc8093d271e7fd1a8f4937025a1906e535a78d83c7",
}


def test_wide_image_text_is_pinned():
    seen = {}
    for label, a in _wide_text_cases():
        seen[label] = hashlib.sha256(format_matrix(a).encode()).hexdigest()
    assert seen == WIDE_TEXT_DIGESTS


def _is_signed_unit_monomial(block):
    """One non-zero entry per row and per column, each a signed unit."""
    cols = []
    for row in block.rows:
        hits = [(c, x) for c, x in enumerate(row) if not x.is_zero]
        if len(hits) != 1:
            return False
        col, x = hits[0]
        comps = sorted(abs(v) for v in x.components())
        if comps != [0] * (len(comps) - 1) + [1]:
            return False
        cols.append(col)
    return sorted(cols) == list(range(block.ncols))


def test_blade_images_are_signed_unit_monomials():
    pairs = [(sig, route) for sig, routes in catalog_signatures() if sig.n <= 6 for route in routes]
    pairs += [(Signature(p, q), None) for p, q in ((7, 0), (8, 0), (9, 0), (8, 1))]
    for sig, route in pairs:
        spec = get_spec(sig, route)
        for mask in range(sig.dim):
            img = represent_with(spec, Multivector.blade(sig, mask))
            blocks = (img.plus, img.minus) if isinstance(img, BlockPair) else (img,)
            assert all(_is_signed_unit_monomial(b) for b in blocks), (sig, spec.route, mask)


def test_non_blade_step_basis_is_rejected():
    # a generator mixing two blades, on either side of the split, leaves no
    # signed permutation of the blades, so the split itself is refused
    sig = Signature(3, 0)
    h = Multivector(sig, {0b001: Fraction(3, 5), 0b010: Fraction(4, 5)})
    central = GeneratorList(sig, [Multivector.pseudoscalar(sig)])
    with pytest.raises(StructureError, match="not a signed blade"):
        SplitBasis(GeneratorList(sig, [h]), central)
    with pytest.raises(StructureError, match="not a signed blade"):
        SplitBasis(GeneratorList(sig, []), GeneratorList(sig, [h]))


def test_blade_image_unit_outside_the_target_ring_raises():
    # under a complex target the quaternion leaf's j would alias the next
    # entry; the flat layout is read, and the units checked, in _blade_cells
    spec = dataclasses.replace(get_spec(S02, "quaternion"), target=Target(COMPLEX, 1))
    assert blade_image(spec, 0b01) == bytes((0, 2))
    with pytest.raises(CatalogError, match="unit outside C"):
        _blade_cells(spec, 0b10)


# -- the one compile rule: a Kronecker product of compiled images


def _dense(image):
    """The quaternion matrix (or pair) a compiled image stands for, written
    row by row as four components per entry."""
    if isinstance(image, tuple):
        return tuple(map(_dense, image))
    size = len(image) // 2
    comps = []
    for col, code in zip(image, image[size:]):
        unit = tuple((-1 if code & 1 else 1) * (u == code >> 1) for u in range(4))
        comps += (0, 0, 0, 0) * col + unit + (0, 0, 0, 0) * (size - 1 - col)
    return from_numerators(QUATERNION, size, comps, 1)


def _written_kron(left, right, neg):
    """Entry (i*t + j, a*t + b) is left[i][a] * right[j][b], negated by neg."""
    if isinstance(left, tuple):
        return tuple(_written_kron(b, right, neg) for b in left)
    if isinstance(right, tuple):
        return tuple(_written_kron(left, b, neg) for b in right)
    rows = [[x * y for x in lrow for y in rrow] for lrow in left.rows for rrow in right.rows]
    return RingMatrix(QUATERNION, rows).scale(-1 if neg else 1)


def _image_of(p, q, mask, route=None):
    return blade_image(get_spec(Signature(p, q), route), mask)


# each case's operands, built when its test runs
_KRON_CASES = {
    "real x real": lambda: (_PATTERNS["quad_flip"][3], _image_of(2, 2, 0b1011)),
    "core x real": lambda: (_image_of(8, 0, 0b10110101), _image_of(2, 2, 0b0110)),
    "i x real": lambda: (_PATTERNS["units"][1], _image_of(2, 2, 0b0111)),
    "j x real": lambda: (_PATTERNS["units"][2], _image_of(2, 2, 0b1100)),
    "k x real": lambda: (_PATTERNS["units"][3], _image_of(2, 2, 0b1101)),
    "real x complex": lambda: (_PATTERNS["quad"][2], _image_of(0, 2, 0b11, "complex2")),
    "real x quaternion": lambda: (_PATTERNS["quad"][3], _image_of(0, 2, 0b11, "quaternion")),
    "real x quaternion 2x2": lambda: (_PATTERNS["quad"][2], _image_of(1, 3, 0b1011)),
    "leaf x 1x1 unit": lambda: (_PATTERNS["complex_pair"][3], bytes(2)),
    "split x real": lambda: (_PATTERNS["split"][1], _image_of(2, 2, 0b1001)),
    "real x doubled real": lambda: (_PATTERNS["quad_flip"][2], _image_of(2, 1, 0b111)),
    "real x doubled quaternion": lambda: (_PATTERNS["real_quad"][3], _image_of(0, 3, 0b110)),
}


@pytest.mark.parametrize("neg", [0, 1])
@pytest.mark.parametrize("case", sorted(_KRON_CASES))
def test_kron_matches_written_out_kronecker_product(case, neg):
    left, right = _KRON_CASES[case]()
    assert _dense(_kron(left, right, neg)) == _written_kron(_dense(left), _dense(right), neg)


def _factors(ring):
    """(carries units, doubled) of an image over ``ring``."""
    return COMPONENTS[ring] > 1, ring in BLOCK_RING


def _pattern_factors(kind):
    """(carries units, doubled) of a step kind's outer-product images."""
    patterns = _PATTERNS[kind]
    doubled = isinstance(patterns[0], tuple)
    blocks = [b for p in patterns for b in (p if doubled else (p,))]
    return any(code >> 1 for b in blocks for code in b[len(b) // 2 :]), doubled


def test_no_step_multiplies_units_by_units_or_pairs_by_pairs():
    # _kron XORs row codes, which multiplies units only when one factor is
    # real, and pairs up blocks only when one factor is a single block
    seen, kinds, stack = set(), set(), []
    for sig, routes in catalog_signatures():
        stack += [get_spec(sig, route) for route in routes]
    stack.append(get_spec(Signature(17, 0)))
    while stack:
        spec = stack.pop()
        if id(spec) in seen:
            continue
        seen.add(id(spec))
        node = spec.node
        if isinstance(node, PeriodicNode):
            left, right = _factors(node.core.target.ring), _factors(node.inner.target.ring)
            stack += [node.core, node.inner]
        else:
            kinds.add(node.kind)
            # a chain of steps ends at the scalar or at a printed embedding
            assert node.sub is not None or spec.signature == Signature(0, 0) or node.kind in (
                "real_pair", "complex_pair", "real_quad"), (spec, "leaf")
            left = _pattern_factors(node.kind)
            right = _factors(REAL if node.sub is None else node.sub.target.ring)
            stack += [node.sub] if node.sub is not None else []
        assert not (left[0] and right[0]), (spec, "units on both factors")
        assert not (left[1] and right[1]), (spec, "two doubled factors")
    assert kinds == set(_PATTERNS)


# -- the fast path against the written-out blade images


def _as_quaternion(value):
    """A fast-path image (or pair) with every entry padded to four components."""
    if isinstance(value, BlockPair):
        return _as_quaternion(value.plus), _as_quaternion(value.minus)
    rank = COMPONENTS[value.ring]
    nums, den = rings.to_numerators(value)
    comps = [x for i in range(0, len(nums), rank) for x in nums[i : i + rank] + [0] * (4 - rank)]
    return from_numerators(QUATERNION, value.ncols, comps, den)


def _written_sum(a, dense):
    """sum(a_m * rho(e_m)) over the quaternion matrices ``dense[m]``."""
    total = None
    for mask, coeff in a.terms():
        term = tuple(b.scale(coeff) for b in dense[mask])
        total = term if total is None else tuple(x + y for x, y in zip(total, term))
    return total


def _cancelling(spec, masks):
    """The first blade in ``masks`` whose image holds -1 on the diagonal, where
    the unit's image holds +1, or None."""
    size = spec.target.size
    for mask in masks:
        blocks = _blocks(blade_image(spec, mask))
        rows = (enumerate(zip(b, b[size:])) for b in blocks)
        if any(c == r and code == 1 for block in rows for r, (c, code) in block):
            return mask
    return None


def _reference_cases():
    """(label, spec, elements, blades): seeded single, sparse and dense
    elements, and one whose coefficients cancel in some cells, on every
    listed recipe with n <= 8 and on 20 seeded blades at (17,0)."""
    specs = [get_spec(sig, route) for sig, routes in catalog_signatures() if sig.n <= 8
             for route in routes]
    specs.append(get_spec(Signature(17, 0)))
    for spec in specs:
        sig = spec.signature
        rng = random.Random(f"reference:{sig.p},{sig.q},{spec.route}")
        flip = _cancelling(spec, range(1, sig.dim))
        masks = list(range(sig.dim)) if sig.n <= 8 else [0] + rng.sample(range(1, sig.dim), 19)
        if flip is not None and flip not in masks:
            masks[-1] = flip
        elements = {
            "single": Multivector(sig, {rng.choice(masks): _coeff(rng)}),
            "sparse": Multivector(sig, {rng.choice(masks): _coeff(rng) for _ in range(3)}),
            "dense": Multivector(sig, {m: _coeff(rng) for m in masks}),
        }
        if flip is not None:
            x, extra = _coeff(rng), rng.choice(masks)  # an extra blade of 0 or flip is overridden
            elements["cancel"] = Multivector(sig, {extra: _coeff(rng), 0: x, flip: x})
        yield f"{sig.p},{sig.q},{spec.route}", spec, elements, masks


def test_images_match_the_written_out_sum_of_blade_images():
    uncancelled = set()
    for label, spec, elements, masks in _reference_cases():
        dense = {m: _blocks(_dense(blade_image(spec, m))) for m in masks}
        for kind, a in elements.items():
            image = _blocks(_as_quaternion(represent_with(spec, a)))
            assert image == _written_sum(a, dense), (label, kind)
        if "cancel" not in elements:
            uncancelled.add(label)
    # as algebras R, C and H have no two blades whose images share a cell
    assert uncancelled == {"0,0,scalar", "0,1,real2", "0,1,complex1", "0,2,quaternion",
                           "0,2,complex2", "0,2,real4"}


def test_blade_cell_runs_are_disjoint_and_hold_one_cell_per_row():
    for label, spec, _, masks in _reference_cases():
        target = spec.target
        total, width = _cell_count(target), COMPONENTS[target.ring] * target.size
        rows = total // width  # size rows in each block
        for mask in masks:
            plus = _blade_cells(spec, mask)
            assert not set(plus) & set(plus.minus), (label, mask)
            cells = [*plus, *plus.minus]
            assert sorted(c // width for c in cells) == list(range(rows)), (label, mask)
            assert max(cells) < total, (label, mask)


# -- rectangular lifts


def test_lift_reduces_to_single_image():
    a = parse_multivector(S01, "1 + 2*eps1")
    lifted = matrix_represent([[a]])
    assert lifted == represent(a, "real2").value
    b = parse_multivector(S10, "1 + 2*e1")
    assert matrix_represent([[b]]) == represent(b).value


def test_lift_block_pattern_zero_one():
    row = [Multivector.generator(S01, 1), Multivector.scalar(S01, 1)]
    got = matrix_represent([row])
    assert got == RingMatrix.from_components(REAL, [[0, 1, -1, 0], [1, 0, 0, 1]])


def test_lift_multiplicative_both_signatures():
    rng = random.Random(58)
    for sig in (S10, S01):
        for _ in range(15):
            a = [[rand_mv(sig, rng, -5, 5) for _ in range(2)] for _ in range(2)]
            b = [[rand_mv(sig, rng, -5, 5) for _ in range(3)] for _ in range(2)]
            ab = [
                [a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(3)]
                for i in range(2)
            ]
            assert matrix_represent(ab) == matrix_represent(a) * matrix_represent(b)


def test_lift_rejects_other_signatures_and_mixes():
    with pytest.raises(CatalogMissError):
        matrix_represent([[Multivector.scalar(S20, 1)]])
    with pytest.raises(SignatureMismatchError):
        matrix_represent([[Multivector.scalar(S10, 1), Multivector.scalar(S01, 1)]])


# -- the integer fast path builds no RingScalar


@pytest.fixture
def scalar_builds(monkeypatch):
    """Every RingScalar built while the test runs, by either constructor."""
    built = []
    init, kernel_scalar = RingScalar.__init__, rings._kernel_scalar

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_kernel_scalar(*args):
        built.append(args)
        return kernel_scalar(*args)

    monkeypatch.setattr(RingScalar, "__init__", counted_init)
    monkeypatch.setattr(rings, "_kernel_scalar", counted_kernel_scalar)
    return built


@pytest.mark.parametrize("pq,blades", [((5, 5), None), ((9, 0), 96)])
def test_images_build_no_ring_scalars(pq, blades, scalar_builds):
    sig = Signature(*pq)
    rng = random.Random(f"fast-path:{pq}")
    masks = range(sig.dim) if blades is None else rng.sample(range(sig.dim), blades)
    a = Multivector(sig, {m: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for m in masks})
    image = represent(a)
    assert image.value.ring == ("R" if pq == (5, 5) else DOUBLE_REAL)
    text = format_matrix(image.value)
    assert image.value == represent(a).value and text == format_matrix(represent(a).value)
    assert scalar_builds == []
    # the RingScalar view appears on first read of rows, and only then
    value = image.value.plus if isinstance(image.value, BlockPair) else image.value
    assert value.entry(0, 0) == value.rows[0][0] and scalar_builds


def test_inverse_reads_the_lazy_rows(scalar_builds):
    sig = Signature(3, 1)
    a = rand_mv(sig, random.Random("lazy-rows"))
    inv = element_inverse(a)
    assert inv is not None and a * inv == Multivector.scalar(sig, 1) == inv * a
    # mat_inverse eliminated over the RingScalar view of the image
    assert scalar_builds
