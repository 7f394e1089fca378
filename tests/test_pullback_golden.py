"""Bit-for-bit regression of determinants, characteristic polynomials and
wide image products.

The digests were recorded with the RingScalar arithmetic that preceded the
integer-numerator kernel of cliffrep.rings, so they pin the kernel's results
to the plain rational ones.
"""

import hashlib
import random
from fractions import Fraction

from cliffrep.algebra import Multivector, Signature
from cliffrep.catalog import get_spec, routes_for
from cliffrep.represent import element_charpoly, element_det, represent
from cliffrep.rings import format_matrix, format_scalar


def _coeff(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))


def _dense(sig, rng):
    return Multivector(sig, {m: _coeff(rng) for m in range(sig.dim)})


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _pullback_cases():
    """(label, route, ring, element): two dense elements per R/C/2R route, n <= 6."""
    for n in range(7):
        for p in range(n, -1, -1):
            sig = Signature(p, n - p)
            for route in routes_for(sig):
                ring = get_spec(sig, route).target.ring
                if ring not in ("R", "C", "2R"):
                    continue
                rng = random.Random(f"golden:{sig.p},{sig.q},{route}")
                for k in range(2):
                    yield f"{sig.p},{sig.q},{route},{k}", route, ring, _dense(sig, rng)


def _pullback_digest(route, ring, a):
    text = format_scalar(element_det(a, route))
    if ring != "C":
        text += "\n" + " ".join(map(str, element_charpoly(a, route)))
    return _sha(text)


PULLBACK_DIGESTS = {
    "0,0,scalar,0": "16f67b3c51ea70e20e28d92a1f7464686e6810dc96aeff99e05a4730ee481556",
    "0,0,scalar,1": "75d3d5dac1fc29a33d37caa55cb688e7d670e0b63e45eb73d3c44f6cda433867",
    "1,0,explicit,0": "980568c792653a469675911868645c964f87bc1045e0c75ae3f1f91e9e846379",
    "1,0,explicit,1": "72f7151babbcd333204c1ca69c3d79232bb591366e21ebf85bdd5d9f40dc9f80",
    "0,1,real2,0": "58cf1f07108660ded8f0659b94adc53bf13fd665175d4726c2bf6205efd7f7fe",
    "0,1,real2,1": "bb1a7e190b1264f35fcc7cf1b46945053ce91696b7a10cbf467ab74216fa2e22",
    "0,1,complex1,0": "6fe6491945ccebc02fae52377157918849a4d2156cdf9c35a8820897b611797f",
    "0,1,complex1,1": "1177ddbbeace0776f24318f8cee2674d998a7a457adf8b3eeef5c554e8ed0ed0",
    "2,0,explicit,0": "172be3c16e8ce3792ea34316cdc60c9dffc28face1fae6cedec76f1fd3bdd199",
    "2,0,explicit,1": "65566c60982f86d5498dd3283c8e2c7fd75f89829f166c77a408a8f96297142a",
    "1,1,diagonal,0": "8422f6c229229167b6d397ea24dd9b5a3898a7fd9045343f39bc76ebdc20f44d",
    "1,1,diagonal,1": "3ca73cf68884940d6b1141551f197f09aefeeb6c3943d2f4f5f689eb8875d26b",
    "0,2,complex2,0": "da3f8424d5982b5495f6352aa981aeed9fdfc09a7a9901bfedd36ddb1f2ee9fa",
    "0,2,complex2,1": "7a94ef074603918da4ee653362874194f354d979864a580eb7ea0537f892658c",
    "0,2,real4,0": "0ea61477e88e87e1301b6b0cdde4243da7acb6b3bc44a2d4ca9cc8dfc526e396",
    "0,2,real4,1": "709553da7d99c2a0d5a35518c319a1653de4128eecfd06f8d519bda4a00bd220",
    "3,0,explicit,0": "9d889463aa368e12a35d313fce0b78c248c5f28ab5fa022f029eaaced5ff911c",
    "3,0,explicit,1": "37e289a5694e319a7da017026ceadb2e13f1915f00c5332435151c3f5c5ac5a8",
    "2,1,diagonal,0": "49f1b65390ca9d9a633175a902c523f35eaeaa557d72ce76059a94fe08fe64a5",
    "2,1,diagonal,1": "480c9be8629a9e9358e35988107219cb00533f00103b797b8639c13a2283f443",
    "1,2,explicit,0": "a2137b01c3001061c016cff833231a8611e2d89e427e246472e01c1d7d36594b",
    "1,2,explicit,1": "7411f9e98a206ad616673129663edb3cd858d96818fcb6890f242470b2711303",
    "3,1,diagonal,0": "0d58c512014bae5fdd60916cdfe0120eb95832b3b6408b23fa2c7ca628dc0442",
    "3,1,diagonal,1": "83fc69fbdcc1a508d76dd98fc303912ff3eb1499f7448ef589014bc53a412025",
    "2,2,diagonal,0": "4942abc9d4f665a75455688d25f4c2c0c8b88301cb44c591cdb1e12bbae9e5d9",
    "2,2,diagonal,1": "7b0278422c5e4c17149b5d8b2a39695fc1214a585ef5f910ea956698f2bea8e3",
    "4,1,diagonal,0": "08081ea0903445a504e5dfadf0bfdeca31baccf2707c62a27fa1c7054bb32336",
    "4,1,diagonal,1": "6639a1fe97f9aee735afe6faeba92eeffe4cefa8a41939c537c55ab62d7d6d59",
    "3,2,diagonal,0": "652d7901dac617800d2614c443aed02b5ddebf0c65e91900405ab060d76938ce",
    "3,2,diagonal,1": "7e881faa1eef4e35d3848af2ccc3e034e321c66250900ab6bc10068eb34bd195",
    "2,3,explicit,0": "ed2a1f01e11b5f4d7f85770464737b36585a7d3f6752d021b4a9217db69bbccc",
    "2,3,explicit,1": "6033f2fd18c7942fa664b373fb2d997077aa4b1b8fd9f6d6c8aa9aebc136341c",
    "0,5,explicit,0": "0e94e86011246f3c9f52780656b36f58f5d0b46fcebc02df811a70d3020adc42",
    "0,5,explicit,1": "dfab6d7ae97c1738de163d3de040196145761d6337fa6e9b7f2c4a51db10bd04",
    "4,2,diagonal,0": "dc09b0055feb8e5bf8990be1102d01389d5affbfd1f7d7d23794743340166b05",
    "4,2,diagonal,1": "c2fc06022c27432e7b22af7e83e8d7b91340361a2ac220b51ff0e9412f4a891c",
    "3,3,diagonal,0": "540ea592fb5a722c1c4972e8fea68770a795d020612f98cb643b04d33c5d5ff2",
    "3,3,diagonal,1": "aa33a5ef9300f767f7006f8af85096b569ff25dda2f2b2210b47a42d9809014c",
    "0,6,explicit,0": "da2a5e1f47b5f6fa25a24d8cd2866aa8ada33c2e1ef1df10ca1331bdd3803cda",
    "0,6,explicit,1": "af5f9b6826c107d621a3c833a2d2c9c9aaaa5c1ca98dc2236ba92ea35a20215a",
}


def test_pullback_digests():
    got = {label: _pullback_digest(route, ring, a) for label, route, ring, a in _pullback_cases()}
    assert got == PULLBACK_DIGESTS


# (5,5) is R(32), (8,1) is C(16) and (9,0) is 2R(16)
PRODUCT_DIGESTS = {
    "5,5": "f1d5f7222e4effa553f198b9304f156bbdba8abc5f8ae375a9f9afb6d825e60e",
    "8,1": "e16a945dab56b0f7c286bd530a864fb65caad289618c613549b269f211110e69",
    "9,0": "56ec2c7ddefa83d276a8c85b59af477d3bd830daca20ea6e2edc80d1abf95c58",
}


def test_wide_product_digests():
    got = {}
    for p, q in ((5, 5), (8, 1), (9, 0)):
        sig = Signature(p, q)
        rng = random.Random(f"golden-product:{p},{q}")
        a, b = _dense(sig, rng), _dense(sig, rng)
        got[f"{p},{q}"] = _sha(format_matrix(represent(a).value * represent(b).value))
    assert got == PRODUCT_DIGESTS
