"""Parsing dense elements written one generator per factor, as the benchmark
and ``cliffrep rep`` users write them: ``3/2 * e1 * e3 * eps2``."""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from cliffrep.algebra import Multivector, Signature
from cliffrep.text import ParseError, parse_multivector

# (12,0) and (3,11) have names of two digits: e10..e12 and eps10, eps11
SIGNATURES = [(9, 0), (8, 1), (5, 5), (12, 0), (3, 11)]
SPACES = ["", " ", "  ", "\t", " \n "]


def _names(sig: Signature) -> list[str]:
    return [f"e{i}" for i in range(1, sig.p + 1)] + [f"eps{i}" for i in range(1, sig.q + 1)]


def _star(rng: random.Random) -> str:
    return f"{rng.choice(SPACES)}*{rng.choice(SPACES)}"


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_dense_separated_factors_equal_generator_products(p, q):
    sig = Signature(p, q)
    names = _names(sig)
    gens = [Multivector.generator(sig, i) for i in range(1, sig.n + 1)]
    rng = random.Random(f"separated:{p},{q}")
    for _ in range(6):
        chunks, expected = [], Multivector.zero(sig)
        for _ in range(64):
            order = rng.sample(range(sig.n), rng.randint(0, sig.n))  # shuffled factors
            coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))
            factors = [str(abs(coeff))] + [names[i] for i in order]
            body = _star(rng).join(factors)
            chunks.append(f"{'-' if coeff < 0 else '+'}{rng.choice(SPACES)}{body}")
            product = reduce(mul, (gens[i] for i in order), Multivector.scalar(sig, 1))
            expected = expected + coeff * product
        source = rng.choice(SPACES).join(chunks)
        assert parse_multivector(sig, source) == expected, source


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_name_seen_in_an_earlier_term_still_raises_when_repeated(p, q):
    sig = Signature(p, q)
    names = _names(sig)
    rng = random.Random(f"repeated:{p},{q}")
    for _ in range(20):
        a, b, c = (names[i] for i in rng.sample(range(sig.n), 3))
        head = f"2 * {a} * {b} + 1/3 * {c} * {b} - {b} * {a} * "
        with pytest.raises(ParseError, match="repeated generator") as err:
            parse_multivector(sig, f"{head}{b}")
        assert err.value.position == len(head)
        # an unknown name after known ones still raises at its own position
        with pytest.raises(ParseError, match="index 0 outside the signature") as err:
            parse_multivector(sig, f"{head}{rng.choice(['e', 'eps'])}0")
        assert err.value.position == len(head)
