"""Round-trippable text grammar for multivectors.

Terms look like ``3/2*e1``, ``-1*e12``, ``e1*eps2`` or a bare rational,
joined by ``+`` and ``-``.  Generator names are ``e1..e<p>`` for the +1
generators and ``eps1..eps<q>`` for the -1 generators.  A digit run after a
family letter first tries to name a single generator of that family; when it
is not one (e.g. ``e12`` with p = 2) it is read as a product of single-digit
generators in ascending order.  Numbers and indices are runs of the ASCII
digits 0-9 only.  The printer emits blades in ascending mask order and
sticks to forms the parser accepts.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Multivector, Signature
from .rings import format_rational


class ParseError(ValueError):
    """Rejects malformed multivector text; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def ascii_digits(text: str) -> bool:
    """True when ``text`` is a non-empty run of the digits 0-9; ``str.isdigit``
    and ``str.isdecimal`` also take other scripts' digits and superscripts."""
    return text.isascii() and text.isdigit()


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def take_digits(self) -> str:
        start = self.pos
        while self.pos < len(self.src) and ascii_digits(self.src[self.pos]):
            self.pos += 1
        return self.src[start : self.pos]


def _to_int(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on int() digits
        raise ParseError(f"number of {len(digits)} digits is too long", position) from None


def _parse_blade_name(scanner: _Scanner, sig: Signature) -> int:
    """One generator-family name with digits; returns the blade mask."""
    start = scanner.pos
    family_size = sig.p
    offset = 0
    if scanner.src.startswith("eps", scanner.pos):
        scanner.pos += 3
        family_size = sig.q
        offset = sig.p
    elif scanner.peek() == "e":
        scanner.pos += 1
    else:
        raise ParseError("expected a generator name", scanner.pos)
    digits = scanner.take_digits()
    if not digits:
        raise ParseError("expected generator indices", scanner.pos)
    value = _to_int(digits, start)
    if len(digits) == 1 or (1 <= value <= family_size):
        indices = [value]
    else:
        indices = [int(d) for d in digits]
        if any(nxt <= prev for prev, nxt in zip(indices, indices[1:])):
            raise ParseError("generator indices must be strictly ascending", start)
    mask = 0
    for idx in indices:
        if not 1 <= idx <= family_size:
            raise ParseError(f"generator index {idx} outside the signature", start)
        mask |= 1 << (offset + idx - 1)
    return mask


def _parse_rational(scanner: _Scanner) -> Fraction:
    start = scanner.pos
    digits = scanner.take_digits()
    if not digits:
        raise ParseError("expected a number", start)
    numerator = _to_int(digits, start)
    if scanner.peek() == "/":
        scanner.take()
        dstart = scanner.pos
        ddigits = scanner.take_digits()
        denominator = _to_int(ddigits, dstart) if ddigits else 0
        if not denominator:
            raise ParseError("expected a non-zero denominator", dstart)
        return Fraction(numerator, denominator)
    return Fraction(numerator)


def _parse_term(scanner: _Scanner, sig: Signature) -> tuple[int, Fraction]:
    coeff = Fraction(1)
    mask = 0
    need_factor = True
    if ascii_digits(scanner.peek()):
        coeff = _parse_rational(scanner)
        scanner.skip_ws()
        need_factor = False
    while need_factor or scanner.peek() == "*":
        if not need_factor:
            scanner.take()
            scanner.skip_ws()
        factor_start = scanner.pos
        factor = _parse_blade_name(scanner, sig)
        if factor & mask:
            raise ParseError("repeated generator in a term", factor_start)
        mask |= factor
        scanner.skip_ws()
        need_factor = False
    return mask, coeff


def parse_multivector(sig: Signature, source: str) -> Multivector:
    """Parse the multivector grammar; raises ParseError with a position."""
    scanner = _Scanner(source)
    scanner.skip_ws()
    if not scanner.src.strip():
        raise ParseError("empty expression", scanner.pos)
    terms: dict[int, Fraction] = {}
    sign = 1
    if scanner.peek() in "+-":
        if scanner.take() == "-":
            sign = -1
        scanner.skip_ws()
    while True:
        mask, coeff = _parse_term(scanner, sig)
        terms[mask] = terms.get(mask, Fraction(0)) + sign * coeff
        scanner.skip_ws()
        nxt = scanner.peek()
        if not nxt:
            break
        if nxt not in "+-":
            raise ParseError(f"unexpected character {nxt!r}", scanner.pos)
        sign = 1 if scanner.take() == "+" else -1
        scanner.skip_ws()
    return Multivector(sig, terms)


def blade_name(sig: Signature, mask: int) -> str:
    """Printable name of a blade mask, e.g. ``e12`` or ``e1*eps2``."""
    if mask == 0:
        return "1"
    pos_digits = [str(i + 1) for i in range(sig.p) if mask & (1 << i)]
    neg_digits = [str(i - sig.p + 1) for i in range(sig.p, sig.n) if mask & (1 << i)]
    parts = []
    if pos_digits:
        if sig.p <= 9:
            parts.append("e" + "".join(pos_digits))
        else:
            parts.extend(f"e{d}" for d in pos_digits)
    if neg_digits:
        if sig.q <= 9:
            parts.append("eps" + "".join(neg_digits))
        else:
            parts.extend(f"eps{d}" for d in neg_digits)
    return "*".join(parts)


def format_multivector(mv: Multivector) -> str:
    """Inverse of parse_multivector for canonical forms; blades ascend by mask."""
    if mv.is_zero:
        return "0"
    chunks: list[str] = []
    for mask, coeff in mv.terms():
        magnitude = abs(coeff)
        if mask == 0:
            body = format_rational(magnitude)
        else:
            body = f"{format_rational(magnitude)}*{blade_name(mv.sig, mask)}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(chunks)
