"""Parsing and printing of series and polynomial expressions.

The grammar is a signed sum of terms.  For descending Puiseux polynomials a
term is ``c``, ``c*x^e`` or ``x^e`` with rational ``c`` (``p/q`` or integer)
and exponent ``e`` an integer (``x^3``, ``x^-1``) or a parenthesized
fraction (``x^(5/3)``, ``x^(-13/6)``).  For Laurent polynomials a term is a
``*``-separated product of a coefficient and powers of ``x`` and ``y``;
x-exponents may be negative, y-exponents may not.  Printing is canonical
and ``parse(print(value)) == value`` holds for every value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .algebra import LaurentPoly
from .puiseux import DPuiseuxPoly


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_DIGITS = re.compile(r"[0-9]+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str) -> bool:
        if self.peek() == expected:
            self.pos += 1
            return True
        return False

    def expect(self, expected: str) -> None:
        if not self.take(expected):
            raise ParseError(f"expected {expected!r}", self.pos)

    def integer(self) -> int:
        """An unsigned run of ASCII digits; a digit of another script (``²``,
        ``٣``), which str.isdigit also accepts, is not a number here."""
        self._skip_space()
        match = _DIGITS.match(self.text, self.pos)
        if match is None:
            raise ParseError("expected a number", self.pos)
        self.pos = match.end()
        return int(match.group())

    def rational(self) -> Fraction:
        value = Fraction(self.integer())
        if self.take("/"):
            denom = self.integer()
            if denom == 0:
                raise ParseError("zero denominator", self.pos)
            value /= denom
        return value

    def sign(self, *, required: bool) -> int:
        if self.take("+"):
            return 1
        if self.take("-"):
            return -1
        if required:
            raise ParseError("expected '+' or '-'", self.pos)
        return 1

    def at_end(self) -> bool:
        return self.peek() == ""


def _exponent(scanner: _Scanner, *, allow_fraction: bool) -> Fraction:
    if scanner.take("("):
        negative = scanner.take("-")
        value = scanner.rational() if allow_fraction else Fraction(scanner.integer())
        scanner.expect(")")
        return -value if negative else value
    negative = scanner.take("-")
    value = Fraction(scanner.integer())
    return -value if negative else value


def parse_dps(text: str) -> DPuiseuxPoly:
    """Parse a descending Puiseux polynomial; duplicate exponents are summed."""
    scanner = _Scanner(text)
    terms: list[tuple[Fraction, Fraction]] = []
    sign = scanner.sign(required=False)
    while True:
        coeff = Fraction(1)
        exponent = Fraction(0)
        if scanner.peek().isdigit():
            coeff = scanner.rational()
            if scanner.take("*"):
                if not scanner.take("x"):
                    raise ParseError("expected 'x'", scanner.pos)
                if scanner.take("^"):
                    exponent = _exponent(scanner, allow_fraction=True)
                else:
                    exponent = Fraction(1)
        elif scanner.take("x"):
            exponent = Fraction(1)
            if scanner.take("^"):
                exponent = _exponent(scanner, allow_fraction=True)
        else:
            raise ParseError("expected a term", scanner.pos)
        terms.append((exponent, sign * coeff))
        if scanner.at_end():
            return DPuiseuxPoly(terms)
        sign = scanner.sign(required=True)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse an element of Q[x, 1/x, y]."""
    scanner = _Scanner(text)
    terms: list[tuple[tuple[int, int], Fraction]] = []
    sign = scanner.sign(required=False)
    while True:
        coeff = Fraction(sign)
        x_exp = Fraction(0)
        y_exp = Fraction(0)
        saw_factor = False
        while True:
            if scanner.peek().isdigit():
                coeff *= scanner.rational()
            elif scanner.take("x"):
                x_exp += _exponent(scanner, allow_fraction=False) if scanner.take("^") else 1
            elif scanner.take("y"):
                step = _exponent(scanner, allow_fraction=False) if scanner.take("^") else 1
                if step < 0:
                    raise ParseError("negative y-exponent", scanner.pos)
                y_exp += step
            else:
                raise ParseError("expected a factor", scanner.pos)
            saw_factor = True
            if not scanner.take("*"):
                break
        if not saw_factor:
            raise ParseError("expected a term", scanner.pos)
        terms.append(((int(x_exp), int(y_exp)), coeff))
        if scanner.at_end():
            return LaurentPoly(terms)
        sign = scanner.sign(required=True)


# ---------------------------------------------------------------------------
# canonical printers


def _x_power(exponent: Fraction) -> str | None:
    if exponent == 0:
        return None
    if exponent == 1:
        return "x"
    if exponent.denominator == 1:
        return f"x^{exponent}"
    return f"x^({exponent})"


def dps_to_str(poly: DPuiseuxPoly) -> str:
    if poly.is_zero:
        return "0"
    pieces = []
    for exponent, coeff in poly.items():
        power = _x_power(exponent)
        magnitude = abs(coeff)
        if power is None:
            body = str(magnitude)
        elif magnitude == 1:
            body = power
        else:
            body = f"{magnitude}*{power}"
        pieces.append((coeff < 0, body))
    return _join_signed(pieces)


_Y_THEN_X = itemgetter(1, 0)


def laurent_to_str(poly: LaurentPoly) -> str:
    """Terms by y-exponent then x-exponent, both descending, printed from
    the integer numerators over the poly's one denominator."""
    terms, den = poly._terms, poly._den
    if not terms:
        return "0"
    pieces = []
    for key in sorted(terms, key=_Y_THEN_X, reverse=True):
        a, b = key
        n = terms[key]
        num, d = abs(n), 1
        if den > 1:
            g = gcd(num, den)
            num, d = num // g, den // g
        if d > 1:
            factors = [f"{num}/{d}"]
        else:
            factors = [str(num)] if num != 1 else []
        if a != 0:
            factors.append(f"x^{a}" if a != 1 else "x")
        if b != 0:
            factors.append(f"y^{b}" if b != 1 else "y")
        pieces.append((n < 0, "*".join(factors) or "1"))
    return _join_signed(pieces)


def _join_signed(pieces: list[tuple[bool, str]]) -> str:
    out = []
    for i, (negative, body) in enumerate(pieces):
        if i == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(out)
