"""Parsing and printing of series and polynomial expressions.

The grammar is a signed sum of terms.  For descending Puiseux polynomials a
term is ``c``, ``c*x^e`` or ``x^e`` with rational ``c`` (``p/q`` or integer)
and exponent ``e`` an integer (``x^3``, ``x^-1``) or a parenthesized
fraction (``x^(5/3)``, ``x^(-13/6)``).  For Laurent polynomials a term is a
``*``-separated product of a coefficient and powers of ``x`` and ``y``;
x-exponents may be negative, y-exponents may not.  Printing is canonical
and ``parse(print(value)) == value`` holds for every value whose numbers
the parser reads: an integer past the interpreter's digit limit is
printed, but not read back.

Every grammar, the command line's ``r`` and pair lists included, reads one
token list: white space is skipped, and a token is a run of ASCII digits or
any other one character.  A digit of another script (``²``, ``٣``) starts a
number, as str.isdigit says, but is not one, and a number longer than int()
reads is refused.  A ParseError's position is where the offending token
starts, after white space; ``zero denominator`` and ``negative y-exponent``
point just past the token that completes the bad value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import itemgetter

from .algebra import LaurentPoly
from .puiseux import DPuiseuxPoly, FormalPuiseuxPairs


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


_TOKEN = re.compile(r"\s*([0-9]+|.|\Z)", re.S)


class _Tokens:
    """A cursor over the text's tokens; a token's start position is found
    only for a ParseError."""

    def __init__(self, text: str):
        self.text, self.tokens, self.i = text, _TOKEN.findall(text), 0

    def _start(self, i: int) -> int:
        return next(islice(_TOKEN.finditer(self.text), i, None)).start(1)

    def peek(self) -> str:
        return self.tokens[self.i]

    def error(self, message: str) -> ParseError:
        return ParseError(message, self._start(self.i))

    def past(self) -> int:
        return self._start(self.i - 1) + len(self.tokens[self.i - 1])

    def take(self, expected: str) -> bool:
        if self.tokens[self.i] == expected:
            self.i += 1
            return True
        return False

    def expect(self, expected: str) -> None:
        if not self.take(expected):
            raise self.error(f"expected {expected!r}")

    def integer(self) -> int:
        token = self.peek()
        if not (token.isascii() and token.isdigit()):
            raise self.error("expected a number")
        try:
            value = int(token)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise self.error(f"number too long: {len(token)} digits") from None
        self.i += 1
        return value

    def end(self, value, expected: str = "the end"):
        """value, once no token is left."""
        if self.peek():
            raise self.error(f"expected {expected}")
        return value

    def sign(self) -> int:
        """-1 after a ``-``, else 1 after an optional ``+``."""
        if self.take("-"):
            return -1
        self.take("+")
        return 1

    def rational(self) -> tuple[int, int]:
        """(numerator, positive denominator) of ``p/q`` or an integer, unreduced."""
        num = self.integer()
        den = self.integer() if self.take("/") else 1
        if den == 0:
            raise ParseError("zero denominator", self.past())
        return num, den

    def power(self, fraction: bool) -> tuple[int, int]:
        """After a variable, as (numerator, denominator): 1, or ``^`` and an
        optionally negated integer, or ``^(``, an optionally negated integer,
        or a rational if ``fraction``, and ``)``."""
        if not self.take("^"):
            return 1, 1
        parenthesized = self.take("(")
        sign = -1 if self.take("-") else 1
        num, den = self.rational() if parenthesized and fraction else (self.integer(), 1)
        if parenthesized:
            self.expect(")")
        return sign * num, den


def _signed_sum(text: str, term) -> list:
    """The terms of ``[sign] term (sign term)*``, each read by
    ``term(tokens, sign)`` with its sign applied."""
    tokens = _Tokens(text)
    terms = [term(tokens, tokens.sign())]
    while tokens.peek():
        if tokens.peek() not in ("+", "-"):
            raise tokens.error("expected '+' or '-'")
        terms.append(term(tokens, tokens.sign()))
    return terms


def _dps_term(tokens: _Tokens, sign: int) -> tuple[int, int, int, int]:
    """(exponent numerator, its denominator, coefficient numerator, its denominator)."""
    num, den = 1, 1
    if tokens.peek().isdigit():
        num, den = tokens.rational()
        if not tokens.take("*"):
            return 0, 1, sign * num, den
        tokens.expect("x")
    elif not tokens.take("x"):
        raise tokens.error("expected a term")
    return (*tokens.power(True), sign * num, den)


def _laurent_term(tokens: _Tokens, sign: int) -> tuple[tuple[int, int], int, int]:
    """((x-exponent, y-exponent), coefficient numerator, its denominator)."""
    num, den, x_exp, y_exp = sign, 1, 0, 0
    while True:
        if tokens.peek().isdigit():
            n, d = tokens.rational()
            num, den = num * n, den * d
        elif tokens.take("x"):
            x_exp += tokens.power(False)[0]
        elif tokens.take("y"):
            step = tokens.power(False)[0]
            if step < 0:
                raise ParseError("negative y-exponent", tokens.past())
            y_exp += step
        else:
            raise tokens.error("expected a factor")
        if not tokens.take("*"):
            return (x_exp, y_exp), num, den


def parse_dps(text: str) -> DPuiseuxPoly:
    """Parse a descending Puiseux polynomial; duplicate exponents are summed."""
    return DPuiseuxPoly._from_ratios(_signed_sum(text, _dps_term))


def parse_laurent(text: str) -> LaurentPoly:
    """Parse an element of Q[x, 1/x, y]."""
    return LaurentPoly._from_ratios(_signed_sum(text, _laurent_term))


def parse_rational(text: str) -> Fraction:
    """Parse a rational: an optional ``+`` or ``-``, then an integer or ``p/q``."""
    tokens = _Tokens(text)
    sign = tokens.sign()
    num, den = tokens.rational()
    return tokens.end(Fraction(sign * num, den))


def parse_count(text: str) -> int:
    """Parse a count: an integer with no sign."""
    tokens = _Tokens(text)
    return tokens.end(tokens.integer())


def parse_pairs(text: str) -> FormalPuiseuxPairs:
    """Parse comma-separated pairs ``q/p``, ``q`` signed and ``/1`` implied."""
    tokens = _Tokens(text)
    pairs = []
    while not pairs or tokens.take(","):
        pairs.append((tokens.sign() * tokens.integer(), tokens.integer() if tokens.take("/") else 1))
    return FormalPuiseuxPairs(tokens.end(tuple(pairs), "','"))


# ---------------------------------------------------------------------------
# canonical printers


def number_to_str(value: int | Fraction) -> str:
    """str(value) for an int or a Fraction, also past the interpreter's limit
    on the digits of str(int), sys.get_int_max_str_digits().  A longer
    integer is split by a power of ten into halves, as CPython 3.12's
    Lib/_pylong.py does, with integers only and no process-wide setting.
    Such a number is printed but not read back: the parsers refuse it."""
    try:
        return str(value)
    except ValueError:
        num, den = value.numerator, value.denominator
    if den != 1:
        return f"{number_to_str(num)}/{number_to_str(den)}"
    if num < 0:
        return "-" + number_to_str(-num)
    k = num.bit_length() * 3 // 20  # about half its digits: log10(2) is just over 3/10
    high, low = divmod(num, 10**k)
    return number_to_str(high) + number_to_str(low).zfill(k)


def _ratio_to_str(num: int, den: int) -> str:
    """number_to_str of the Fraction num/den, den positive."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return number_to_str(num) if den == 1 else f"{number_to_str(num)}/{number_to_str(den)}"


def dps_to_str(poly: DPuiseuxPoly) -> str:
    """Terms by exponent, descending, printed from the integer numerators
    over the poly's two denominators."""
    terms, eden, cden = poly._terms, poly._eden, poly._cden
    if not terms:
        return "0"
    pieces = []
    for k in sorted(terms, reverse=True):
        n = terms[k]
        magnitude = _ratio_to_str(abs(n), cden)
        if k == 0:
            body = magnitude
        else:
            exponent = _ratio_to_str(k, eden)
            power = "x" if k == eden else f"x^{exponent}" if k % eden == 0 else f"x^({exponent})"
            body = power if magnitude == "1" else f"{magnitude}*{power}"
        pieces.append((n < 0, body))
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
        coeff = _ratio_to_str(abs(n), den)
        factors = [coeff] if coeff != "1" else []
        if a != 0:
            factors.append("x^" + number_to_str(a) if a != 1 else "x")
        if b != 0:
            factors.append("y^" + number_to_str(b) if b != 1 else "y")
        pieces.append((n < 0, "*".join(factors) or "1"))
    return _join_signed(pieces)


def _join_signed(pieces: list[tuple[bool, str]]) -> str:
    text = " ".join(f"- {body}" if negative else f"+ {body}" for negative, body in pieces)
    return text[2:] if text[0] == "+" else f"-{text[2:]}"
