"""Recursive-descent parser for the matrix-entry expression grammar.

Grammar (whitespace insensitive)::

    expr     := term (('+' | '-') term)*
    term     := signed (('*' | '/') signed)*
    signed   := ('-' | '+')* power
    power    := atom ('^' exponent)?
    atom     := INTEGER | 'i' | 'zeta' | 'zeta_' DIGITS | TVAR | LVAR
              | '(' expr ')'
    exponent := INTEGER | '(' '-'? INTEGER ('/' INTEGER)? ')'

Values are exact Laurent polynomials in the series variable with
coefficients polynomial (or rational, via '/') in the parameter.  Division
is allowed when the divisor is free of the series variable; a fractional
power raises :class:`UnsupportedExponent` (declare ramification in the
document header instead).  ``zeta`` is the primitive root of the declared
cyclotomic order, ``zeta_N`` the primitive N-th root, as reports print it.
Parentheses nest at most ``MAX_NESTING`` deep, an exponent is at most
``MAX_EXPONENT`` in absolute value, an integer literal has at most
``MAX_DIGITS`` digits, and N is at most ``MAX_CYCLOTOMIC_ORDER``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyc
from .errors import ParseError, UnsupportedExponent
from .params import ParamScalar
from .series import LaurentSeries


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


_SYMBOLS = "+-*/^()"
# ASCII only: str.isdigit() also accepts characters such as '²' that int()
# rejects.
_DIGITS = "0123456789"

# Deepest parenthesis nesting accepted.  Each level costs five frames of
# recursion, so this stays far below the interpreter's default limit.
MAX_NESTING = 100

# Largest absolute exponent accepted.  A power costs one multiplication per
# unit of exponent, so this bounds the work a one-line document can ask for:
# (1+t+z)^32 parses in about 0.4 s on a 2-vCPU host.
MAX_EXPONENT = 32

# Most digits an integer literal may have.  This keeps every literal under
# the interpreter's 4,300-digit limit for int(); the README example with
# 1,000-digit coefficients decomposes in about 2 s on a 2-vCPU host.
MAX_DIGITS = 1000

# Largest cyclotomic order, of the document header and of N in zeta_N.  The
# work grows with the field: on a 2-vCPU host the CLI commands on the rank-1
# document ``zeta*t^-1`` at truncation 4 take at most 0.6 s at orders up to
# 420 except regularity, which takes up to 1.6 s (order 398), and 3.8 s at
# order 770; decompose takes 2.6 s at order 1190.
MAX_CYCLOTOMIC_ORDER = 420


def _tokenize(src: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(
                    f"integer literal of {j - i} digits exceeds {MAX_DIGITS} "
                    "digits", line, col,
                    expected=[f"integer of at most {MAX_DIGITS} digits"])
            tokens.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col,
                         expected=["digit", "name", "operator"])
    tokens.append(_Token("end", "", line, col))
    return tokens


class ExpressionParser:
    """Parses one expression into an exact Laurent polynomial."""

    def __init__(self, q: int = 1, cyclotomic_order: int = 1,
                 tvar: str = "t", lvar: str = "z"):
        self.q = q
        self.order = max(1, cyclotomic_order)
        self.tvar = tvar
        self.lvar = lvar

    # -- token plumbing -------------------------------------------------
    def parse(self, src: str) -> LaurentSeries:
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
        value = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.line,
                             tok.column, expected=["end of expression"])
        return value

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind, expected):
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(f"expected {expected}, found {tok.text!r}",
                             tok.line, tok.column, expected=[expected])
        return tok

    # -- grammar ---------------------------------------------------------
    def _expr(self) -> LaurentSeries:
        value = self._term()
        while self._peek().kind in "+-":
            op = self._next()
            rhs = self._term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def _term(self) -> LaurentSeries:
        value = self._signed()
        while self._peek().kind in "*/":
            op = self._next()
            rhs = self._signed()
            if op.kind == "*":
                value = value * rhs
            else:
                value = self._divide(value, rhs, op)
        return value

    def _divide(self, num: LaurentSeries, den: LaurentSeries, op: _Token):
        if den.is_zero_to_order():
            raise ParseError("division by zero", op.line, op.column,
                             expected=["nonzero divisor"])
        if den.support() not in ([0], []):
            raise ParseError(
                "division by an expression involving the series variable",
                op.line, op.column, expected=["series-free divisor"])
        scalar = den.coeff(0)
        return num * scalar.inverse()

    def _signed(self) -> LaurentSeries:
        sign = 1
        while self._peek().kind in "+-":
            if self._next().kind == "-":
                sign = -sign
        value = self._power()
        return value if sign > 0 else -value

    def _power(self) -> LaurentSeries:
        base_tok = self._peek()
        value = self._atom()
        if self._peek().kind == "^":
            self._next()
            exp_tok = self._peek()
            exponent = self._exponent()
            if abs(exponent) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} exceeds {MAX_EXPONENT} in absolute "
                    "value", exp_tok.line, exp_tok.column,
                    expected=[f"exponent of at most {MAX_EXPONENT}"])
            value = self._raise(value, exponent, base_tok)
        return value

    def _raise(self, value: LaurentSeries, exponent: int, tok: _Token):
        if exponent >= 0:
            out = LaurentSeries.one(self.q)
            for _ in range(exponent):
                out = out * value
            return out
        sup = value.support()
        if len(sup) != 1:
            raise ParseError("negative power of a non-monomial", tok.line,
                             tok.column, expected=["monomial base"])
        v = sup[0]
        c = value.coeff(v)
        return LaurentSeries.monomial(c.inverse() ** (-exponent),
                                      v * exponent, self.q)

    def _exponent(self) -> int:
        tok = self._peek()
        if tok.kind == "int":
            self._next()
            return int(tok.text)
        if tok.kind == "-":
            self._next()
            num = self._expect("int", "integer exponent")
            return -int(num.text)
        if tok.kind == "(":
            self._next()
            sign = 1
            if self._peek().kind == "-":
                self._next()
                sign = -1
            num = self._expect("int", "integer exponent")
            if self._peek().kind == "/":
                slash = self._next()
                den = self._expect("int", "integer")
                if int(den.text) != 1:
                    raise UnsupportedExponent(
                        "fractional exponents are not allowed; declare the "
                        "ramification index in the document header",
                        slash.line, slash.column)
            self._expect(")", "closing parenthesis")
            return sign * int(num.text)
        raise ParseError(f"expected an exponent, found {tok.text!r}",
                         tok.line, tok.column, expected=["integer"])

    def _atom(self) -> LaurentSeries:
        tok = self._next()
        if tok.kind == "int":
            return LaurentSeries.constant(Fraction(int(tok.text)), self.q)
        if tok.kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels",
                    tok.line, tok.column, expected=["shallower nesting"])
            value = self._expr()
            self._expect(")", "closing parenthesis")
            self.depth -= 1
            return value
        if tok.kind == "name":
            if tok.text == "i":
                return LaurentSeries.constant(Cyc.imaginary_unit(), self.q)
            if tok.text == "zeta":
                if self.order < 2:
                    raise ParseError(
                        "zeta used but the document has cyclotomic_order 1",
                        tok.line, tok.column, expected=["cyclotomic_order >= 2"])
                return LaurentSeries.constant(Cyc.zeta(self.order), self.q)
            if tok.text == self.tvar:
                return LaurentSeries.monomial(1, 1, self.q)
            if tok.text == self.lvar:
                return LaurentSeries.constant(ParamScalar.lam(), self.q)
            digits = tok.text[len("zeta_"):]
            if (tok.text.startswith("zeta_") and digits
                    and all(ch in _DIGITS for ch in digits)):
                n = int(digits) if len(digits) < 10 else 0
                if not 1 <= n <= MAX_CYCLOTOMIC_ORDER:
                    raise ParseError(
                        f"zeta_N needs 1 <= N <= {MAX_CYCLOTOMIC_ORDER}",
                        tok.line, tok.column, expected=[
                            f"cyclotomic order of at most "
                            f"{MAX_CYCLOTOMIC_ORDER}"])
                return LaurentSeries.constant(Cyc.zeta(n), self.q)
            raise ParseError(f"unknown name {tok.text!r}", tok.line, tok.column,
                             expected=["i", "zeta", "zeta_N", self.tvar,
                                       self.lvar])
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column,
                         expected=["number", "name", "("])


def parse_expression(src: str, q: int = 1, cyclotomic_order: int = 1,
                     tvar: str = "t", lvar: str = "z") -> LaurentSeries:
    return ExpressionParser(q=q, cyclotomic_order=cyclotomic_order,
                            tvar=tvar, lvar=lvar).parse(src)
