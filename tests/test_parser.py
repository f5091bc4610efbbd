"""Expression grammar, document format, and round-trips."""

import re
from fractions import Fraction

import pytest

from wildcycle.cyclotomic import Cyc
from wildcycle.document import (MAX_MELLIN_POWER, MAX_RAMIFICATION, MAX_RANK,
                                MAX_SERIES_ORDER, MAX_TRUNCATION,
                                InputDocument)
from wildcycle.errors import ParseError, UnsupportedExponent
from wildcycle.params import ParamScalar
from wildcycle.parser import (MAX_CYCLOTOMIC_ORDER, MAX_DIGITS, MAX_EXPONENT,
                              MAX_NESTING, parse_expression)


def test_basic_expression():
    s = parse_expression("3/2*t^-2 + (1+2*i) + t^3", cyclotomic_order=4)
    assert s.valuation() == -2
    assert len(s.coeffs) == 3
    assert s.coeff(-2) == ParamScalar.rational(Fraction(3, 2))
    assert s.coeff(0).as_cyc() == Cyc.gaussian(1, 2)


def test_parameter_coefficients():
    s = parse_expression("z^2*t^-1")
    assert s.coeff(-1) == ParamScalar.lam() ** 2


def test_parenthesis_nesting_is_capped():
    def nested(depth):
        return "(" * depth + "1" + ")" * depth

    value = parse_expression(nested(MAX_NESTING))
    assert value.coeff(0) == ParamScalar.rational(1)
    with pytest.raises(ParseError) as info:
        parse_expression(nested(MAX_NESTING + 1))
    assert info.value.column == MAX_NESTING + 1


def test_exponent_is_capped():
    assert parse_expression(f"t^{MAX_EXPONENT}").valuation() == MAX_EXPONENT
    assert parse_expression(f"z^-{MAX_EXPONENT}").coeff(0) == \
        ParamScalar.lam() ** -MAX_EXPONENT
    for text in (f"t^{MAX_EXPONENT + 1}", f"z^-{MAX_EXPONENT + 1}",
                 f"t^(-{MAX_EXPONENT + 1})"):
        with pytest.raises(ParseError) as info:
            parse_expression(text)
        assert info.value.column == 3


def test_fractional_power_rejected():
    with pytest.raises(UnsupportedExponent):
        parse_expression("t^(1/2)")


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + @")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(ParseError) as err2:
        parse_expression("2 *\n* 3")
    assert err2.value.line == 2


def test_zeta_requires_order():
    with pytest.raises(ParseError):
        parse_expression("zeta", cyclotomic_order=1)
    s = parse_expression("zeta^2", cyclotomic_order=8)
    assert s.coeff(0).as_cyc() == Cyc.zeta(8) ** 2


def test_zeta_with_its_order():
    # reports name the root's order; zeta_N reads it back in any document
    assert parse_expression("zeta_12^3").coeff(0).as_cyc() == Cyc.zeta(4)
    s = parse_expression("(-1 - zeta_3)*t^-1 + 2*zeta_8^3", cyclotomic_order=4)
    assert s.coeff(-1).as_cyc() == Cyc.zeta(3, 2)
    assert s.coeff(0).as_cyc() == 2 * Cyc.zeta(8, 3)
    assert s.render() == "(-1 - zeta_3)*t^-1 + 2*zeta_8^3"


def test_cyclotomic_order_is_capped():
    top = f"zeta_{MAX_CYCLOTOMIC_ORDER}"
    assert parse_expression(top).coeff(0).as_cyc() == \
        Cyc.zeta(MAX_CYCLOTOMIC_ORDER)
    for text in (f"zeta_{MAX_CYCLOTOMIC_ORDER + 1}", "zeta_0",
                 "zeta_" + "9" * 5000):
        with pytest.raises(ParseError, match=f"N <= {MAX_CYCLOTOMIC_ORDER}"):
            parse_expression(text)
    # only ASCII digits name an order: str.isalnum passes Arabic-Indic ones
    for text in ("zeta_\u0661\u0662", "zeta_", "zeta_1x"):
        with pytest.raises(ParseError, match="unknown name"):
            parse_expression(text)
    header = f"cyclotomic_order: {MAX_CYCLOTOMIC_ORDER}\nrank: 1\nmatrix:\n1\n"
    assert InputDocument.parse(header).cyclotomic_order == MAX_CYCLOTOMIC_ORDER
    over = header.replace(f": {MAX_CYCLOTOMIC_ORDER}",
                          f": {MAX_CYCLOTOMIC_ORDER + 1}")
    with pytest.raises(ParseError,
                       match=f"between 1 and {MAX_CYCLOTOMIC_ORDER}") as err:
        InputDocument.parse(over)
    assert err.value.line == 1


def test_unknown_name():
    with pytest.raises(ParseError) as err:
        parse_expression("x + 1")
    assert "x" in str(err.value)


def test_division_rules():
    s = parse_expression("t / 2")
    assert s.coeff(1) == ParamScalar.rational(Fraction(1, 2))
    s2 = parse_expression("1 / (z - 1)")
    assert s2.coeff(0) == ParamScalar.rational(1) / (ParamScalar.lam() - 1)
    with pytest.raises(ParseError):
        parse_expression("1 / t + 1/(1+t)")


def test_negative_monomial_powers():
    s = parse_expression("(2*t)^-2")
    assert s.coeff(-2) == ParamScalar.rational(Fraction(1, 4))


DOC = """\
# golden example
variables: t z
cyclotomic_order: 4
rank: 2
ramification: 1
truncation: 10
lambda0: 1, i
matrix:
3/2*t^-2 + 1 + 2*i, z^2*t^-1
0, -t
"""


def test_document_parse():
    doc = InputDocument.parse(DOC)
    assert doc.rank == 2 and doc.truncation == 10
    assert doc.lambda0_points == [Cyc.rational(1), Cyc.imaginary_unit()]
    conn = doc.connection()
    assert conn.rank == 2 and conn.q == 1
    assert conn.guaranteed_order == 10


def test_document_round_trip_identity():
    doc = InputDocument.parse(DOC)
    printed = doc.render()
    doc2 = InputDocument.parse(printed)
    assert doc2.render() == printed
    for r1, r2 in zip(doc.matrix_entries, doc2.matrix_entries):
        for a, b in zip(r1, r2):
            assert a == b


def test_document_shape_errors():
    bad = DOC.replace("rank: 2", "rank: 3")
    with pytest.raises(ParseError):
        InputDocument.parse(bad)
    with pytest.raises(ParseError):
        InputDocument.parse("rank: 1\nmatrix:\nt, 1\n")
    for order in ("0", "-4"):
        with pytest.raises(ParseError):
            InputDocument.parse(DOC.replace("cyclotomic_order: 4",
                                            f"cyclotomic_order: {order}"))


def test_document_twist_header():
    text = DOC.replace("matrix:", "twist: t^-1 + 1/2*t^-2\nmatrix:")
    doc = InputDocument.parse(text)
    assert doc.twist is not None
    assert doc.twist.pole_order() == 2
    printed = doc.render()
    assert InputDocument.parse(printed).twist == doc.twist


def test_document_ramified_entries():
    text = """\
rank: 1
ramification: 2
truncation: 8
matrix:
t^-1 + t^2
"""
    doc = InputDocument.parse(text)
    conn = doc.connection()
    assert conn.q == 2
    assert conn.action.rows[0][0].valuation() == -1
    assert conn.guaranteed_order == 16


def test_integer_literals_are_capped():
    assert parse_expression("9" * MAX_DIGITS).coeff(0) == \
        ParamScalar.rational(10 ** MAX_DIGITS - 1)
    # 5,000 digits is past the interpreter's limit for int()
    for src in ("9" * 5000, "t^" + "9" * 5000, "t^(-" + "9" * 5000 + ")",
                "1 + " + "9" * (MAX_DIGITS + 1)):
        with pytest.raises(ParseError, match="digits"):
            parse_expression(src)
    with pytest.raises(ParseError, match="column 5"):
        parse_expression("1 + " + "9" * 5000)


def test_non_ascii_digits_are_rejected():
    # '²'.isdigit() holds, but int('²') raises
    for src in ("t^\u00b2", "\u00b2", "\u0663"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_expression(src)


def test_rank_and_truncation_are_capped():
    at_cap = DOC.replace("truncation: 10", f"truncation: {MAX_TRUNCATION}")
    assert InputDocument.parse(at_cap).truncation == MAX_TRUNCATION
    with pytest.raises(ParseError, match="truncation"):
        InputDocument.parse(DOC.replace("truncation: 10",
                                        f"truncation: {MAX_TRUNCATION + 1}"))
    big = MAX_RANK + 1
    rows = "\n".join(", ".join("0" for _ in range(big)) for _ in range(big))
    with pytest.raises(ParseError, match="rank"):
        InputDocument.parse(f"rank: {big}\nmatrix:\n{rows}\n")
    # a derived truncation 8 * rank * pole is held to the same cap, and an
    # explicit truncation takes its place
    over = f"rank: 1\nmatrix:\nt^-{MAX_EXPONENT}\n"
    with pytest.raises(ParseError, match="derived truncation"):
        InputDocument.parse(over)
    assert InputDocument.parse(over, truncation=10).truncation == 10
    for bad in (0, MAX_TRUNCATION + 1):
        with pytest.raises(ParseError, match="truncation override"):
            InputDocument.parse(DOC, truncation=bad)


def test_series_order_is_capped():
    # truncation and ramification are each within their own caps here, but
    # their product, the series order, is capped as well
    doc = DOC.replace("ramification: 1", "ramification: 2")
    top = MAX_SERIES_ORDER // 2
    assert top <= MAX_TRUNCATION
    at_cap = InputDocument.parse(doc.replace("truncation: 10",
                                             f"truncation: {top}"))
    assert at_cap.truncation * at_cap.ramification == MAX_SERIES_ORDER
    over = f"series order {2 * top + 2} (truncation {top + 1} * " \
        f"ramification 2) exceeds {MAX_SERIES_ORDER}"
    with pytest.raises(ParseError, match=re.escape(over)):
        InputDocument.parse(doc.replace("truncation: 10",
                                        f"truncation: {top + 1}"))
    with pytest.raises(ParseError, match=re.escape(over)):
        InputDocument.parse(doc, truncation=top + 1)
    # a derived truncation too: 8 * rank * pole order = 32 at level 4
    assert 32 <= MAX_TRUNCATION and 32 * 4 > MAX_SERIES_ORDER
    with pytest.raises(ParseError, match="series order 128"):
        InputDocument.parse("rank: 1\nramification: 4\nmatrix:\nt^-4\n")


def test_malformed_mellin_headers():
    for header in ("mellin_beta: x", "mellin_beta: 1/0", "mellin_ell: two"):
        with pytest.raises(ParseError, match="mellin"):
            InputDocument.parse(f"rank: 1\n{header}\nmatrix:\n0\n")


def test_ramification_and_mellin_integers_are_capped():
    def with_ramification(r):
        return DOC.replace("ramification: 1", f"ramification: {r}")

    at_cap = InputDocument.parse(with_ramification(MAX_RAMIFICATION))
    assert at_cap.ramification == MAX_RAMIFICATION
    over = MAX_RAMIFICATION + 1
    with pytest.raises(ParseError, match=f"ramification {over} exceeds"):
        InputDocument.parse(with_ramification(over))
    for key, name in (("mellin_ell", "ell"), ("mellin_kprime", "kprime"),
                      ("mellin_ksecond", "ksecond")):
        doc = InputDocument.parse(
            f"rank: 1\n{key}: {MAX_MELLIN_POWER}\nmatrix:\n0\n")
        assert doc.mellin[name] == MAX_MELLIN_POWER
        over = MAX_MELLIN_POWER + 1
        with pytest.raises(ParseError, match=f"{key} {over} exceeds"):
            InputDocument.parse(f"rank: 1\n{key}: {over}\nmatrix:\n0\n")
