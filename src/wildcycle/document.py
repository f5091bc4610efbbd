"""The self-describing input document: key-value header plus matrix block.

Example::

    # comment
    variables: t z
    cyclotomic_order: 4
    rank: 2
    ramification: 1
    truncation: 16
    lambda0: 1, i
    matrix:
    0, 1
    t^-2, 0

Optional headers: ``twist`` (an exponential factor expression, polar part
only), ``twist_sign``, ``order`` (ramification order for the ramify
command), and ``mellin_*`` keys describing one expansion term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .connection import ExpFactor, LambdaConnection
from .cyclotomic import Cyc
from .errors import ParseError
from .matrices import LaurentMatrix
from .parser import MAX_CYCLOTOMIC_ORDER, parse_expression
from .series import LaurentSeries


# Largest rank and truncation a document may declare.  The work grows
# steeply with both: on a 2-vCPU host CLI decompose of the README 2x2
# example takes 0.2, 0.3 and 0.45 s at truncation 24, 48 and 64, and of a
# bidiagonal example with poles of order 2 at truncation 12 takes
# 6.4, 24 and 68 s at rank 8, 12 and 16.  A truncation derived from the
# matrix is held to the same cap.
MAX_RANK = 12
MAX_TRUNCATION = 64
# The series order, truncation * ramification, is capped too: on the same
# host CLI verify of the README example takes 0.8 s at order 64 (64 x 1)
# and 1.3-2.1 s at 96 (24 x 4, 48 x 2), and through the API 2.4 s at 128
# (64 x 2).
MAX_RAMIFICATION = 4
MAX_SERIES_ORDER = 96
# Largest mellin_ell, mellin_kprime and mellin_ksecond.  The model block
# raises z to the power ell one product at a time, and CLI mellin takes
# 0.25, 0.35 and 1.2 s at ell 500, 1,000 and 2,000.
MAX_MELLIN_POWER = 1000


@dataclass
class InputDocument:
    tvar: str = "t"
    lvar: str = "z"
    cyclotomic_order: int = 4
    rank: int = 1
    ramification: int = 1
    truncation: int = 0       # 0: derive 8 * rank * max(1, pole)
    matrix_entries: list = field(default_factory=list)  # parsed LaurentSeries
    lambda0_points: list = field(default_factory=list)  # Cyc values
    twist: object = None                                # ExpFactor or None
    twist_sign: int = 1
    order: int = 2
    mellin: dict = field(default_factory=dict)

    # -- parsing ----------------------------------------------------------
    @classmethod
    def parse(cls, text: str, truncation=None) -> "InputDocument":
        """Parse a document; a given ``truncation`` replaces its own."""
        doc = cls()
        headers = {}
        matrix_lines = []
        in_matrix = False
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if in_matrix:
                matrix_lines.append((lineno, line))
                continue
            if ":" not in line:
                raise ParseError("expected 'key: value'", lineno, 1,
                                 expected=["header line", "matrix:"])
            key, _, value = line.partition(":")
            key = key.strip().lower()
            if key == "matrix":
                in_matrix = True
                continue
            headers[key] = (lineno, value.strip())
        doc._apply_headers(headers)
        if truncation is not None:
            if not 1 <= truncation <= MAX_TRUNCATION:
                raise ParseError("truncation override must be between 1 and "
                                 f"{MAX_TRUNCATION}")
            doc.truncation = truncation
        doc._parse_matrix(matrix_lines)
        doc._parse_extras(headers)
        return doc

    def _apply_headers(self, headers):
        if "variables" in headers:
            parts = headers["variables"][1].replace(",", " ").split()
            if len(parts) != 2:
                raise ParseError("variables needs two names",
                                 headers["variables"][0], 1)
            self.tvar, self.lvar = parts
        for key, attr in (("cyclotomic_order", "cyclotomic_order"),
                          ("rank", "rank"), ("ramification", "ramification"),
                          ("truncation", "truncation"), ("order", "order")):
            if key in headers:
                lineno, value = headers[key]
                try:
                    setattr(self, attr, int(value))
                except ValueError as exc:
                    raise ParseError(f"{key} must be an integer", lineno, 1) \
                        from exc
        if self.rank < 1 or self.ramification < 1 or self.truncation < 0:
            raise ParseError("rank, ramification and truncation are positive",
                             1, 1)
        if self.rank > MAX_RANK:
            raise ParseError(f"rank {self.rank} exceeds {MAX_RANK}",
                             headers["rank"][0], 1,
                             expected=[f"rank of at most {MAX_RANK}"])
        if self.truncation > MAX_TRUNCATION:
            raise ParseError(
                f"truncation {self.truncation} exceeds {MAX_TRUNCATION}",
                headers["truncation"][0], 1,
                expected=[f"truncation of at most {MAX_TRUNCATION}"])
        if self.ramification > MAX_RAMIFICATION:
            raise ParseError(
                f"ramification {self.ramification} exceeds {MAX_RAMIFICATION}",
                headers["ramification"][0], 1,
                expected=[f"ramification of at most {MAX_RAMIFICATION}"])
        if not 1 <= self.cyclotomic_order <= MAX_CYCLOTOMIC_ORDER:
            raise ParseError(
                f"cyclotomic_order {self.cyclotomic_order} is not between 1 "
                f"and {MAX_CYCLOTOMIC_ORDER}", headers["cyclotomic_order"][0], 1,
                expected=[f"cyclotomic_order of at most {MAX_CYCLOTOMIC_ORDER}"])
        if "lambda0" in headers:
            lineno, value = headers["lambda0"][0], headers["lambda0"][1]
            self.lambda0_points = [self._scalar(v.strip(), lineno)
                                   for v in value.split(",") if v.strip()]
        if not self.lambda0_points:
            self.lambda0_points = [Cyc.rational(1)]

    def _scalar(self, text: str, lineno: int) -> Cyc:
        series = parse_expression(text, q=1,
                                  cyclotomic_order=self.cyclotomic_order,
                                  tvar=self.tvar, lvar=self.lvar)
        if series.support() not in ([], [0]):
            raise ParseError("expected a scalar (no series variable)",
                             lineno, 1)
        coeff = series.coeff(0) if series.support() else None
        if coeff is None:
            return Cyc.rational(0)
        if not coeff.is_constant():
            raise ParseError("expected a parameter-free scalar", lineno, 1)
        return coeff.as_cyc()

    def _parse_matrix(self, matrix_lines):
        if len(matrix_lines) != self.rank:
            raise ParseError(
                f"matrix needs {self.rank} rows, found {len(matrix_lines)}",
                matrix_lines[0][0] if matrix_lines else 1, 1)
        rows = []
        for lineno, line in matrix_lines:
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != self.rank:
                raise ParseError(
                    f"row needs {self.rank} entries, found {len(cells)}",
                    lineno, 1)
            row = []
            for cell in cells:
                row.append(parse_expression(
                    cell, q=self.ramification,
                    cyclotomic_order=self.cyclotomic_order,
                    tvar=self.tvar, lvar=self.lvar))
            rows.append(row)
        if self.truncation == 0:
            pole = 0
            for row in rows:
                for x in row:
                    v = x.valuation()
                    if v is not None and v < -pole:
                        pole = -v
            derived = 8 * self.rank * max(1, pole)
            if derived > MAX_TRUNCATION:
                raise ParseError(
                    f"derived truncation {derived} (8 * rank * pole order) "
                    f"exceeds {MAX_TRUNCATION}", matrix_lines[0][0], 1,
                    expected=[f"truncation header of at most {MAX_TRUNCATION}"])
            self.truncation = derived
        order = self.truncation * self.ramification
        if order > MAX_SERIES_ORDER:
            raise ParseError(
                f"series order {order} (truncation {self.truncation} * "
                f"ramification {self.ramification}) exceeds {MAX_SERIES_ORDER}",
                matrix_lines[0][0], 1, expected=[
                    f"truncation * ramification of at most {MAX_SERIES_ORDER}"])
        self.matrix_entries = [
            [x.truncate(order) for x in row]
            for row in rows]

    def _parse_extras(self, headers):
        if "twist_sign" in headers:
            val = headers["twist_sign"][1]
            if val not in ("1", "+1", "-1"):
                raise ParseError("twist_sign is +1 or -1",
                                 headers["twist_sign"][0], 1)
            self.twist_sign = 1 if val in ("1", "+1") else -1
        if "twist" in headers:
            lineno, value = headers["twist"]
            series = parse_expression(value, q=self.ramification,
                                      cyclotomic_order=self.cyclotomic_order,
                                      tvar=self.tvar, lvar=self.lvar)
            self.twist = _series_to_factor(series, lineno)
        mell = {}
        for key in ("mellin_beta", "mellin_ell", "mellin_kprime",
                    "mellin_ksecond", "mellin_phi"):
            if key in headers:
                mell[key] = headers[key]
        if mell:
            self.mellin = self._parse_mellin(mell)

    def _parse_mellin(self, raw):
        out = {"ell": 0, "kprime": 0, "ksecond": 0, "phi": None,
               "beta": (Fraction(0), Fraction(0))}
        if "mellin_beta" in raw:
            lineno, value = raw["mellin_beta"]
            parts = [p.strip() for p in value.split(",")]
            if len(parts) not in (1, 2):
                raise ParseError("mellin_beta is 're' or 're, im'", lineno, 1)
            try:
                re = Fraction(parts[0])
                im = Fraction(parts[1]) if len(parts) == 2 else Fraction(0)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError("mellin_beta parts are rationals", lineno,
                                 1) from exc
            out["beta"] = (re, im)
        for key, name in (("mellin_ell", "ell"), ("mellin_kprime", "kprime"),
                          ("mellin_ksecond", "ksecond")):
            if key in raw:
                lineno, value = raw[key]
                try:
                    out[name] = int(value)
                except ValueError as exc:
                    raise ParseError(f"{key} must be an integer", lineno,
                                     1) from exc
                if out[name] > MAX_MELLIN_POWER:
                    raise ParseError(
                        f"{key} {out[name]} exceeds {MAX_MELLIN_POWER}",
                        lineno, 1,
                        expected=[f"{key} of at most {MAX_MELLIN_POWER}"])
        if "mellin_phi" in raw:
            lineno, value = raw["mellin_phi"]
            series = parse_expression(value, q=self.ramification,
                                      cyclotomic_order=self.cyclotomic_order,
                                      tvar=self.tvar, lvar=self.lvar)
            out["phi"] = _series_to_factor(series, lineno)
        return out

    # -- construction -----------------------------------------------------
    def connection(self) -> LambdaConnection:
        q = self.ramification
        matrix = LaurentMatrix(self.matrix_entries, q)
        return LambdaConnection(matrix, q)

    # -- rendering ----------------------------------------------------------
    def render(self) -> str:
        lines = [
            f"variables: {self.tvar} {self.lvar}",
            f"cyclotomic_order: {self.cyclotomic_order}",
            f"rank: {self.rank}",
            f"ramification: {self.ramification}",
            f"truncation: {self.truncation}",
            "lambda0: " + ", ".join(p.render() for p in self.lambda0_points),
        ]
        if self.twist is not None:
            lines.append("twist: " + ExpFactor(1, self.twist.coeffs)
                         .render(self.tvar))
            if self.twist_sign != 1:
                lines.append("twist_sign: -1")
        if self.order != 2:
            lines.append(f"order: {self.order}")
        if self.mellin:
            re, im = self.mellin["beta"]
            lines.append(f"mellin_beta: {re}, {im}")
            lines.append(f"mellin_ell: {self.mellin['ell']}")
            if self.mellin["kprime"]:
                lines.append(f"mellin_kprime: {self.mellin['kprime']}")
            if self.mellin["ksecond"]:
                lines.append(f"mellin_ksecond: {self.mellin['ksecond']}")
            if self.mellin["phi"] is not None:
                lines.append("mellin_phi: " + ExpFactor(
                    1, self.mellin["phi"].coeffs).render(self.tvar))
        lines.append("matrix:")
        for row in self.matrix_entries:
            lines.append(", ".join(x.render(self.tvar, self.lvar) for x in row))
        return "\n".join(lines) + "\n"


def _series_to_factor(series: LaurentSeries, lineno: int) -> ExpFactor:
    coeffs = {}
    for n in series.support():
        if n >= 0:
            raise ParseError("exponential factors have only polar terms",
                             lineno, 1)
        c = series.coeff(n)
        if not c.is_constant():
            raise ParseError("exponential factor coefficients are constants",
                             lineno, 1)
        coeffs[-n] = c.as_cyc()
    return ExpFactor(series.q, coeffs)

