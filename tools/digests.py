"""Per-case SHA-256 digests of the engine's answers, printed as JSON.

Two checkouts that print the same JSON give the same answers on the corpus:
the formal decomposition and its verification of every case (as given, and
restricted to z = 0 and z = 1), the Deligne table at z0 in {1, 2, i}, the
unfolded table at z0 = 1, the table of the pull-back along t = t_2^2 of the
six ramification-transport cases (a connection stored at level 2, so its
table is computed on its own disc and pushed down), and the ``--json``
reports of the seven CLI commands on the README example,
the reports of decompose, verify, nearby and regularity on two more
documents (one that exits 2 with the minimal polynomial of the first
non-split factor, one declared over Q with ``cyclotomic_order: 1``), the
decompose and nearby reports of a document declared at
``cyclotomic_order: 12`` whose entries lie in Q(zeta_3), the decompose,
verify and regularity reports of the corpus case ``irr-rank2-pole3``
rendered as a document (its cyclic-vector polygon asks for more digits
than its decomposition), and
the roots and non-split factors that ``roots_in_field`` finds for a few
fixed polynomials over Q, Q(zeta_2) = Q, Q(i) and Q(zeta_12), and the
folded and unfolded tables at z0 = 1 and 2 of a module whose orbits sit
at levels 2 and 1, which sends ``regular_part`` through its projector.
The corpus is ``build_corpus(11, trunc=6)``, all 24 cases; its z-degrees
stay at most 7, so the tool also digests the README ``decompose`` and
``verify`` reports at ``--truncation 24`` and the gauge of ``ram3-two``
from ``build_corpus(11, trunc=12)``, where the z-polynomials are longer.
A call that raises is recorded as its exception type and message instead
of a digest, so an error that appears, moves or goes away shows up too.
Standard library only.

Run from the repository root:

    PYTHONPATH=src python3 tools/digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

from wildcycle import cli
from wildcycle.connection import ExpFactor, LambdaConnection
from wildcycle.corpus import _conjugate, build_corpus
from wildcycle.cyclotomic import Cyc
from wildcycle.exponents import ComplexExponent, star
from wildcycle.matrices import LaurentMatrix
from wildcycle.nearby import deligne_nearby_cycles
from wildcycle.params import LPoly
from wildcycle.roots import roots_in_field
from wildcycle.series import LaurentSeries
from wildcycle.turrittin import formal_decompose, verify_decomposition

# The README's slope-one example, with the headers the twist and mellin
# commands read.
README_DOC = """\
# slope-one example
variables: t z
cyclotomic_order: 4
rank: 2
ramification: 1
truncation: 12
lambda0: 1, 0
twist: t^-1
mellin_beta: -1/3, 1/2
mellin_ell: 2
mellin_kprime: 1
mellin_ksecond: 1
matrix:
0, 1
t^-2, 0
"""
CLI_COMMANDS = [["decompose"], ["verify"], ["nearby"], ["regularity"],
                ["ramify", "--order", "2"], ["twist"], ["mellin"]]
# Leading eigenvalues +-sqrt 5 and +-sqrt 7 stay outside every field the
# decomposition tries, so the commands exit 2 and name the first non-split
# factor: the order of the factors reaches the report.
NONSPLIT_DOC = """\
rank: 4
truncation: 8
matrix:
0, 5*t^-2, 0, 0
t^-2, 0, 0, 0
0, 0, 0, 7*t^-2
0, 0, t^-2, 0
"""
# Declared over Q; eigenvalues +-sqrt 2 * t^-1 need Q(zeta_8).
ORDER_ONE_DOC = """\
cyclotomic_order: 1
rank: 2
truncation: 8
matrix:
0, 1
2*t^-2, 0
"""
MORE_DOCS = {"nonsplit": NONSPLIT_DOC, "order-one": ORDER_ONE_DOC}
# Declared over Q(zeta_12), with every entry in Q(zeta_3) (zeta^4 = zeta_3):
# its reports print values at their conductor, whatever the header says.
ORDER_TWELVE_DOC = """\
cyclotomic_order: 12
rank: 2
truncation: 8
matrix:
zeta^4*t^-1, 1
0, (-1 - zeta^4)*t^-2 + 1/3
"""
MORE_COMMANDS = [["decompose"], ["verify"], ["nearby"], ["regularity"]]
# Polynomials over Q (low degree first) whose roots_in_field answers are
# digested at orders 1, 2, 4 and 12: Swinnerton-Dyer x^4 - 10x^2 + 1,
# Phi_8 * Phi_12, x * (x^2 + 1) and (x^2 - 5) * (x^2 - 7).
ROOT_POLYS = {"swinnerton-dyer": [1, 0, -10, 0, 1],
              "phi8-phi12": [1, 0, -1, 0, 1, 0, -1, 0, 1],
              "x-x2-plus-1": [0, 1, 0, 1],
              "sqrt5-sqrt7": [35, 0, -12, 0, 1]}
ROOT_ORDERS = (1, 2, 4, 12)
# The cases whose tables the acceptance suite compares with their ramified
# pull-backs.
TRANSPORT_CASES = ["reg-rank1-half", "reg-rank2-jordan", "reg-rank4-pairs",
                   "irr-rank1-pole1", "irr-rank2-split", "ram2-elementary"]
NEARBY_POINTS = [("1", Cyc.rational(1)), ("2", Cyc.rational(2)),
                 ("i", Cyc.imaginary_unit())]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def guarded(fn):
    """(value, None), or (None, "error: <exception type>: <message>")."""
    try:
        return fn(), None
    except Exception as exc:  # an error is an answer too
        return None, f"error: {type(exc).__name__}: {exc}"


def decomposition_view(dec) -> dict:
    return {"rel_ramification": dec.rel_ramification,
            "certified_order": dec.certified_order,
            "summands": [[s.phi.render(), s.regular.action.render()]
                         for s in dec.summands],
            "gauge": dec.gauge.render()}


def decompose_and_verify(conn, suffix: str, out: dict):
    dec, err = guarded(lambda: formal_decompose(conn))
    out["decompose" + suffix] = err or digest(decomposition_view(dec))
    if dec is not None:
        ver, err = guarded(lambda: verify_decomposition(conn, dec))
        out["verify" + suffix] = err or digest(ver)


def case_digests(case) -> dict:
    conn = case.connection
    out = {}
    decompose_and_verify(conn, "", out)
    for z in (0, 1):
        restricted, err = guarded(lambda: conn.restrict_lambda(z))
        if err:
            out[f"decompose@{z}"] = err
        else:
            decompose_and_verify(restricted, f"@{z}", out)
    for label, point in NEARBY_POINTS:
        table, err = guarded(lambda: deligne_nearby_cycles(conn, point))
        out[f"nearby@{label}"] = err or digest(table.as_json())
    table, err = guarded(lambda: deligne_nearby_cycles(conn, folded=False))
    out["nearby-unfolded@1"] = err or digest(table.as_json())
    if case.name in TRANSPORT_CASES:
        table, err = guarded(
            lambda: deligne_nearby_cycles(conn.ramify_pullback(2)))
        out["nearby-pullback2@1"] = err or digest(table.as_json())
    return out


def cli_digests(doc: str, commands, extra=()) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.wc")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc)
        for command in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(command + ["--input", path, "--json",
                                           *extra])
            out[" ".join(command)] = digest([code, buf.getvalue()])
    return out


def corpus_document(conn) -> str:
    """A corpus connection as an input document (header plus matrix)."""
    header = ["variables: t z",
              f"cyclotomic_order: {max(4, conn.cyclotomic_order())}",
              f"rank: {conn.rank}", f"ramification: {conn.q}",
              f"truncation: {conn.guaranteed_order // conn.q}",
              "lambda0: 1", "matrix:"]
    rows = [", ".join(row) for row in conn.action.render("t", "z")]
    return "\n".join(header + rows) + "\n"


def root_digests() -> dict:
    out = {}
    for name, coeffs in ROOT_POLYS.items():
        for order in ROOT_ORDERS:
            poly = LPoly([Cyc.rational(c, order) for c in coeffs])
            found, err = guarded(lambda: roots_in_field(poly, order))
            out[f"{name}@{order}"] = err or digest(
                [[[r.render(), m] for r, m in found[0]],
                 [[f.render("X"), m] for f, m in found[1]]])
    return out


def projector_digests() -> dict:
    """Tables of the pushforward of E^(t_2^-1) plus a regular rank-one
    summand, conjugated by a random gauge: the orbits sit at levels 2 and
    1, so the level-1 regular part is cut out by the projector."""
    trunc = 8
    elem = (LambdaConnection.trivial(1, 2, 2 * trunc)
            .twist_exponential(ExpFactor(2, {1: 1}), 1).pushforward())
    beta = star(ComplexExponent.of(Fraction(-1, 3), 0))
    reg = LambdaConnection(LaurentMatrix([[LaurentSeries.monomial(
        beta, 0, 1, trunc)]], 1), 1)
    conn = _conjugate(elem.direct_sum(reg), random.Random(5), trunc)
    out = {}
    for z in (1, 2):
        for folded, key in ((True, "nearby"), (False, "nearby-unfolded")):
            table, err = guarded(lambda: deligne_nearby_cycles(
                conn, Cyc.rational(z), folded=folded))
            out[f"{key}@{z}"] = err or digest(table.as_json())
    return out


def main() -> int:
    result = {"cli": cli_digests(README_DOC, CLI_COMMANDS),
              "roots": root_digests(), "projector-path": projector_digests()}
    for name, doc in MORE_DOCS.items():
        result[f"cli-{name}"] = cli_digests(doc, MORE_COMMANDS)
    result["cli-order-twelve"] = cli_digests(
        ORDER_TWELVE_DOC, [["decompose"], ["nearby"]])
    result["cli-truncation24"] = cli_digests(
        README_DOC, [["decompose"], ["verify"]], ["--truncation", "24"])
    case = next(c for c in build_corpus(11, trunc=12) if c.name == "ram3-two")
    dec, err = guarded(lambda: formal_decompose(case.connection))
    result["ram3-two-trunc12-gauge"] = err or digest(dec.gauge.render())
    for case in build_corpus(11, trunc=6):
        result[case.name] = case_digests(case)
        if case.name == "irr-rank2-pole3":
            result["cli-pole3"] = cli_digests(
                corpus_document(case.connection),
                [["decompose"], ["verify"], ["regularity"]])
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
