"""Correctness checks against answers known apart from the engine.

Every corpus case is an elementary model conjugated by a gauge, so its
decomposition and its nearby-cycle table are known by construction.  The
checks here compare the engine's output with those answers; the regular
models are restated below rather than read back from the engine.  Each check
raises :class:`CheckFailed` with a reason, and returns nothing when the
answer is right.
"""

from __future__ import annotations

import json
from fractions import Fraction as F


class CheckFailed(Exception):
    pass


def require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# formal decomposition (irregular, fixed-z)
# ---------------------------------------------------------------------------


def same_multiset(got, want):
    """Multiset equality by ``==`` only (the scalars need not hash alike)."""
    pool = list(want)
    for g in got:
        for i, w in enumerate(pool):
            if g == w:
                pool.pop(i)
                break
        else:
            return False
    return not pool


def check_decomposition(case, conn, dec, ver):
    """phi multiset, q, certificate and rank of one decomposition."""
    require(same_multiset(dec.phi_multiset(), case.expected_phis),
            f"{case.name}: phi multiset differs from the model's")
    require(dec.rel_ramification == case.expected_rel_ramification,
            f"{case.name}: rel_ramification {dec.rel_ramification} != "
            f"{case.expected_rel_ramification}")
    require(ver["pass"] is True, f"{case.name}: verification failed")
    require(ver["off_diagonal_residual_valuation"] is None,
            f"{case.name}: off-diagonal residual "
            f"{ver['off_diagonal_residual_valuation']}")
    require(sum(s.rank for s in dec.summands) == conn.rank,
            f"{case.name}: summand ranks do not sum to {conn.rank}")


# ---------------------------------------------------------------------------
# nearby cycles of regular models (regular)
# ---------------------------------------------------------------------------

# The corpus's regular models, restated: exponents beta = (re, im) along the
# diagonal and nilpotent couplings (row, column) with coefficient 1.
REGULAR_MODELS = {
    "reg-rank1-half": ([(F(-1, 2), 0)], []),
    "reg-rank2-distinct": ([(F(-1, 2), 0), (F(-1, 3), 0)], []),
    "reg-rank2-jordan": ([(F(-1, 3), 0), (F(-1, 3), 0)], [(1, 0)]),
    "reg-rank3-mixed": ([(F(0), 0), (F(-1, 2), 0), (F(-2, 3), 1)], [(2, 1)]),
    "reg-rank3-jordan3": ([(F(-1, 2), 0)] * 3, [(1, 0), (2, 1)]),
    "reg-rank2-imag": ([(F(-2, 3), 1), (F(-1, 4), -1)], []),
    "reg-rank4-pairs": ([(F(0), 0), (F(0), 0), (F(-1, 3), 0), (F(-1, 3), 0)],
                        [(1, 0), (3, 2)]),
}


def _rank(rows):
    """Rank of a small rational matrix by elimination."""
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _jordan_type(nil):
    """Block sizes of a nilpotent matrix, largest first, from ranks of powers."""
    n = len(nil)
    ranks = [n]
    power = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    while ranks[-1]:
        power = [[sum(power[i][k] * nil[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
        ranks.append(_rank(power))
    # blocks of size >= k: ranks[k-1] - ranks[k]
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes = []
    for k in range(len(at_least), 0, -1):
        exact = at_least[k - 1] - (at_least[k] if k < len(at_least) else 0)
        sizes += [k] * exact
    return tuple(sizes)


def expected_regular_rows(exponents, couplings):
    """(beta, dim, Jordan type) of each exponent class of a regular model.

    The corpus exponents already lie in (-1, 0], so the class of beta is
    beta itself; couplings between equal exponents form the nilpotent part.
    """
    rows = []
    for beta in dict.fromkeys(exponents):
        idx = [i for i, b in enumerate(exponents) if b == beta]
        nil = [[F(int((i, j) in couplings)) for j in idx] for i in idx]
        rows.append(((F(beta[0]), F(beta[1])), len(idx), _jordan_type(nil)))
    return sorted(rows)


def table_rows(table):
    """(beta, dim, Jordan type) of every row of every entry of a table."""
    return sorted(((r.beta.beta_re, r.beta.beta_im), r.dim, r.jordan_type())
                  for e in table.entries for r in e.rows)


def check_nearby(case, table):
    exponents, couplings = REGULAR_MODELS[case.name]
    require([(b.beta_re, b.beta_im) for b in case.exponents] == exponents,
            f"{case.name}: corpus exponents differ from the restated model")
    require(table.total_dim() == case.rank,
            f"{case.name}: total_dim {table.total_dim()} != rank {case.rank}")
    require(all(e.phi.is_zero() for e in table.entries),
            f"{case.name}: a regular model has a non-zero phi")
    want = expected_regular_rows(exponents, couplings)
    got = table_rows(table)
    require(got == want, f"{case.name}: rows {got} != {want}")


# ---------------------------------------------------------------------------
# CLI reports (cli)
# ---------------------------------------------------------------------------


def parse_report(name, returncode, stdout):
    require(returncode == 0, f"{name}: exit code {returncode}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{name}: report is not JSON ({exc})") from exc
    require(report.get("status") == "ok",
            f"{name}: status {report.get('status')!r}")
    return report["sections"]


def expected_mellin_poles(beta_re, beta_im, ell, shift):
    """The closed form: one pole at s = star(-beta-1)/z - shift, order ell+1.

    star(a) = Re(a) + i*(z^2+1)*Im(a)/2, so the location's numerator is the
    parameter polynomial (Re(a) + i*Im(a)/2) + (i*Im(a)/2)*z^2.
    """
    from wildcycle.cyclotomic import Cyc
    from wildcycle.params import LPoly, ParamScalar
    a_re, a_im = -F(beta_re) - 1, -F(beta_im)
    i = Cyc.imaginary_unit()
    c0 = Cyc.rational(a_re, 4) + i * (a_im / 2)
    c2 = i * (a_im / 2)
    location = f"({ParamScalar(LPoly([c0, Cyc.zero(4), c2])).render()})/z"
    if shift:
        location += f" - {shift}"
    return [{"alpha": Cyc.gaussian(a_re, a_im).render(), "shift": shift,
             "order": ell + 1, "location": location}]


def check_cli(call, returncode, stdout):
    """Check one CLI call; ``call`` carries what the answer must be."""
    sections = parse_report(call["name"], returncode, stdout)
    cmd, want, name = call["command"], call["expect"], call["name"]
    if cmd == "decompose":
        phis = sorted(s["phi"] for s in sections["decomposition"]["summands"])
        require(phis == sorted(want["phis"]), f"{name}: phis {phis}")
    elif cmd == "verify":
        ver = sections["verification"]
        require(ver["pass"] is True
                and ver["off_diagonal_residual_valuation"] is None,
                f"{name}: verification {ver}")
    elif cmd == "nearby":
        total = sections["nearby_cycles"]["total_dim"]
        require(total == want["rank"], f"{name}: total_dim {total}")
    elif cmd == "regularity":
        reg = sections["regularity"]
        require(reg["agree"] is True and reg["regular"] is want["regular"],
                f"{name}: regularity {reg}")
    elif cmd == "ramify":
        out = sections["ramify"]
        require(out["ramification"] == want["ramification"]
                and len(out["matrix"]) == want["rank"],
                f"{name}: ramify {out['ramification']}")
    elif cmd == "twist":
        require(sections["twist"]["phi"] == want["phi"],
                f"{name}: twist phi {sections['twist']['phi']}")
    elif cmd == "mellin":
        poles = sections["mellin"]["poles"]
        require(poles == want["poles"], f"{name}: poles {poles}")
    else:
        raise CheckFailed(f"{name}: unknown command {cmd}")
