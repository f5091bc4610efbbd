"""The four workloads: their inputs, their operations and their checks.

Each workload is a fixed list of operations built from the seeded corpus
``build_corpus(CORPUS_SEED, trunc=TRUNC)``.  The corpus seed and truncation
are part of a workload's definition: another corpus seed draws other gauges
and changes the amount of work up to 2.3x (see README.md), so it would make
another workload.
The benchmark's ``--seed`` only fixes the order in which a pass visits the
operations (run.py).

An operation is ``Op(name, run, check)``: ``run()`` returns ``(result,
stages)`` where ``stages`` maps a stage name to its seconds, and
``check(result)`` raises ``CheckFailed`` on a wrong answer.  Operations call
the engine through module attributes at call time, so a traced run sees them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

from checks import (check_cli, check_decomposition, check_nearby,
                    expected_mellin_poles, require)

CORPUS_SEED = 11
TRUNC = 6

IRREGULAR_CASES = ["irr-rank2-split", "irr-rank3-two-poles", "irr-rank2-pole3",
                   "irr-rank5-three", "ram2-beta", "ram2-implicit", "ram3-two"]
REGULAR_CASES = ["reg-rank1-half", "reg-rank2-distinct", "reg-rank2-jordan",
                 "reg-rank3-mixed", "reg-rank2-imag", "reg-rank3-jordan3"]
FIXED_Z_CASES = ["irr-rank3-two-poles", "irr-rank4-two-blocks",
                 "irr-rank5-three", "ram2-elementary", "ram2-beta", "ram2-pole3",
                 "ram2-implicit"]
FIXED_Z_POINTS = [0, 1]

# The README's slope-one example, with the headers the twist and mellin
# commands read.  [[0, 1], [t^-2, 0]] has eigenvalues +-t^-1, so its
# exponential factors are {t^-1, -t^-1}.
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
README_COMMANDS = ["decompose", "verify", "nearby", "regularity",
                   ("ramify", "--order", "2"), "twist", "mellin"]
# Small corpus cases rendered into documents, with the commands run on them.
CLI_CASES = [("reg-rank1-half", ["nearby", "regularity"]),
             ("irr-rank1-pole2", ["decompose", "regularity"])]

Op = namedtuple("Op", "name run check")


def _corpus():
    from wildcycle.corpus import build_corpus
    return {c.name: c for c in build_corpus(CORPUS_SEED, trunc=TRUNC)}


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def _decompose_op(name, case, conn):
    from wildcycle import turrittin

    def run():
        t0 = time.perf_counter()
        dec = turrittin.formal_decompose(conn)
        t1 = time.perf_counter()
        ver = turrittin.verify_decomposition(conn, dec)
        t2 = time.perf_counter()
        return (dec, ver), {"decompose": t1 - t0, "verify": t2 - t1}

    return Op(name, run, lambda res: check_decomposition(case, conn, *res))


def build_irregular(root, tracer, out_dir):
    cases = _corpus()
    return [_decompose_op(n, cases[n], cases[n].connection)
            for n in IRREGULAR_CASES]


def build_fixed_z(root, tracer, out_dir):
    cases = _corpus()
    return [_decompose_op(f"{n}@{z}", cases[n],
                          cases[n].connection.restrict_lambda(z))
            for n in FIXED_Z_CASES for z in FIXED_Z_POINTS]


def build_regular(root, tracer, out_dir):
    from wildcycle import nearby
    cases = _corpus()
    ops = []
    for n in REGULAR_CASES:
        case = cases[n]

        def run(conn=case.connection):
            return nearby.deligne_nearby_cycles(conn), {}

        ops.append(Op(n, run, lambda table, case=case: check_nearby(case, table)))
    return ops


# ---------------------------------------------------------------------------
# the CLI workload
# ---------------------------------------------------------------------------


def render_document(conn):
    """A corpus connection as an input document (header plus matrix)."""
    q = conn.q
    header = [
        "variables: t z",
        f"cyclotomic_order: {max(4, conn.cyclotomic_order())}",
        f"rank: {conn.rank}",
        f"ramification: {q}",
        f"truncation: {conn.guaranteed_order // q}",
        "lambda0: 1",
        "matrix:",
    ]
    rows = [", ".join(row) for row in conn.action.render("t", "z")]
    return "\n".join(header + rows) + "\n"


def check_round_trip(name, text, rows):
    """The document must parse back to exactly the matrix it was made from."""
    from wildcycle.document import InputDocument
    parsed = InputDocument.parse(text).matrix_entries
    require(len(parsed) == len(rows)
            and all(len(a) == len(b) and all(x == y for x, y in zip(a, b))
                    for a, b in zip(parsed, rows)),
            f"{name}: document does not round-trip to its matrix")


def _readme_matrix():
    from wildcycle.series import LaurentSeries
    z, one = LaurentSeries.zero(1, 12), LaurentSeries.one(1, 12)
    return [[z, one], [LaurentSeries.monomial(1, -2, 1, 12), z]]


def cli_documents(doc_dir):
    """Write the documents; return [(doc name, path, commands, expect)]."""
    cases = _corpus()
    doc_dir.mkdir(parents=True, exist_ok=True)
    out = []
    check_round_trip("readme", README_DOC, _readme_matrix())
    readme_expect = {"phis": ["t^-1", "-t^-1"], "rank": 2, "regular": False,
                     "ramification": 2, "phi": "t^-1",
                     "poles": expected_mellin_poles("-1/3", "1/2", 2, 1)}
    path = doc_dir / "readme.txt"
    path.write_text(README_DOC, encoding="utf-8")
    out.append(("readme", path, README_COMMANDS, readme_expect))
    for name, commands in CLI_CASES:
        case = cases[name]
        text = render_document(case.connection)
        check_round_trip(name, text, case.connection.action.rows)
        path = doc_dir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        expect = {"phis": [p.render() for p in case.expected_phis],
                  "rank": case.rank, "regular": case.regular}
        out.append((name, path, commands, expect))
    return out


def _cli_op(root, tracer, doc_name, path, command, expect, trace_dir):
    cmd, *extra = command if isinstance(command, tuple) else (command,)
    call = {"name": f"{cmd}:{doc_name}", "command": cmd, "expect": expect}
    argv = [cmd, "--input", str(path), "--json", *extra]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    trace_file = trace_dir / f"{cmd}-{doc_name}.json"
    if tracer is None:
        args = [sys.executable, "-m", "wildcycle.cli", *argv]
    else:
        args = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                str(trace_file), *argv]

    def run():
        res = subprocess.run(args, cwd=root, env=env, capture_output=True,
                             text=True, timeout=120)
        if tracer is not None:
            tracer.merge(json.loads(trace_file.read_text(encoding="utf-8")))
        return res, {}

    return Op(call["name"], run,
              lambda res: check_cli(call, res.returncode, res.stdout))


def build_cli(root, tracer, out_dir):
    ops = []
    trace_dir = out_dir / "cli-trace"
    if tracer is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    for doc_name, path, commands, expect in cli_documents(out_dir / "docs"):
        for command in commands:
            ops.append(_cli_op(root, tracer, doc_name, path, command, expect,
                               trace_dir))
    return ops



WORKLOADS = {"irregular": build_irregular, "regular": build_regular,
             "fixed-z": build_fixed_z, "cli": build_cli}
