"""Each correctness check accepts the right answer and rejects a wrong one."""

import copy
import dataclasses
import json

import pytest

from checks import (CheckFailed, check_cli, check_decomposition, check_nearby,
                    expected_regular_rows, REGULAR_MODELS)
from workloads import README_DOC, _corpus, check_round_trip, render_document
from wildcycle.cli import run_command
from wildcycle.connection import ExpFactor
from wildcycle.document import InputDocument
from wildcycle.nearby import deligne_nearby_cycles
from wildcycle.turrittin import formal_decompose, verify_decomposition


@pytest.fixture(scope="module")
def cases():
    return _corpus()


def test_decomposition_check_rejects_a_perturbed_phi_multiset(cases):
    case = cases["irr-rank2-split"]
    conn = case.connection
    dec = formal_decompose(conn)
    ver = verify_decomposition(conn, dec)
    check_decomposition(case, conn, dec, ver)

    first = dec.summands[0]
    moved = dataclasses.replace(first, phi=first.phi + ExpFactor.monomial(1, 2))
    wrong = dataclasses.replace(dec, summands=[moved] + dec.summands[1:])
    with pytest.raises(CheckFailed, match="phi multiset"):
        check_decomposition(case, conn, wrong, ver)
    with pytest.raises(CheckFailed, match="rel_ramification"):
        check_decomposition(case, conn,
                            dataclasses.replace(dec, rel_ramification=2), ver)
    with pytest.raises(CheckFailed, match="off-diagonal"):
        check_decomposition(case, conn, dec,
                            dict(ver, off_diagonal_residual_valuation=3))


def test_restated_models_give_the_expected_jordan_types():
    assert expected_regular_rows(*REGULAR_MODELS["reg-rank3-jordan3"]) == \
        [((-0.5, 0), 3, (3,))]
    rows = expected_regular_rows(*REGULAR_MODELS["reg-rank4-pairs"])
    assert [(dim, jt) for _, dim, jt in rows] == [(2, (2,)), (2, (2,))]
    rows = expected_regular_rows(*REGULAR_MODELS["reg-rank2-distinct"])
    assert [(dim, jt) for _, dim, jt in rows] == [(1, (1,)), (1, (1,))]


def test_nearby_check_rejects_a_wrong_jordan_type(cases):
    case = cases["reg-rank2-jordan"]
    table = deligne_nearby_cycles(case.connection)
    check_nearby(case, table)

    wrong = copy.deepcopy(table)
    row = wrong.entries[0].rows[0]
    assert row.jordan_type() == (2,)
    row.primitive_dims = {0: 2}          # two blocks of size one
    with pytest.raises(CheckFailed, match="rows"):
        check_nearby(case, wrong)


def _report(command):
    return run_command(command, InputDocument.parse(README_DOC)).to_json_text()


def test_cli_check_rejects_a_wrong_exit_code():
    call = {"name": "nearby:readme", "command": "nearby",
            "expect": {"rank": 2}}
    stdout = _report("nearby")
    check_cli(call, 0, stdout)
    with pytest.raises(CheckFailed, match="exit code 3"):
        check_cli(call, 3, stdout)


def test_cli_check_rejects_a_mellin_pole_moved_by_one(tmp_path):
    from workloads import cli_documents
    docs = {name: expect for name, _, _, expect in cli_documents(tmp_path)}
    call = {"name": "mellin:readme", "command": "mellin",
            "expect": docs["readme"]}
    stdout = _report("mellin")
    check_cli(call, 0, stdout)

    report = json.loads(stdout)
    pole = report["sections"]["mellin"]["poles"][0]
    pole["shift"] += 1
    pole["location"] = pole["location"].replace(" - 1", " - 2")
    with pytest.raises(CheckFailed, match="poles"):
        check_cli(call, 0, json.dumps(report))


def test_documents_round_trip_and_a_changed_one_does_not(cases):
    conn = cases["irr-rank1-pole2"].connection
    text = render_document(conn)
    check_round_trip("irr-rank1-pole2", text, conn.action.rows)
    changed = text.rstrip("\n") + " + 1\n"   # rank 1: shift the one entry
    with pytest.raises(CheckFailed, match="round-trip"):
        check_round_trip("irr-rank1-pole2", changed, conn.action.rows)
