"""CLI dispatch, exit codes, determinism, report round-trips."""

import json
import subprocess
import sys

from wildcycle import cli
from wildcycle.parser import MAX_EXPONENT
from wildcycle.report import Report

DOC_IRREGULAR = """\
variables: t z
cyclotomic_order: 4
rank: 2
ramification: 1
truncation: 10
lambda0: 1, 0
matrix:
0, 1
t^-2, 0
"""

DOC_REGULAR = """\
rank: 1
truncation: 8
lambda0: 1
matrix:
-1/2
"""

DOC_MELLIN = """\
rank: 1
truncation: 8
mellin_beta: -1/2, 1
mellin_ell: 2
matrix:
0
"""

DOC_TWIST = """\
rank: 1
truncation: 8
twist: t^-1
twist_sign: -1
matrix:
0
"""

DOC_BAD = "rank: x\nmatrix:\n0\n"

DOC_SQRT5 = """\
rank: 2
truncation: 8
matrix:
t^-2, 2*t^-2
2*t^-2, -t^-2
"""


def run_cli(tmp_path, doc, *args):
    path = tmp_path / "input.txt"
    path.write_text(doc)
    cmd = [sys.executable, "-m", "wildcycle.cli", *args, "--input", str(path)]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_decompose_exit_zero(tmp_path):
    res = run_cli(tmp_path, DOC_IRREGULAR, "decompose", "--json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    phis = sorted(s["phi"] for s in
                  data["sections"]["decomposition"]["summands"])
    assert phis == ["-t^-1", "t^-1"]


def test_reports_byte_deterministic(tmp_path):
    first = run_cli(tmp_path, DOC_IRREGULAR, "nearby", "--json")
    second = run_cli(tmp_path, DOC_IRREGULAR, "nearby", "--json")
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_report_round_trip(tmp_path):
    res = run_cli(tmp_path, DOC_REGULAR, "regularity", "--json")
    report = Report.from_json_text(res.stdout)
    assert report.to_json_text() == res.stdout


def test_regularity_command(tmp_path):
    res = run_cli(tmp_path, DOC_REGULAR, "regularity", "--json")
    data = json.loads(res.stdout)
    verdicts = data["sections"]["regularity"]
    assert verdicts["regular"] is True and verdicts["agree"] is True


def test_nearby_rank_one_regular(tmp_path):
    res = run_cli(tmp_path, DOC_REGULAR, "nearby", "--json")
    data = json.loads(res.stdout)
    table = data["sections"]["nearby_cycles"]
    assert table["total_dim"] == 1
    assert table["entries"][0]["phi"] == "0"
    assert table["entries"][0]["rows"][0]["beta"] == "-1/2"


def test_mellin_command(tmp_path):
    res = run_cli(tmp_path, DOC_MELLIN, "mellin", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    poles = data["sections"]["mellin"]["poles"]
    assert len(poles) == 1 and poles[0]["order"] == 3


def test_twist_and_ramify_commands(tmp_path):
    res = run_cli(tmp_path, DOC_TWIST, "twist", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["sections"]["twist"]["matrix"] == [["t^-1"]]
    res2 = run_cli(tmp_path, DOC_REGULAR, "ramify", "--order", "3", "--json")
    data2 = json.loads(res2.stdout)
    assert data2["sections"]["ramify"]["ramification"] == 3
    assert data2["sections"]["ramify"]["matrix"] == [["-3/2"]]


def test_verify_command(tmp_path):
    res = run_cli(tmp_path, DOC_IRREGULAR, "verify", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["sections"]["verification"]["pass"] is True


def test_input_error_exit_one(tmp_path):
    res = run_cli(tmp_path, DOC_BAD, "decompose", "--json")
    assert res.returncode == 1
    data = json.loads(res.stdout)
    assert data["status"] == "input-error"


def test_deep_nesting_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    entry = "(" * 3000 + "1" + ")" * 3000
    path.write_text(f"rank: 1\nmatrix:\n{entry}\n")
    assert cli.main(["decompose", "--input", str(path), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "input-error"
    assert "nested deeper" in data["findings"][0]


def test_exponent_over_the_cap_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "power.txt"
    path.write_text(f"rank: 1\nmatrix:\nz^-{MAX_EXPONENT + 1}\n")
    assert cli.main(["decompose", "--input", str(path), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "input-error"
    assert "exceeds" in data["findings"][0]


def test_unsupported_exit_two(tmp_path):
    res = run_cli(tmp_path, DOC_SQRT5, "decompose", "--json")
    assert res.returncode == 2
    data = json.loads(res.stdout)
    assert data["status"] == "unsupported"
    assert any("minimal polynomial" in f for f in data["findings"])


def test_output_files(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text(DOC_REGULAR)
    out = tmp_path / "report.txt"
    cmd = [sys.executable, "-m", "wildcycle.cli", "regularity",
           "--input", str(path), "--output", str(out)]
    res = subprocess.run(cmd, capture_output=True, text=True)
    assert res.returncode == 0
    assert out.exists() and (tmp_path / "report.txt.json").exists()
    data = json.loads((tmp_path / "report.txt.json").read_text())
    assert data["command"] == "regularity"


def test_truncation_override(tmp_path):
    res = run_cli(tmp_path, DOC_REGULAR, "decompose", "--json",
                  "--truncation", "5")
    data = json.loads(res.stdout)
    assert data["sections"]["decomposition"]["certified_order"] == 5
