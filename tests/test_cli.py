"""CLI dispatch, exit codes, determinism, report round-trips."""

import json
import subprocess
import sys

import pytest

from wildcycle import cli
from wildcycle.document import (MAX_MELLIN_POWER, MAX_RAMIFICATION, MAX_RANK,
                                MAX_SERIES_ORDER, MAX_TRUNCATION)
from wildcycle.parser import MAX_CYCLOTOMIC_ORDER, MAX_EXPONENT
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

# The README's slope-one example, with the headers twist and mellin read.
DOC_README = """\
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


def test_commands_do_not_load_sympy(tmp_path):
    path = tmp_path / "readme.txt"
    path.write_text(DOC_README)
    commands = [["decompose"], ["verify"], ["nearby"], ["regularity"],
                ["ramify", "--order", "2"], ["twist"], ["mellin"]]
    script = "\n".join([
        "import contextlib, io, sys",
        "from wildcycle import cli",
        f"for argv in {commands!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        f"        code = cli.main(argv + ['--input', {str(path)!r}, '--json'])",
        "    assert code == 0, (argv, code)",
        "assert 'sympy' not in sys.modules, 'sympy was imported'",
    ])
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr


# The names ``wildcycle`` exported when it imported every module eagerly.
PACKAGE_NAMES = (
    "ComplexExponent", "Cyc", "DeligneTable", "ExpFactor", "ExpansionTerm",
    "FormalDecomposition", "InputDocument", "LPoly", "LambdaConnection",
    "LaurentMatrix", "LaurentSeries", "MellinPole", "NearbyCycleDatum",
    "NewtonPolygon", "ParamScalar", "RegularModel", "bernstein_product",
    "deligne_nearby_cycles", "ell", "exponent_from_eigenvalue",
    "formal_decompose", "is_t_irreducible", "leading_split",
    "mellin_poles", "model_orthonormal_block", "monodromy_filtration",
    "newton_polygon", "psi_beta", "ramification_transport",
    "ramify_series", "reduce_to_constant", "regularity_test", "shear",
    "star", "v0_lattice_fiber_dim", "verify_decomposition", "__version__")


def test_commands_load_only_their_modules(tmp_path):
    path = tmp_path / "readme.txt"
    path.write_text(DOC_README)
    script = "\n".join([
        "import contextlib, io, sys",
        "from wildcycle import cli",
        "stages = {'wildcycle.turrittin', 'wildcycle.regular',",
        "          'wildcycle.nearby', 'wildcycle.mellin'}",
        "def run(*argv):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        f"        code = cli.main([*argv, '--input', {str(path)!r}, '--json'])",
        "    assert code == 0, (argv, code)",
        "    return stages & set(sys.modules)",
        "assert not run('ramify', '--order', '2')",
        "assert run('decompose') == {'wildcycle.turrittin'}",
        "import wildcycle",
        f"names = {PACKAGE_NAMES!r}",
        "assert all(getattr(wildcycle, n) is not None for n in names)",
        "assert set(names) <= set(dir(wildcycle))",
        "assert set(wildcycle.__all__) == set(names) - {'__version__'}",
    ])
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr


def test_input_error_exit_one(tmp_path):
    res = run_cli(tmp_path, DOC_BAD, "decompose", "--json")
    assert res.returncode == 1
    data = json.loads(res.stdout)
    assert data["status"] == "input-error"


def run_in_process(tmp_path, capsys, doc, *args):
    path = tmp_path / "doc.txt"
    path.write_text(doc)
    code = cli.main(["decompose", "--input", str(path), "--json", *args])
    return code, json.loads(capsys.readouterr().out)


def input_error_finding(tmp_path, capsys, doc, *args):
    code, data = run_in_process(tmp_path, capsys, doc, *args)
    assert code == 1 and data["status"] == "input-error"
    return data["findings"][0]


def test_deep_nesting_is_an_input_error(tmp_path, capsys):
    entry = "(" * 3000 + "1" + ")" * 3000
    doc = f"rank: 1\nmatrix:\n{entry}\n"
    assert "nested deeper" in input_error_finding(tmp_path, capsys, doc)


def test_exponent_over_the_cap_is_an_input_error(tmp_path, capsys):
    doc = f"rank: 1\nmatrix:\nz^-{MAX_EXPONENT + 1}\n"
    assert "exceeds" in input_error_finding(tmp_path, capsys, doc)


BIG = MAX_RANK + 1
OVER_THE_CAPS = [
    pytest.param("rank: 1\nmatrix:\n" + "9" * 5000 + "\n", (), "digits",
                 id="integer-digits"),
    pytest.param("rank: 1\nmatrix:\nt^" + "9" * 5000 + "\n", (), "digits",
                 id="exponent-digits"),
    pytest.param(DOC_IRREGULAR.replace(
        "truncation: 10", f"truncation: {MAX_TRUNCATION + 1}"), (),
        f"truncation {MAX_TRUNCATION + 1} exceeds", id="truncation-header"),
    pytest.param(DOC_IRREGULAR, ("--truncation", str(MAX_TRUNCATION + 1)),
                 "truncation override", id="truncation-option"),
    # 8 * rank * pole order with pole order 9
    pytest.param("rank: 1\nmatrix:\nt^-9\n", (), "derived truncation 72",
                 id="derived-truncation"),
    pytest.param(f"rank: {BIG}\nmatrix:\n" + "\n".join(
        ", ".join("0" for _ in range(BIG)) for _ in range(BIG)) + "\n", (),
        f"rank {BIG} exceeds", id="rank"),
    pytest.param("rank: 1\nmellin_beta: x\nmatrix:\n0\n", (), "mellin_beta",
                 id="mellin-header"),
    pytest.param(f"rank: 1\nramification: {MAX_RAMIFICATION + 1}\nmatrix:\n0\n",
                 (), f"ramification {MAX_RAMIFICATION + 1} exceeds",
                 id="ramification"),
    pytest.param(DOC_IRREGULAR.replace("ramification: 1", "ramification: 2"),
                 ("--truncation", str(MAX_SERIES_ORDER // 2 + 1)),
                 f"ramification 2) exceeds {MAX_SERIES_ORDER}",
                 id="series-order"),
    pytest.param("rank: 1\nmellin_beta: 1/2\nmellin_ell: 100000\nmatrix:\n0\n",
                 (), f"mellin_ell 100000 exceeds {MAX_MELLIN_POWER}",
                 id="mellin-ell"),
    pytest.param(f"cyclotomic_order: {MAX_CYCLOTOMIC_ORDER + 1}\nrank: 1\n"
                 "truncation: 4\nmatrix:\nzeta*t^-1\n", (),
                 f"between 1 and {MAX_CYCLOTOMIC_ORDER}",
                 id="cyclotomic-order"),
    pytest.param(f"rank: 1\ntruncation: 4\nmatrix:\n"
                 f"zeta_{MAX_CYCLOTOMIC_ORDER + 1}*t^-1\n", (),
                 f"N <= {MAX_CYCLOTOMIC_ORDER}", id="zeta-order"),
]


@pytest.mark.parametrize("doc, args, words", OVER_THE_CAPS)
def test_over_the_caps_is_an_input_error(tmp_path, capsys, doc, args, words):
    assert words in input_error_finding(tmp_path, capsys, doc, *args)


def test_truncation_override_replaces_the_header(tmp_path, capsys):
    # above the header's 8, and in place of the derived truncation 72
    for doc in (DOC_REGULAR, "rank: 1\nmatrix:\nt^-9\n"):
        code, data = run_in_process(tmp_path, capsys, doc, "--truncation", "12")
        assert code == 0 and data["sections"]["input"]["truncation"] == 12
    code, data = run_in_process(tmp_path, capsys, DOC_REGULAR,
                                "--truncation", "12")
    assert data["sections"]["decomposition"]["certified_order"] == 12


def test_bound_over_the_cap_is_flagged(tmp_path, capsys):
    code, data = run_in_process(tmp_path, capsys, DOC_REGULAR,
                                "--truncation", "60")
    bound = data["sections"]["decomposition"]["required_truncation_bound"]
    assert code == 0 and bound > MAX_TRUNCATION
    assert data["findings"] == [f"required_truncation_bound: {bound} (above "
                                f"the truncation cap {MAX_TRUNCATION})"]
    code, data = run_in_process(tmp_path, capsys, DOC_REGULAR)
    assert code == 0 and data["findings"] == []


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


# -- the polygon is read off the decomposition --------------------------------

def corpus_document(name):
    """A ``build_corpus(11, trunc=6)`` case as an input document."""
    from wildcycle.corpus import build_corpus
    conn = next(c for c in build_corpus(11, trunc=6)
                if c.name == name).connection
    header = ["variables: t z",
              f"cyclotomic_order: {max(4, conn.cyclotomic_order())}",
              f"rank: {conn.rank}", f"ramification: {conn.q}",
              f"truncation: {conn.guaranteed_order // conn.q}",
              "lambda0: 1", "matrix:"]
    rows = [", ".join(row) for row in conn.action.render("t", "z")]
    return "\n".join(header + rows) + "\n"


def run_command_in_process(tmp_path, capsys, doc, command):
    path = tmp_path / "doc.txt"
    path.write_text(doc)
    code = cli.main([command, "--input", str(path), "--json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name, slopes", [
    ("irr-rank2-pole3", [["0", 1], ["3", 1]]),
    ("irr-rank5-three", [["1", 3], ["2", 2]])])
def test_decompose_and_verify_where_a_cyclic_vector_does_not_certify(
        tmp_path, capsys, name, slopes):
    # the minimal operator of a cyclic vector needs more digits than the
    # decomposition; the report's polygon is the decomposition's own
    doc = corpus_document(name)
    for command in ("decompose", "verify"):
        code, data = run_command_in_process(tmp_path, capsys, doc, command)
        assert code == 0, (command, data["findings"])
        assert data["sections"]["newton_polygon"] == {
            "slopes": slopes, "minimal_ramification": 1, "regular": False}
    assert data["sections"]["verification"]["pass"] is True


def test_decompose_and_verify_need_no_cyclic_vector_at_pole_order_zero(
        tmp_path, capsys, monkeypatch):
    from wildcycle import reduction

    def refuse(*args, **kwargs):
        raise AssertionError("a cyclic vector was computed")

    monkeypatch.setattr(reduction, "cyclic_data", refuse)
    doc = corpus_document("reg-rank3-mixed")
    for command in ("decompose", "verify"):
        code, data = run_command_in_process(tmp_path, capsys, doc, command)
        assert code == 0, (command, data["findings"])
        assert data["sections"]["newton_polygon"]["slopes"] == [["0", 3]]
