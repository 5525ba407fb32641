import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from matguard.cli import build_parser, main
from matguard.core import MAX_ENTRIES, Stability
from matguard.io import dumps_canonical, load_matrix, matrix_to_obj, save_matrix_json
from matguard.representations import Verdict, guardian_evaluate

ROT2 = {"rows": 2, "cols": 2, "data": [[0.0, 1.0], [-1.0, 0.0]]}


@pytest.fixture
def rot2_path(tmp_path):
    path = tmp_path / "rot2.json"
    path.write_text(json.dumps(ROT2))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- compute


def test_compute_add2_golden_bytes(capsys, rot2_path):
    code, out, err = run_cli(capsys, "compute", "--map", "add2", "--input", rot2_path)
    assert code == 0
    assert out == '{"rows":1,"cols":1,"data":[[0.0]]}\n'
    assert err == ""


def test_compute_bialt_equals_add2_output(capsys, tmp_path):
    rng = np.random.default_rng(70)
    path = tmp_path / "a.json"
    save_matrix_json(rng.standard_normal((4, 4)), path)
    code1, out1, _ = run_cli(capsys, "compute", "--map", "bialt", "--input", str(path))
    code2, out2, _ = run_cli(capsys, "compute", "--map", "add2", "--input", str(path))
    assert code1 == code2 == 0
    assert out1 == out2


def test_compute_mult_and_addk(capsys, rot2_path):
    code, out, _ = run_cli(
        capsys, "compute", "--map", "mult", "--k", "2", "--input", rot2_path
    )
    assert code == 0
    assert out == '{"rows":1,"cols":1,"data":[[1.0]]}\n'  # det of the rotation
    code, out, _ = run_cli(
        capsys, "compute", "--map", "addk", "--k", "2", "--input", rot2_path
    )
    assert code == 0
    assert out == '{"rows":1,"cols":1,"data":[[0.0]]}\n'  # trace


def test_compute_schlaflian(capsys, rot2_path):
    code, out, _ = run_cli(
        capsys, "compute", "--map", "schlaflian", "--p", "2", "--input", rot2_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == obj["cols"] == 3
    assert obj["data"] == [[0.0, 2.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -2.0, 0.0]]


def test_compute_output_file_json_and_csv(capsys, rot2_path, tmp_path):
    out_json = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "compute", "--map", "kron", "--input", rot2_path,
        "--output", str(out_json),
    )
    assert code == 0 and out == ""
    m = load_matrix(out_json)
    assert m.shape == (4, 4)

    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "compute", "--map", "kron", "--input", rot2_path,
        "--output", str(out_csv),
    )
    assert code == 0
    assert np.array_equal(load_matrix(out_csv), m)


def test_compute_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(ROT2)))
    code, out, _ = run_cli(capsys, "compute", "--map", "add2", "--input", "-")
    assert code == 0
    assert out == '{"rows":1,"cols":1,"data":[[0.0]]}\n'


def test_compute_csv_input(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.0,1.0\n-1.0,0.0\n")
    code, out, _ = run_cli(capsys, "compute", "--map", "add2", "--input", str(path))
    assert code == 0
    assert out == '{"rows":1,"cols":1,"data":[[0.0]]}\n'


def test_compute_missing_file_exit_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "compute", "--map", "add2", "--input", str(tmp_path / "nope.json")
    )
    assert code == 1
    assert err != ""


@pytest.mark.parametrize("argv, document", [
    (("guardian", "--map", "add2", "--input"), {"rows": True, "cols": 1, "data": [[1.0]]}),
    (("sweep", "--map", "add2", "--min", "-1", "--max", "1", "--samples", "5", "--family"),
     {"n": 2.0, "base": ROT2, "dir1": ROT2, "dir2": None}),
], ids=["matrix-rows-bool", "family-n-float"])
def test_non_integer_dimension_exit_1(capsys, tmp_path, argv, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == "" and "integer" in err


def test_compute_bad_json_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "compute", "--map", "add2", "--input", str(path))
    assert code == 1 and err


@pytest.mark.parametrize("argv", [
    ("guardian", "--map", "add2", "--input", "bad.json"),
    ("guardian", "--map", "add2", "--input", "bad.csv"),
    ("sweep", "--map", "add2", "--min", "-1", "--max", "1", "--samples", "5",
     "--family", "bad.json"),
], ids=["guardian-json", "guardian-csv", "sweep-family"])
def test_non_utf8_input_exit_1(capsys, tmp_path, argv):
    path = tmp_path / argv[-1]
    path.write_bytes(b"\xff1.0,2.0\n")
    code, out, err = run_cli(capsys, *argv[:-1], str(path))
    assert code == 1 and out == "" and "UTF-8" in err


def test_compute_parameter_violations_exit_2(capsys, rot2_path):
    # addk needs --k
    code, _, err = run_cli(capsys, "compute", "--map", "addk", "--input", rot2_path)
    assert code == 2 and "--k" in err
    # extraneous --p
    code, _, err = run_cli(
        capsys, "compute", "--map", "add2", "--p", "2", "--input", rot2_path
    )
    assert code == 2
    # k exceeds the dimension
    code, _, err = run_cli(
        capsys, "compute", "--map", "mult", "--k", "3", "--input", rot2_path
    )
    assert code == 2


def test_compute_dimension_violation_exit_2(capsys, tmp_path):
    path = tmp_path / "rect.json"
    save_matrix_json(np.zeros((2, 3)), path)
    code, _, err = run_cli(capsys, "compute", "--map", "add2", "--input", str(path))
    assert code == 2 and err


@pytest.mark.parametrize("argv", [("kron",), ("add2",), ("bialt",), ("addk", "--k", "2"),
                                  ("mult", "--k", "2"), ("schlaflian", "--p", "2")],
                         ids=lambda argv: argv[0])
def test_compute_overflow_refuses_the_derived_matrix_without_warning(capsys, tmp_path, argv):
    # -1e308 I2 is a finite input; its rho entries -2e308 (1e616 for minors) are not
    path = tmp_path / "huge.json"
    save_matrix_json(-1e308 * np.eye(2), path)
    code, out, err = run_cli(capsys, "compute", "--map", *argv, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"matguard: the derived {argv[0]} matrix contains non-finite entries\n"


@pytest.mark.parametrize("kind", ["kron", "add2", "bialt", "schlaflian"])
@pytest.mark.parametrize("command", ["compute", "guardian"])
def test_size_guard_n33_exit_2(capsys, tmp_path, command, kind):
    path = tmp_path / "big.json"
    save_matrix_json(-np.eye(33), path)
    degree = ("--p", "2") if (command, kind) == ("compute", "schlaflian") else ()
    code, out, err = run_cli(capsys, command, "--map", kind, *degree, "--input", str(path))
    assert code == 2
    assert out == ""
    assert "n <= 32" in err


def test_schlaflian_table_guard_exit_2(capsys, rot2_path):
    code, out, err = run_cli(
        capsys, "compute", "--map", "schlaflian", "--p", "4999", "--input", rot2_path
    )
    assert code == 2
    assert out == ""
    assert "entry guard" in err


def test_table_guard_message_states_the_count_not_an_output(capsys, rot2_path):
    # The refused 5000 x 9998 count is of index-table terms; no output of
    # that size would exist.
    code, _, err = run_cli(
        capsys, "compute", "--map", "schlaflian", "--p", "4999", "--input", rot2_path
    )
    assert code == 2
    assert "5000x9998 = 49990000 entries" in err
    assert "output" not in err


def test_unknown_choice_is_usage_error(rot2_path):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--map", "wat", "--input", rot2_path])
    assert exc.value.code == 2


# --------------------------------------------------------------- guardian


def test_guardian_stable_exit_0(capsys, tmp_path):
    path = tmp_path / "neg.json"
    save_matrix_json(-np.eye(3), path)
    code, out, _ = run_cli(capsys, "guardian", "--map", "kron", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "NonzeroStable"
    assert obj["oracle"] == "stable"


@pytest.mark.parametrize("kind", ["kron", "add2", "schlaflian", "bialt"])
def test_guardian_extreme_scale_is_stable_without_warning(capsys, tmp_path, kind):
    # at -1e308 I2 every rho entry a_ii + a_jj overflows unless A is scaled first
    for a in (-1e200 * np.eye(3), -1e308 * np.eye(2)):
        path = tmp_path / "huge.json"
        save_matrix_json(a, path)
        code, out, err = run_cli(capsys, "guardian", "--map", kind, "--input", str(path))
        assert code == 0, a[0, 0]
        assert json.loads(out)["verdict"] == "NonzeroStable"
        assert err == ""


@pytest.mark.parametrize("kind", ["kron", "schlaflian", "add2", "bialt"])
def test_guardian_1x1_per_kind(capsys, tmp_path, kind):
    # Lambda^2 R^1 = 0: kron and schlaflian read g = det(2A) = -6, add2 and bialt refuse
    path = tmp_path / "one.json"
    save_matrix_json(np.array([[-3.0]]), path)
    code, out, err = run_cli(capsys, "guardian", "--map", kind, "--input", str(path))
    if kind in ("add2", "bialt"):
        assert (code, out, err) == (2, "", "matguard: need 1 <= k <= 1, got k=2\n")
        return
    assert (code, err) == (0, "")
    assert out == (f'{{"kind":"{kind}","g_sign":-1,"g_logmag":1.791759469228055,'
                   '"det_a_sign":-1,"f_sign":1,"verdict":"NonzeroStable","oracle":"stable"}\n')


def test_guardian_boundary_exit_3(capsys, rot2_path):
    code, out, _ = run_cli(capsys, "guardian", "--map", "add2", "--input", rot2_path)
    assert code == 3
    obj = json.loads(out)
    assert obj["f_sign"] == 0
    assert obj["g_logmag"] is None  # -inf serialized as null


def test_guardian_unstable_exit_4(capsys, tmp_path):
    path = tmp_path / "u.json"
    save_matrix_json(np.diag([1.0, -2.0]), path)
    code, out, _ = run_cli(capsys, "guardian", "--map", "add2", "--input", str(path))
    assert code == 4
    assert json.loads(out)["verdict"] == "NonzeroUnstable"


def test_guardian_mirror_pair_exit_4(capsys, tmp_path):
    # f = 0 although unstable (eigenvalues 1 and -1): the oracle breaks
    # the tie away from "boundary".
    path = tmp_path / "m.json"
    save_matrix_json(np.diag([1.0, -1.0]), path)
    code, out, _ = run_cli(capsys, "guardian", "--map", "add2", "--input", str(path))
    assert code == 4
    assert json.loads(out)["f_sign"] == 0


def test_readme_kron_mirror_example_prints_its_bytes(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    at = readme.index("$ matguard guardian --map kron --input mirror.json")
    expected_out, echo, expected_code = readme[at + 1 : at + 4]
    assert echo == "$ echo $?"
    path = tmp_path / "mirror.json"
    save_matrix_json(np.diag([1.0, -1.0]), path)
    code, out, _ = run_cli(capsys, "guardian", "--map", "kron", "--input", str(path))
    assert out == expected_out + "\n"
    assert code == int(expected_code)


# Every cell of the (f vanishes, oracle) table, through the library and the CLI.
TABLE_CELLS = [
    # input,                     f_sign==0, oracle,     verdict,          stability,  exit
    (-np.eye(2),                  False, "stable",   "NonzeroStable",   "stable",   0),
    (np.diag([-1.0, 1e-9]),       False, "boundary", "NonzeroUnstable", "boundary", 3),
    (np.diag([1.0, -2.0]),        False, "unstable", "NonzeroUnstable", "unstable", 4),
    (np.diag([-1e6, -1e-7]),      True,  "stable",   "ZeroBoundary",    "boundary", 3),
    (np.array(ROT2["data"]),      True,  "boundary", "ZeroBoundary",    "boundary", 3),
    (np.diag([1.0, -1.0]),        True,  "unstable", "ZeroBoundary",    "unstable", 4),
]


@pytest.mark.parametrize(
    "a, f_zero, oracle, verdict, stability, exit_code", TABLE_CELLS,
    ids=[f"f{'=' if c[1] else '!='}0-{c[2]}" for c in TABLE_CELLS],
)
def test_guardian_table_cell(capsys, tmp_path, a, f_zero, oracle, verdict, stability,
                             exit_code):
    report = guardian_evaluate("add2", a)
    assert (report.f_value.sign == 0) is f_zero
    assert report.oracle_verdict is Stability(oracle)
    assert report.verdict is Verdict(verdict)
    assert report.stability is Stability(stability)
    path = tmp_path / "a.json"
    save_matrix_json(a, path)
    code, out, _ = run_cli(capsys, "guardian", "--map", "add2", "--input", str(path))
    assert code == exit_code
    assert out == dumps_canonical(report.to_obj()) + "\n"


@pytest.mark.parametrize("argv", [
    ("guardian", "--map", "add2", "--tol", "nan"),
    ("sweep", "--map", "add2", "--min", "-1", "--max", "1", "--samples", "20",
     "--refine", "--tol", "nan"),
    # no bracket in [-1, 0]: the tolerance is refused before the grid
    ("sweep", "--map", "add2", "--min", "-1", "--max", "0", "--samples", "5",
     "--refine", "--tol", "nan"),
    ("sweep", "--map", "add2", "--min", "-1", "--max", "0", "--samples", "5",
     "--refine", "--tol", "-1"),
])
def test_nan_tol_exit_2(capsys, tmp_path, family_path, argv):
    path = tmp_path / "a.json"
    save_matrix_json(np.diag([-1.0, -2.0]), path)
    source = ("--input", str(path)) if argv[0] == "guardian" else ("--family", family_path)
    code, out, err = run_cli(capsys, *argv, *source)
    assert code == 2
    assert out == ""
    assert "tol must be" in err


def test_guardian_report_keys(capsys, rot2_path):
    _, out, _ = run_cli(capsys, "guardian", "--map", "schlaflian", "--input", rot2_path)
    assert list(json.loads(out)) == [
        "kind", "g_sign", "g_logmag", "det_a_sign", "f_sign", "verdict", "oracle",
    ]


# ------------------------------------------------------------------ sweep


@pytest.fixture
def family_path(tmp_path):
    fam = {
        "n": 2,
        "base": matrix_to_obj(np.array([[-0.3, 1.0], [-1.0, -0.3]])),
        "dir1": matrix_to_obj(np.eye(2)),
        "dir2": None,
    }
    path = tmp_path / "fam.json"
    path.write_text(dumps_canonical(fam))
    return str(path)


def test_sweep_refined_crossing(capsys, family_path):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", family_path, "--map", "add2",
        "--min", "-1", "--max", "1", "--samples", "20", "--refine",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["samples"]) == 20
    assert len(obj["crossings"]) == 1
    assert abs(obj["crossings"][0]["theta"] - 0.3) <= 1e-8


@pytest.mark.parametrize("kind", ["kron", "add2", "schlaflian", "bialt"])
def test_sweep_over_the_whole_float_range(capsys, family_path, kind):
    # theta_max - theta_min overflows; the grid is built from halves
    code, out, err = run_cli(
        capsys, "sweep", "--family", family_path, "--map", kind,
        "--min=-1.7e308", "--max", "1.7e308", "--samples", "5", "--refine",
    )
    assert (code, err) == (0, "")
    samples = json.loads(out)["samples"]
    assert (samples[0]["theta"], samples[-1]["theta"]) == (-1.7e308, 1.7e308)


def test_sweep_single_sample_exit_2(capsys, family_path):
    code, _, err = run_cli(
        capsys, "sweep", "--family", family_path, "--map", "add2",
        "--min", "-1", "--max", "1", "--samples", "1",
    )
    assert code == 2 and err


def test_sweep_size_guard_exit_2_before_the_grid(capsys, tmp_path):
    # A(theta) overflows at theta = -2: a guard that came after the grid
    # would meet that at the first chunk instead of sweeping the grid
    path = tmp_path / "fam.json"
    path.write_text(dumps_canonical({"n": 2, "base": matrix_to_obj(-np.eye(2)),
                                     "dir1": matrix_to_obj(1e308 * np.eye(2)), "dir2": None}))
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "sweep", "--family", str(path), "--map", "add2",
            "--min", "-2", "--max", "1", "--samples", str(MAX_ENTRIES + 1),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "entry guard" in err
    assert peak < 1 << 20


def test_sweep_overflowing_member_refusal_is_the_only_stderr_line(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(dumps_canonical({"n": 2, "base": matrix_to_obj(-np.eye(2)),
                                     "dir1": matrix_to_obj(1e308 * np.eye(2)), "dir2": None}))
    code, out, err = run_cli(capsys, "sweep", "--family", str(path), "--map", "add2",
                             "--min", "-2", "--max", "1", "--samples", "5")
    assert (code, out) == (2, "")
    assert err == "matguard: family member A(theta) at theta=-2.0 has non-finite entries\n"


def test_sweep_bad_family_document_exit_1(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text('{"n": 2, "base": {}}')
    code, _, err = run_cli(
        capsys, "sweep", "--family", str(path), "--map", "add2",
        "--min", "-1", "--max", "1", "--samples", "5",
    )
    assert code == 1 and err


# ----------------------------------------------------------------- verify


def test_verify_suite_passes_and_is_byte_identical(capsys):
    args = ["verify", "--suite", "prop4", "--n", "4", "--trials", "10", "--seed", "42"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["pass"] is True


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_verify_corrupted_build_exit_5(capsys, monkeypatch):
    import matguard.bialternate as bmod

    original = bmod.bialternate_sum_self

    def corrupted(a):
        out = original(a)
        out[0, -1] -= 2e-9
        return out

    monkeypatch.setattr(bmod, "bialternate_sum_self", corrupted)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "prop4", "--n", "4", "--trials", "3",
        "--seed", "0",
    )
    assert code == 5
    obj = json.loads(out)
    assert obj["pass"] is False
    assert obj["failures"]
    assert obj["failures"][0]["trial"] in range(3)


def test_verify_validates_parameters(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "prop4", "--n", "1", "--trials", "3",
        "--seed", "0",
    )
    assert code == 2 and err


# ------------------------------------------------------------ dependencies


def test_no_subcommand_imports_scipy(rot2_path, family_path):
    """numpy is the only runtime dependency: a fresh interpreter that runs
    guardian, a refined sweep and every verify suite has imported no scipy."""
    script = f"""
import sys
from matguard.cli import main
main(["guardian", "--map", "kron", "--input", {rot2_path!r}])
main(["sweep", "--family", {family_path!r}, "--map", "add2", "--min", "-1", "--max", "1",
      "--samples", "20", "--refine"])
main(["verify", "--suite", "all", "--n", "3", "--trials", "2", "--seed", "1"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
