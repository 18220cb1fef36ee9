"""CLI surface: reports, formats, exit codes, and schema validity."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import cayleycss
from cayleycss import cli, formats, verify
from cayleycss.cayley import GeneratorSet, adjacency_matrix
from cayleycss.gf2 import BitMatrix

try:
    from importlib.resources import files as resource_files
except ImportError:  # pragma: no cover
    resource_files = None

SCHEMA = json.loads(
    resource_files("cayleycss.schemas")
    .joinpath("run_report.schema.json")
    .read_text()
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_params_repetition_n3(capsys):
    for n, N, K, D in ((3, 8, 4, 2), (5, 32, 8, 4)):
        code, report = run_report(
            capsys, "params", "--n", str(n), "--family", "repetition"
        )
        assert code == 0
        assert report["outputs"]["N"] == N
        assert report["outputs"]["K"] == K
        assert report["outputs"]["D"]["method"] == "exact"
        assert report["outputs"]["D"]["value"] == D
        assert report["command"] == "params"
        assert "x_i" in report["indexing_convention"]


def test_params_bounded_regime(capsys):
    for n, N, K, D in ((7, 128, 16, 8), (9, 512, 32, 16),
                       (11, 2048, 64, 32), (13, 8192, 128, 64)):
        code, report = run_report(
            capsys, "params", "--n", str(n), "--family", "repetition"
        )
        assert code == 0
        assert (report["outputs"]["N"], report["outputs"]["K"]) == (N, K)
        assert report["outputs"]["D"] == {
            "method": "witness-upper",
            "upper": D,
            "claimed": D,
            "label": "paper-claimed, witness-upper-bound-verified",
        }


def test_params_trivial_hypercube(capsys):
    code, report = run_report(
        capsys, "params", "--m", "4", "--gens", "0001,0010,0100,1000"
    )
    assert code == 0
    assert report["outputs"]["K"] == 0
    assert report["outputs"]["D"]["trivial"] is True


def test_params_precondition_exit(capsys):
    code, out, err = run_cli(capsys, "params", "--m", "3", "--gens", "100")
    assert code == 2
    assert "self-orthogonal" in err


def test_size_guard_exit(capsys):
    code, out, err = run_cli(
        capsys, "params", "--n", "17", "--family", "repetition"
    )
    assert code == 4
    assert "guard" in err


def test_verify_scoreboard_sorted_and_green(capsys):
    code, report = run_report(
        capsys, "verify", "--suite", "dimension", "--n", "3..13"
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert report["outputs"]["failed"] == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_all_small_range(capsys):
    code, report = run_report(capsys, "verify", "--suite", "all",
                              "--n", "3..5")
    assert code == 0
    assert report["outputs"]["failed"] == 0


def test_verify_all_report_does_not_depend_on_threads(capsys):
    reports = []
    for threads in ("1", "2"):
        code, report = run_report(
            capsys, "verify", "--suite", "all", "--n", "3..5",
            "--m", "4", "--gens", "1111", "--threads", threads,
        )
        assert code == 0
        for key in ("timings", "threads"):
            report.pop(key)
        for check in report["checks"]:
            check.pop("elapsed_s")
        reports.append(report)
    assert reports[0] == reports[1]
    names = {c["name"] for c in reports[0]["checks"]}
    # The cover suite ran on the given code, not the m = 5 default.
    assert "cover/non-liftable-word" not in names


def test_verify_cover_suite(capsys):
    code, report = run_report(
        capsys, "verify", "--suite", "cover", "--m", "5", "--gens", "11111"
    )
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert "cover/ball-isomorphism" in names
    assert "cover/non-liftable-word" in names


def test_cover_certificate_within_radius(capsys):
    code, report = run_report(capsys, "cover", "--m", "5",
                              "--gens", "11111")
    assert code == 0
    cert = report["outputs"]["certificate"]
    assert cert["status"] == "isomorphism"
    assert cert["radius"] == 2
    assert cert["centers_checked"] == 64


def test_cover_collision_exit(capsys):
    code, report = run_report(
        capsys, "cover", "--m", "5", "--gens", "11111", "--radius", "3"
    )
    assert code == 3
    cert = report["outputs"]["certificate"]
    assert cert["status"] == "collision"
    assert cert["counterexample"]["kind"] == "vertex-collision"


@pytest.mark.parametrize("m, gens, d", [("4", "1111", 5), ("6", "111111", 7)])
def test_cover_default_radius_for_odd_distance(capsys, m, gens, d):
    code, report = run_report(capsys, "cover", "--m", m, "--gens", gens)
    assert code == 0
    out = report["outputs"]
    assert out["classical_distance"] == d
    assert out["safe_radius"] == (d - 2) // 2
    assert out["certificate"]["status"] == "isomorphism"
    assert out["certificate"]["radius"] == out["safe_radius"]
    code, report = run_report(capsys, "cover", "--m", m, "--gens", gens,
                              "--radius", str((d - 1) // 2))
    assert code == 3
    ce = report["outputs"]["certificate"]["counterexample"]
    assert ce["kind"] == "edge-mismatch"


def refuse_work(*_):
    raise AssertionError("the command ran despite an out-of-range argument")


def test_cover_negative_radius_exits_before_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_cover", refuse_work)
    code, out, err = run_cli(
        capsys, "cover", "--m", "5", "--gens", "11111", "--radius", "-1"
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--radius" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_before_work(capsys, monkeypatch, threads):
    monkeypatch.setattr(cli, "cmd_verify", refuse_work)
    monkeypatch.setattr(cli, "cmd_params", refuse_work)
    code, out, err = run_cli(capsys, "verify", "--suite", "recursion",
                             "--n", "4..6", "--threads", threads)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--threads" in err
    monkeypatch.setenv("CAYLEY_CSS_THREADS", threads)
    code, out, err = run_cli(capsys, "params", "--n", "3",
                             "--family", "repetition")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--threads" in err


@pytest.mark.parametrize("budget", ["-1", "31", "80"])
def test_exact_budget_out_of_range_exits_before_work(capsys, monkeypatch,
                                                     budget):
    monkeypatch.setattr(cli, "cmd_params", refuse_work)
    code, out, err = run_cli(capsys, "params", "--family", "repetition",
                             "--n", "7", "--exact-budget", budget)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--exact-budget" in err


@pytest.mark.parametrize("command, n", [
    ("params", "-3"), ("params", "1"), ("build", "2"),
])
def test_tower_below_n3_exits_before_work(capsys, monkeypatch, command, n):
    monkeypatch.setattr(cli.repetition, "generators", refuse_work)
    code, out, err = run_cli(capsys, command, "--family", "repetition",
                             "--n", n, "--out", "unused.alist")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "n = 3" in err


@pytest.mark.parametrize("n_range", ["1..2", "-3..5"])
def test_verify_below_n3_exits_before_any_suite(capsys, monkeypatch, n_range):
    monkeypatch.setattr(verify, "run_suite", refuse_work)
    code, out, err = run_cli(capsys, "verify", "--suite", "all",
                             f"--n={n_range}")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "n = 3" in err


@pytest.mark.parametrize("n_range", ["a..b", "3..", "x"])
def test_verify_malformed_range_exits_before_any_suite(capsys, monkeypatch,
                                                       n_range):
    monkeypatch.setattr(verify, "run_suite", refuse_work)
    code, out, err = run_cli(capsys, "verify", "--suite", "all",
                             f"--n={n_range}")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "range LO..HI" in err and repr(n_range) in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("suite, n_range",
                         [("distance", "15..16"), ("conjugation", "11..13")])
def test_verify_run_without_checks_exits_2(capsys, suite, n_range):
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--n", n_range)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"suite {suite}" in err and n_range in err


@pytest.mark.parametrize("suite, n_range, skipped", [
    ("distance", "11..15", "15"),
    ("recursion", "3..5", "3"),
    ("conjugation", "8..11", "11"),
    # Only the four size-free reversal checks run here.
    ("recursion", "12..13", "12, 13"),
])
def test_verify_names_the_sizes_a_suite_skipped(capsys, suite, n_range,
                                                skipped):
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--n", n_range)
    assert code == 0
    assert err == f"note: suite {suite} has no check at n = {skipped}\n"
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["outputs"]["failed"] == 0
    for n in skipped.split(", "):
        assert not any(c["name"].endswith(f"-n{n}")
                       for c in report["checks"])


def test_verify_all_names_skipped_sizes_per_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "all", "--n", "3..9")
    assert code == 0
    assert err.splitlines() == [
        "note: suite recursion has no check at n = 3",
    ]


def test_runs_do_not_import_numpy_ma():
    # numpy.ma loads lazily (np.unique, for one) and costs 15-20 ms in
    # every fresh process; none of these runs needs it.
    script = (
        "import contextlib, io, sys\n"
        "from cayleycss import cli\n"
        "for argv, code in (('params --family repetition --n 9', 0),\n"
        "                   ('witness --n 9', 0),\n"
        "                   ('verify --suite all --n 3..7', 0),\n"
        "                   ('cover --m 5 --gens 11111', 0),\n"
        "                   ('cover --m 5 --gens 11111 --radius 3', 3)):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv.split()) == code, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(cayleycss.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# n = 17 at the default radius 7, over the sweep size guard; n = 21,
# over the length guard, refused before its distance is computed.
@pytest.mark.parametrize("m", [16, 20])
def test_cover_above_sweep_guard_exits_4_before_the_sweep(capsys,
                                                          monkeypatch, m):
    monkeypatch.setattr(cli.cover, "certify_all_centers", refuse_work)
    monkeypatch.setattr(cli.cover, "certify_ball_isomorphism", refuse_work)
    if m == 20:
        monkeypatch.setattr(cli.cover, "min_distance", refuse_work)
    code, out, err = run_cli(capsys, "cover", "--m", str(m),
                             "--gens", "1" * m)
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "guard" in err


def test_verify_cover_above_sweep_guard_exits_4_before_any_suite(
    capsys, monkeypatch
):
    monkeypatch.setattr(verify, "run_suite", refuse_work)
    code, out, err = run_cli(capsys, "verify", "--suite", "cover",
                             "--m", "16", "--gens", "1" * 16)
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "guard" in err


def test_verify_above_size_guard_exits_4_before_any_suite(capsys,
                                                          monkeypatch):
    monkeypatch.setattr(verify, "run_suite", refuse_work)
    code, out, err = run_cli(capsys, "verify", "--suite", "dimension",
                             "--n", "17")
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "guard" in err


# Kernel dimensions: 20 for the n = 5 tower, 10 for its halved block.
@pytest.mark.parametrize("suite, budget, dim, threads", [
    ("distance", "10", 20, "1"), ("bipartite", "9", 10, "1"),
    ("all", "9", 20, "2"),
])
def test_verify_budget_overrun_exits_4(capsys, suite, budget, dim, threads):
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--n", "3..5", "--exact-budget", budget,
                             "--threads", threads)
    assert code == 4
    assert out == ""
    assert err == (f"error: enumeration dimension {dim} exceeds budget "
                   f"{budget}\n")


@pytest.mark.parametrize("flag", [["--m", "4"], ["--gens", "1111"]])
def test_verify_m_and_gens_go_together(capsys, monkeypatch, flag):
    monkeypatch.setattr(verify, "run_suite", refuse_work)
    code, out, err = run_cli(capsys, "verify", "--suite", "all", *flag)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--m" in err and "--gens" in err


def test_verify_checks_gens_against_m_before_any_suite(capsys, monkeypatch):
    monkeypatch.setattr(verify, "run_suite", refuse_work)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "all", "--n", "3..13",
        "--m", "4", "--gens", "1000",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "canonical basis" in err


def test_witness_report(capsys):
    code, report = run_report(capsys, "witness", "--n", "3")
    assert code == 0
    out = report["outputs"]
    assert out["support"] == [2, 4]
    assert out["weight"] == 2
    assert out["classification"] == "logical"
    assert out["certificate"]["overlap"] == 1
    code5, report5 = run_report(capsys, "witness", "--n", "5")
    assert report5["outputs"]["weight"] == 4


@pytest.mark.parametrize("n", [15, 17, 19, 21, 23])
def test_witness_beyond_n13_reports_a_certified_logical_word(capsys, n):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "witness", "--n", str(n))
    elapsed = time.perf_counter() - t0
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["weight"] == 1 << ((n - 1) // 2)
    assert (outputs["in_kernel"], outputs["in_row_space"],
            outputs["classification"]) == (True, False, "logical")
    assert outputs["certificate"] == {
        "in_kernel": True, "partner": "cyclic-shift",
        "partner_in_kernel": True, "overlap": 1,
    }
    assert elapsed < 1.0, f"witness --n {n} took {elapsed:.2f} s"


def test_witness_size_guard_exits_before_work(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "witness", "--n", "31")
    elapsed = time.perf_counter() - t0
    assert code == 4
    assert out == ""
    assert "guard" in err
    assert elapsed < 0.5, f"guard took {elapsed:.2f} s"


def test_witness_even_n(capsys):
    code, out, err = run_cli(capsys, "witness", "--n", "4")
    assert code == 2


def test_build_alist_round_trip(capsys, tmp_path):
    path = str(tmp_path / "m.alist")
    code, out, err = run_cli(
        capsys, "build", "--n", "3", "--family", "repetition",
        "--format", "alist", "--out", path,
    )
    assert code == 0
    M = formats.read_matrix("alist", path)
    assert M == adjacency_matrix(3, GeneratorSet.named("S3'"))


def test_build_bin_matches_golden_bytes(capsys, tmp_path):
    path = str(tmp_path / "m.bin")
    code, _, _ = run_cli(
        capsys, "build", "--n", "3", "--family", "repetition",
        "--format", "bin", "--out", path,
    )
    assert code == 0
    blob = open(path, "rb").read()
    assert blob[:4] == b"CAYM"
    M = adjacency_matrix(3, GeneratorSet.named("S3'"))
    assert blob[16:] == b"".join(
        M.row(i).words.tobytes()[:(M.cols + 7) // 8] for i in range(8)
    )


def test_build_torus(capsys, tmp_path):
    path = str(tmp_path / "t.mtx")
    code, _, _ = run_cli(
        capsys, "build", "--family", "z2n-torus", "--n", "2",
        "--format", "mtx", "--out", path,
    )
    assert code == 0
    M = formats.read_matrix("mtx", path)
    assert M.rows == M.cols == 16


@pytest.mark.parametrize("argv", [
    ["--family", "z2n-torus", "--n", "2"],
    ["--family", "repetition", "--n", "5"],
])
def test_build_without_out_exits_before_building(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "torus_adjacency", refuse_work)
    monkeypatch.setattr(cli, "adjacency_matrix", refuse_work)
    code, out, err = run_cli(capsys, "build", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: build needs --out\n"


def test_build_torus_size_guard_exits_4_before_allocating(
    capsys, monkeypatch, tmp_path
):
    # (2 * 129)^2 vertices exceed 2^16; the guard must fire before the
    # 258^2 x 258^2 matrix is allocated.
    monkeypatch.setattr(BitMatrix, "from_nonzero", refuse_work)
    path = tmp_path / "t.alist"
    code, out, err = run_cli(
        capsys, "build", "--family", "z2n-torus", "--n", "129",
        "--out", str(path),
    )
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "guard" in err
    assert not path.exists()


def test_threads_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEY_CSS_THREADS", "3")
    code, report = run_report(capsys, "verify", "--suite", "recursion",
                              "--n", "4..6")
    assert report["threads"] == 3
    code, report = run_report(
        capsys, "verify", "--suite", "recursion", "--n", "4..6",
        "--threads", "2",
    )
    assert report["threads"] == 2


def test_report_to_file(capsys, tmp_path):
    path = str(tmp_path / "r.json")
    code, out, err = run_cli(capsys, "params", "--n", "3",
                             "--family", "repetition", "--out", path)
    assert code == 0 and out == ""
    report = json.loads(open(path).read())
    jsonschema.validate(report, SCHEMA)


def test_reports_are_reproducible_except_timings(capsys):
    _, r1 = run_report(capsys, "params", "--n", "5", "--family", "repetition")
    _, r2 = run_report(capsys, "params", "--n", "5", "--family", "repetition")
    r1.pop("timings")
    r2.pop("timings")
    assert r1 == r2
