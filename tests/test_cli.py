"""CLI surface: reports, formats, exit codes, and schema validity."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import cayleycss
from cayleycss import cli, formats, gf2, repetition, verify
from cayleycss.cayley import GeneratorSet, adjacency_matrix
from cayleycss.gf2 import BitMatrix, BitVector
from cayleycss.verify import SUITE_NAMES

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


#: The two-block set whose U blocks each have kernel dimension 15 (the
#: whole code's is 30): the budget is charged per block.
TWO_BLOCKS_OF_DIM_15 = ("10101,00010,01000,00100,00111,00001,01110,10110,"
                        "11111,10011,11001,10000,01011,11010,01101,11100")


# Compared as text, so the key order of each report is pinned too.
@pytest.mark.parametrize("argv, outputs", [
    (["--family", "hypercube", "--m", "4"],
     '{"N": 16, "K": 0, "rank": 8, "D": {"method": "exact", "trivial": '
     'true}, "note": "self-dual: kernel equals row space, no logical '
     'words"}'),
    (["--family", "repetition", "--n", "3"],
     '{"N": 8, "K": 4, "rank": 2, "D": {"method": "exact", "value": 2, '
     '"witness_support": [1, 2]}}'),
    (["--family", "repetition", "--n", "5"],
     '{"N": 32, "K": 8, "rank": 12, "D": {"method": "exact", "value": 4, '
     '"witness_support": [5, 6, 9, 10]}}'),
    # A U block of the n = 5 tower has kernel dimension 10.
    (["--family", "repetition", "--n", "5", "--exact-budget", "15"],
     '{"N": 32, "K": 8, "rank": 12, "D": {"method": "exact", "value": 4, '
     '"witness_support": [5, 6, 9, 10]}}'),
    (["--family", "repetition", "--n", "7"],
     '{"N": 128, "K": 16, "rank": 56, "D": {"method": "witness-upper", '
     '"upper": 8, "claimed": 8, "label": "paper-claimed, '
     'witness-upper-bound-verified"}}'),
    (["--m", "5", "--gens", TWO_BLOCKS_OF_DIM_15],
     '{"N": 32, "K": 28, "rank": 2, "D": {"method": "exact", "value": 2, '
     '"witness_support": [1, 2]}}'),
], ids=["hypercube-m4", "tower-n3", "tower-n5", "tower-n5-budget15",
        "tower-n7", "two-blocks"])
def test_params_outputs_match_golden_text(capsys, argv, outputs):
    code, report = run_report(capsys, "params", *argv)
    assert code == 0
    assert json.dumps(report["outputs"]) == outputs


def test_params_single_block_over_budget_exits_4(capsys):
    # Even-weight generators: one block, of kernel dimension 48.
    code, out, err = run_cli(capsys, "params", "--m", "6",
                             "--gens", "010100,011110,100101,101111")
    assert code == 4
    assert out == ""
    assert err == "error: enumeration dimension 48 exceeds budget 26\n"


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
        argv = ["verify", "--suite", "all", "--n", "3..5",
                "--m", "4", "--gens", "1111", "--threads", threads]
        code, report = run_report(capsys, *argv)
        assert code == 0
        # The report records the argv it was given, --threads included.
        assert report.pop("argv") == argv
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


@pytest.mark.parametrize("threads", ["0", "-3", "abc"])
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


@pytest.mark.parametrize("line", [
    "",
    "bogus --m 5",
    "cover --suite all",
    "cover --m 5 --gens 11111 --m",
    "params --family repetition --n 3 --out",
    "params --family repetition --n 3 --out --seed",
    "cover --m x --gens 11111",
    "params --family bogus --n 3",
    "cover --m 5 --gens 11111 stray",
    "params --family repetition --n 7 --exact 3",
    "params --family repetition --n 5 --m 7 --gens 1111111",
    "params --family hypercube --n 4 --m 6",
    "params --family custom --m 4 --gens 1100,0011 --n 9",
    "witness --n 5 --family custom",
    "build --family z2n-torus --n 3 --m 4 --out t.mtx",
    "cover --m 5 --gens 11111 --n 3",
    "witness --n 5 --exact-budget 4",
], ids=["no-command", "unknown-command", "option-of-another-command",
        "missing-value", "missing-text-value", "option-as-value",
        "non-integer", "bad-choice", "stray-positional",
        "abbreviated-option", "repetition-with-m-and-gens",
        "hypercube-with-n-and-m", "custom-with-n", "witness-with-family",
        "torus-with-m", "cover-with-n", "witness-with-budget"])
def test_malformed_argv_exits_2_before_work(capsys, monkeypatch, line):
    for command in ("build", "params", "verify", "cover", "witness"):
        monkeypatch.setattr(cli, f"cmd_{command}", refuse_work)
    code, out, err = run_cli(capsys, *line.split())
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["cover", "--help"]])
def test_help_names_every_command_and_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "commands: build, params, verify, cover, witness\n" in out
    for name in cli.OPTIONS:
        assert f"\n  {name} " in out


def test_report_records_the_argv_it_parsed(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["script.py", "list.json"])
    argv = ["cover", "--m", "5", "--gens", "11111"]
    code, report = run_report(capsys, *argv)
    assert code == 0
    assert report["argv"] == argv
    # Without an argv, main reads the process's command line.
    monkeypatch.setattr(sys, "argv", ["cayley-css", "witness", "--n", "5"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["argv"] == [
        "witness", "--n", "5"]


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the option table replaced, kept as its oracle."""
    parser = argparse.ArgumentParser(
        prog="cayley-css",
        description=(
            "CSS codes from Cayley graphs over F_2^m: build, measure, "
            "verify"
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {cayleycss.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # Each command takes only the options it reads, and every
        # command --seed, --threads and --out.
        command = p.prog.split()[-1]
        if command != "witness":
            p.add_argument("--m", type=int, help="group dimension")
        if command != "cover":
            p.add_argument("--n",
                           help="family parameter (verify: range LO..HI)")
        if command != "witness":
            p.add_argument(
                "--gens",
                type=lambda t: t.split(","),
                help="comma-separated generator bitstrings, x1 first",
            )
        if command in ("build", "params"):
            p.add_argument(
                "--family",
                choices=("repetition", "hypercube", "custom", "z2n-torus"),
                default="custom",
            )
        if command in ("params", "verify"):
            p.add_argument(
                "--exact-budget", type=int,
                default=gf2.DEFAULT_ENUMERATION_BUDGET,
                help="max kernel dimension for exhaustive distance search",
            )
        p.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
        p.add_argument(
            "--threads", default=os.environ.get("CAYLEY_CSS_THREADS", "1")
        )
        p.add_argument("--out", help="output file (default stdout)")

    p_build = sub.add_parser("build", help="export an adjacency matrix")
    common(p_build)
    p_build.add_argument(
        "--format", choices=formats.FORMAT_NAMES, default="alist"
    )
    common(sub.add_parser("params", help="compute [[N, K, D]]"))
    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument(
        "--suite", choices=SUITE_NAMES + ("all",), default="all"
    )
    p_cover = sub.add_parser("cover", help="certify a covering map")
    common(p_cover)
    p_cover.add_argument(
        "--radius", type=int, help="ball radius (default floor((d-2)/2))"
    )
    common(sub.add_parser(
        "witness", help="minimum-weight logical word of the tower"
    ))
    return parser


ORACLE_ARGV = [
    # Every argv shape the benchmark draws (perfbench/workloads.py).
    # tower
    *(f"params --family repetition --n {n}" for n in (9, 11, 13)),
    *(f"witness --n {n}" for n in (9, 11, 13)),
    *(f"build --family repetition --n 13 --format {fmt} --out r0-n13.{fmt}"
      for fmt in formats.FORMAT_NAMES),
    "params --family hypercube --m 12",
    # distance
    "params --m 5 --gens 00011,00101,01001,10001,11110,01111",
    "params --family repetition --n 3",
    "params --family repetition --n 5",
    # verify
    "verify --suite all --n 3..13 --threads 1 --seed 1405712293",
    # cover
    "cover --m 6 --gens 111000,010111 --radius 1",
    "cover --m 5 --gens 11100,01110,00111,10101 --radius 1",
    "cover --m 8 --gens 11111111 --radius 3",
    "cover --m 10 --gens 1111111111 --radius 5",
    # The README examples.
    "params --n 3 --family repetition",
    "params --m 4 --gens 0001,0010,0100,1000",
    "build --n 3 --family repetition --format alist --out m.alist",
    "verify --suite dimension --n 3..13",
    "verify --suite all --n 3..5 --threads 4",
    "cover --m 5 --gens 11111",
    "cover --m 5 --gens 11111 --radius 3",
    "witness --n 5",
    # --opt=value, mixed with --opt value.
    "cover --m=5 --gens=11111 --radius=2",
    "verify --suite=cover --n=3..5 --m=5 --gens 11111 --threads=2",
    "build --family=z2n-torus --n=3 --format=bin --out=t.bin",
    "params --exact-budget=20 --n 7 --family=repetition --seed=7",
    "params --m 4 --gens= --out=",
    # Negative values, and an option given twice (the last counts).
    "params --family repetition --n -3",
    "cover --m 5 --gens 11111 --radius -1",
    "params --family repetition --n 7 --exact-budget -1",
    "verify --suite recursion --n 4..6 --threads -3",
    "params --family repetition --n 3 --seed -5",
    "params --family repetition --n 3 --n 5",
]


@pytest.mark.parametrize("threads_env", [None, "3"], ids=["env-unset",
                                                          "env-3"])
@pytest.mark.parametrize("line", ORACLE_ARGV)
def test_option_table_parses_as_argparse_did(monkeypatch, line, threads_env):
    if threads_env is None:
        monkeypatch.delenv("CAYLEY_CSS_THREADS", raising=False)
    else:
        monkeypatch.setenv("CAYLEY_CSS_THREADS", threads_env)
    argv = line.split()
    expected = vars(reference_parser().parse_args(argv))
    # argparse kept --threads as text for check_options to convert.
    expected["threads"] = int(expected["threads"])
    got = vars(cli.parse_args(argv))
    assert got.pop("argv") == argv
    assert got == expected


def test_bad_threads_environment_leaves_version_working(capsys,
                                                        monkeypatch):
    monkeypatch.setenv("CAYLEY_CSS_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"cayley-css {cayleycss.__version__}\n"


@pytest.mark.parametrize("gens", ["11,1110", "1100,11100"],
                         ids=["short", "long"])
@pytest.mark.parametrize("argv", [
    ["params", "--m", "4"],
    ["cover", "--m", "4"],
    ["verify", "--suite", "cover", "--m", "4"],
], ids=["params", "cover", "verify"])
def test_gens_of_the_wrong_length_exit_before_work(capsys, monkeypatch,
                                                   argv, gens):
    # "11" and "11100" read as e_1 + e_2 and e_1 + e_2 + e_3, inside
    # F_2^4, so only their length shows that they are not m-bit words.
    monkeypatch.setattr(cli.css, "build_css", refuse_work)
    monkeypatch.setattr(cli.cover, "CoverMap", refuse_work)
    monkeypatch.setattr(verify, "run_suite", refuse_work)
    code, out, err = run_cli(capsys, *argv, "--gens", gens)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "not m = 4" in err


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
    # numpy.ma loads lazily and costs 15-20 ms in every fresh process;
    # none of these runs needs it.  On NumPy 2.4, np.unique loads it
    # unless it is asked for counts, so the kept coordinates are sorted
    # and de-duplicated without it.
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


def test_runs_do_not_import_argparse_or_thread_pools():
    # Each module costs start-up time in every fresh process; verify
    # imports concurrent.futures only for --threads above 1.
    script = (
        "import contextlib, io, sys\n"
        "from cayleycss import cli\n"
        "for argv in ('params --family repetition --n 9', 'witness --n 9',\n"
        "             'cover --m 5 --gens 11111',\n"
        "             'verify --suite all --n 3..7 --threads 1'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv.split()) == 0, argv\n"
        "print(sorted({'argparse', 'gettext', 'locale',\n"
        "              'concurrent.futures'} & set(sys.modules)))\n"
    )
    src = Path(cayleycss.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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


@pytest.mark.parametrize("suite", ["dimension", "all"])
def test_verify_above_size_guard_exits_4_before_any_suite(capsys,
                                                          monkeypatch, suite):
    monkeypatch.setattr(verify, "run_suite", refuse_work)
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--n", "17")
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "guard" in err


# Suites outside verify.SIZED_SUITES build nothing of size n, so the
# matrix guard does not apply to them.
@pytest.mark.parametrize("suite, n", [("algebra", "17"),
                                      ("local-sum", "3..20")])
def test_size_free_suites_run_past_the_size_guard(capsys, suite, n):
    assert suite not in verify.SIZED_SUITES
    names = []
    for arg in ("3..13", n):
        code, report = run_report(capsys, "verify", "--suite", suite,
                                  "--n", arg)
        assert code == 0
        names.append([c["name"] for c in report["checks"]])
    assert names[0] == names[1] and names[0]


# No command builds past n = MAX_WITNESS_DIMENSION, so --n is refused
# above it from the two ends of the range, before the list of sizes is
# built: 3..10000000000 names 10^10 of them.
@pytest.mark.parametrize("n_range", ["3..24", "3..300000", "3..10000000000"])
def test_verify_above_the_witness_cap_exits_4_at_once(capsys, monkeypatch,
                                                      n_range):
    monkeypatch.setattr(verify, "run_suite", refuse_work)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "local-sum",
                             "--n", n_range)
    assert time.perf_counter() - started < 0.5
    assert code == 4
    assert out == ""
    assert err == f"error: --n {n_range} exceeds the n <= 23 guard\n"


# Kernel dimension 10: each U block of the n = 5 tower, and its halved
# code.  The budget is charged per block.
@pytest.mark.parametrize("suite, budget, dim, threads", [
    ("distance", "9", 10, "1"), ("bipartite", "9", 10, "1"),
    ("all", "9", 10, "2"),
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


def test_witness_certifies_once_and_never_unpacks_the_word(capsys,
                                                         monkeypatch):
    calls = {"certify_logical": 0, "support": 0}
    certify, support = repetition.certify_logical, BitVector.support

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(repetition, "certify_logical",
                        counted("certify_logical", certify))
    monkeypatch.setattr(BitVector, "support", counted("support", support))
    code, out, err = run_cli(capsys, "witness", "--n", "11")
    assert code == 0
    assert json.loads(out)["outputs"]["weight"] == 32
    assert calls == {"certify_logical": 1, "support": 0}


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
        M.row(i).to_int().to_bytes((M.cols + 7) // 8, "little")
        for i in range(8)
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
