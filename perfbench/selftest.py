"""Self-tests for the benchmark harness.

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They fork real jobs and take a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

sys.path.insert(0, str(run.SRC))
import cayleycss.cli  # noqa: E402,F401  (the harness forks after this)

ELIMINATION = ("gf2.rank", "gf2.in_row_space")


@contextlib.contextmanager
def workdir():
    run.STATE.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.STATE))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _self_by_name(spans) -> dict:
    out: dict = {}
    for span, s in zip(spans, self_times(spans)):
        out[span[0]] = out.get(span[0], 0.0) + s
    return out


def _witness_job(n: int) -> workloads.Job:
    return workloads.Job(f"witness-n{n}", lambda r: ref.check_witness(r, n),
                         ["witness", "--n", str(n)])


def test_forked_jobs_start_cold():
    """The same tower job twice in a row pays for elimination both times;
    run twice in one process, the second call hits the caches."""
    job = _witness_job(13)
    with workdir() as wd:
        first = run.run_job(job, wd, True, 0)
        second = run.run_job(job, wd, True, 1)
    for res in (first, second):
        assert job.check(res) is None
        selfs = _self_by_name(res.spans)
        elimination = sum(selfs.get(k, 0.0) for k in ELIMINATION)
        assert elimination > 0.3 * res.wall_s, (elimination, res.wall_s)
    assert 0.5 < second.wall_s / first.wall_s < 2.0

    # Contrast, in a child so this process stays cold for later tests:
    # the in-process repeat is far cheaper, so the check above would
    # notice a cache that survived the fork.
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        times = []
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(2):
                start = time.perf_counter()
                cayleycss.cli.main(job.argv)
                times.append(time.perf_counter() - start)
        os.write(write, json.dumps(times).encode())
        os._exit(0)
    os.close(write)
    os.waitpid(pid, 0)
    with os.fdopen(read) as fh:
        cold, warm = json.loads(fh.read())
    assert warm < 0.25 * cold, (cold, warm)


class _Planted(workloads.Workload):
    """One distance job checked twice: against the true D and against a
    planted off-by-one D."""

    name = "planted"
    GENS = tuple(ref.tower_generators(5))

    def __init__(self, seed, wd):
        super().__init__(seed, wd)
        self.expect = ref.css_distance(5, self.GENS)

    def shapes(self, tag):
        argv = ["params", "--m", "5", "--gens",
                ",".join(ref.format_word(g, 5) for g in self.GENS)]
        wrong = dict(self.expect, D=self.expect["D"] + 1)
        return [
            workloads.Job("true-D", lambda r: ref.check_distance(
                r, 5, self.GENS, self.expect), argv),
            workloads.Job("planted-D", lambda r: ref.check_distance(
                r, 5, self.GENS, wrong), argv),
        ]


def test_planted_wrong_answer_is_a_failure():
    with workdir() as wd:
        wl = _Planted(0, wd)
        assert wl.expect["D"] == 4
        measured = run.measure(wl, 0, False, wd)
        failures = run.check(measured, False)
    assert [job.shape for job, _, _ in failures] == ["planted-D"]
    assert "expected exact 5" in failures[0][2]


def test_child_spans_nest_inside_parents():
    with workdir() as wd:
        res = run.run_job(_witness_job(11), wd, True, 0)
    spans = res.spans
    assert spans and spans[0][0] == "cli.main" and spans[0][3] == -1
    children: dict = {}
    for name, start, end, parent, job, _ in spans:
        assert job == 0 and start <= end
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2], (name, p[0])
            children[parent] = children.get(parent, 0.0) + end - start
    for idx, total in children.items():
        assert total <= spans[idx][2] - spans[idx][1]
    selfs = self_times(spans)
    assert min(selfs) >= 0
    root = spans[0][2] - spans[0][1]
    assert abs(sum(selfs) - root) < 1e-6
    assert root <= res.wall_s


def test_tracer_rebinds_from_imports_and_restores_them():
    from cayleycss import cayley, cli, cover, css, gf2, repetition, verify
    before = {
        (mod.__name__, key): getattr(mod, key)
        for mod, key in ((css, "adjacency_matrix"), (cli, "adjacency_matrix"),
                         (verify, "adjacency_matrix"),
                         (repetition, "adjacency_matrix"), (cover, "ball"),
                         (repetition, "halved_matrix"), (cayley, "ball"))
    }
    method = gf2.BitMatrix.__dict__["mul_vector"]
    tracer = Tracer()
    tracer.install()
    try:
        for (name, key), original in before.items():
            wrapped = getattr(sys.modules[name], key)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        assert gf2.BitMatrix.__dict__["mul_vector"] is not method
        assert cover.CoverMap.project.__name__ == "project"
        css.build_css(3, repetition.generators(3))
    finally:
        tracer.remove()
    for (name, key), original in before.items():
        assert getattr(sys.modules[name], key) is original
    assert gf2.BitMatrix.__dict__["mul_vector"] is method
    names = [span[0] for span in tracer.spans]
    assert names[0] == "css.build_css"
    assert "cayley.adjacency_matrix" in names


def test_traced_output_matches_untraced():
    job = workloads.Job("hypercube", lambda r: None,
                        ["params", "--family", "hypercube", "--m", "8"])
    with workdir() as wd:
        plain = run.run_job(job, wd, False, 0)
        traced = run.run_job(job, wd, True, 1)
    assert run._normalized(plain) == run._normalized(traced)
    assert traced.spans and not plain.spans


def test_reference_closed_forms():
    for n in (3, 5):
        got = ref.css_distance(n, ref.tower_generators(n))
        want = ref.tower_closed_form(n)
        assert {k: got[k] for k in ("N", "K", "rank", "kernel_dim", "D")} \
            == want
    assert ref.classical_distance(4, (0b1111,)) == 5
    assert not ref.cover_expects_isomorphism(5, 2)
    assert ref.cover_expects_isomorphism(6, 2)
    for fmt in workloads.FORMATS:
        blob = ref.export_tower(5, fmt)
        assert ref.parse_export(fmt, blob) == \
            ref.adjacency_rows(5, ref.tower_generators(5))


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = run._per_layer_metrics([], 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == \
        [m["unit"] for m in per_layer.values()]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_fails_without_the_program():
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    with workdir() as wd:
        shutil.copy(HERE.parent / "BENCHMARK.json", wd)
        shutil.copytree(HERE, wd / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tower",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=wd, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
