"""Benchmark for cayleycss: one closed-loop client, one job at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload {tower,distance,verify,cover} \\
        --seed N --seconds S --trace {0,1}

The parent imports ``cayleycss`` once, then forks one child per job and
waits for it, so at most two processes are alive and no memoised state
(``repetition._matrix_cache``, the echelon and solver caches on
``BitMatrix``) carries from one job to the next: every job pays what a
fresh ``cayley-css`` invocation pays after its import.  The import
itself is measured separately as ``setup_s``.

Jobs run in whole rounds (see workloads.py) until ``--seconds`` have
passed.  Every output is checked against reference.py, which does not
import ``cayleycss``, after the timed loop.  The last line of stdout is
one JSON object; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a run that alternates untraced
and traced copies of each round (see tracer.py).  The traced copies must
produce the same outputs as the untraced ones.  Spans are written to
``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import marshal
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: A job that runs longer than this is killed and counted as failed.
JOB_LIMIT_S = 120
#: Fresh interpreters started to measure the import cost.
SETUP_SAMPLES = 5
#: Seconds one round took at the commit that defined the benchmark
#: (2-core host).  They fix how many jobs a nominal run holds, and so the
#: tail percentile, identically on every commit.
NOMINAL_ROUND_S = {"tower": 6.5, "distance": 7.5, "verify": 5.75,
                   "cover": 4.8}
TAIL_BEYOND = 10


@dataclasses.dataclass
class Result:
    exit_code: int
    wall_s: float
    maxrss_kb: int
    stdout: str = ""
    stderr: str = ""
    export: bytes = b""
    spans: list = dataclasses.field(default_factory=list)


def _child(job, paths, traced: bool, job_id: int) -> int:
    """Body of the forked child; returns its exit code."""
    signal.alarm(JOB_LIMIT_S)
    for fd, path in ((1, paths["out"]), (2, paths["err"])):
        target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(target, fd)
        os.close(target)
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", closefd=False)
    tracer = Tracer(job=job_id) if traced else None
    if tracer:
        tracer.install()
    try:
        if job.readback:
            run = readback
            if tracer:
                run = tracer.span("bench.readback", readback)
            code = run(*job.readback)
        else:
            sys.argv = ["cayley-css"] + job.argv
            try:
                code = sys.modules["cayleycss.cli"].main(job.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        if tracer:
            tracer.remove()
        sys.stdout.flush()
        sys.stderr.flush()
    if tracer:
        with open(paths["spans"], "wb") as fh:
            marshal.dump(tracer.spans, fh)
    return code


def readback(fmt: str, path: str) -> int:
    """Library job: read an exported matrix back and rebuild the code,
    the one path that runs gf2.is_self_orthogonal at scale."""
    css = sys.modules["cayleycss.css"]
    formats = sys.modules["cayleycss.formats"]
    code = css.css_from_matrix(formats.read_matrix(fmt, path))
    print(json.dumps({"N": code.N, "K": code.K, "rank": code.rank}))
    return 0


def run_job(job, workdir: Path, traced: bool, job_id: int) -> Result:
    paths = {k: workdir / f"job{job_id}.{k}" for k in ("out", "err", "spans")}
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            code = _child(job, paths, traced, job_id)
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    result = Result(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss)
    result.stdout = paths["out"].read_text()
    result.stderr = paths["err"].read_text()
    if traced and paths["spans"].exists():
        result.spans = marshal.loads(paths["spans"].read_bytes())
    for p in paths.values():
        p.unlink(missing_ok=True)
    return result


def _retarget(job, suffix: str):
    """The same job writing its export to another file."""
    if not job.export:
        return job
    fmt, path = job.export
    new = path + suffix
    argv = [new if a == path else a for a in job.argv]
    return dataclasses.replace(job, argv=argv, export=(fmt, new))


def _normalized(result: Result):
    """Output with timings removed, for traced/untraced identity."""
    try:
        report = json.loads(result.stdout)
    except ValueError:
        report = result.stdout
    if isinstance(report, dict):
        report.pop("timings", None)
        for check in report.get("checks", []):
            check.pop("elapsed_s", None)
        report.pop("argv", None)
        report.get("outputs", {}).pop("path", None)
    digest = hashlib.sha256(result.export).hexdigest()
    return result.exit_code, json.dumps(report, sort_keys=True), digest


def measure_setup() -> list[float]:
    """Fresh interpreters importing cayleycss.cli, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import cayleycss.cli"],
            env=env, check=True, cwd=ROOT,
        )
        samples.append(time.perf_counter() - start)
    return samples


def tail(times: list[float], workload: str, seconds: int, per_round: int):
    """The highest percentile with TAIL_BEYOND jobs beyond it in a run of
    nominal length; p100 (the slowest job) when a nominal run holds too
    few jobs.  Returns (value, percentile, jobs beyond it here)."""
    rounds = max(1, math.ceil(seconds / NOMINAL_ROUND_S[workload]))
    nominal = rounds * per_round
    if nominal > TAIL_BEYOND:
        pct = math.floor(100 * (1 - TAIL_BEYOND / nominal))
    else:
        pct = 100
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], pct, len(ordered) - rank


def _per_layer_metrics(traced: list[Result], overhead: float) -> dict:
    agg = {name: [0, 0.0, 0] for name, *_ in LAYERS}
    accounted = 0.0
    wall = 0.0
    for res in traced:
        selfs = self_times(res.spans)
        for span, self_s in zip(res.spans, selfs):
            entry = agg.setdefault(span[0], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += self_s
            entry[2] += span[5]
        accounted += sum(selfs)
        wall += res.wall_s
    jobs = max(1, len(traced))

    def calls(name):
        return agg[name][0] / jobs

    def self_s(name):
        return agg[name][1] / jobs

    def ns_per_work(name):
        return 1e9 * agg[name][1] / agg[name][2] if agg[name][2] else 0.0

    def ns_per_call(name):
        return 1e9 * agg[name][1] / agg[name][0] if agg[name][0] else 0.0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, *_ in LAYERS:
        put(f"{name}.self_s", self_s(name), "s/job")
    for name in ("gf2.rank", "gf2.in_row_space", "gf2.BitMatrix.mul_vector",
                 "cover.certify_ball_isomorphism", "cayley.ball"):
        put(f"{name}.calls", calls(name), "calls/job")
    put("gf2.kernel_basis.ns_per_vector", ns_per_work("gf2.kernel_basis"),
        "ns")
    mw = "gf2.min_weight_in_span_minus_subspace"
    put(f"{mw}.words", agg[mw][2] / jobs, "words/job")
    put(f"{mw}.ns_per_word", ns_per_work(mw), "ns")
    wm = agg["formats.write_matrix"]
    put("formats.write_matrix.mb_per_s",
        wm[2] / wm[1] / 1e6 if wm[1] else 0.0, "MB/s")
    put("cayley.adjacency_matrix.ns_per_edge",
        ns_per_work("cayley.adjacency_matrix"), "ns")
    put("cover.certify_ball_isomorphism.ns_per_center",
        ns_per_call("cover.certify_ball_isomorphism"), "ns")
    put("cayley.ball.ns_per_vertex", ns_per_work("cayley.ball"), "ns")
    put("trace.overhead_share", overhead, "ratio")
    put("trace.accounted_share", accounted / wall if wall else 0.0, "ratio")
    put("job.outside_spans_s", (wall - accounted) / jobs, "s/job")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so run_job kills the job it waits for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "cayleycss" / "__init__.py").is_file():
        print(f"error: no cayleycss package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cayleycss.cli  # noqa: F401  (jobs fork after this import)

    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclasses.dataclass
class Run:
    done: list  # (job, result, traced) in run order
    loop_s: float
    rounds: int
    per_round: int
    busy_s: dict  # summed job wall time of the untraced and traced halves


def measure(wl, seconds: float, trace: bool, workdir: Path) -> Run:
    """Whole rounds until ``seconds`` have passed.  A traced run runs each
    round twice, untraced and traced, alternating which goes first."""
    done = []
    busy = {False: 0.0, True: 0.0}
    per_round = 0
    index = 0
    start = time.perf_counter()
    while index == 0 or time.perf_counter() - start < seconds:
        jobs = wl.round(index)
        per_round = len(jobs)
        modes = [False]
        if trace:
            modes = [False, True] if index % 2 == 0 else [True, False]
        for traced in modes:
            for job in jobs:
                if traced:
                    job = _retarget(job, ".traced")
                result = run_job(job, workdir, traced, len(done))
                busy[traced] += result.wall_s
                done.append((job, result, traced))
        index += 1
    return Run(done, time.perf_counter() - start, index, per_round, busy)


def check(run: Run, trace: bool) -> list:
    """(job, result, reason) for every output the reference rejects, and
    for every traced output that differs from its untraced twin."""
    failures = []
    outputs = {False: [], True: []}
    for job, result, traced in run.done:
        # Exports stay on disk during the loop so the parent, whose
        # resident set every child inherits, does not grow.
        if job.export:
            path = Path(job.export[1])
            if path.exists():
                result.export = path.read_bytes()
                path.unlink()
        reason = job.check(result)
        if result.exit_code == -signal.SIGALRM:
            reason = f"time limit of {JOB_LIMIT_S} s exceeded"
        if reason:
            failures.append((job, result, reason))
        if trace:
            outputs[traced].append((job, result, _normalized(result)))
        result.export = b""
    for (job, _, plain), (_, res, traced) in zip(outputs[False],
                                                  outputs[True]):
        if plain != traced:
            failures.append((job, res, "traced output differs"))
    return failures


def end_to_end_metrics(run: Run, failed: int, setup: list[float],
                       workload: str, seconds: float) -> tuple[dict, str]:
    times = [r.wall_s for _, r, _ in run.done]
    value, pct, beyond = tail(times, workload, seconds, run.per_round)
    metrics = {
        "jobs_per_s": {"value": (len(times) - failed) / run.loop_s,
                       "unit": "jobs/s"},
        "job_s.p50": {"value": statistics.median(times), "unit": "s"},
        "job_s.tail": {"value": value, "unit": "s"},
        "peak_rss_mb": {
            "value": max(r.maxrss_kb for _, r, _ in run.done) / 1024,
            "unit": "MB",
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    note = (f"job_s.tail is p{pct} with {beyond} of {len(times)} jobs "
            f"beyond it; setup_s is the median of {len(setup)} imports")
    return metrics, note


def _run(args, workdir: Path) -> int:
    clock = time.perf_counter()
    setup = [] if args.trace else measure_setup()
    inputs_s = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    inputs_s = time.perf_counter() - inputs_s
    run = measure(wl, args.seconds, bool(args.trace), workdir)
    check_s = time.perf_counter()
    failures = check(run, bool(args.trace))
    check_s = time.perf_counter() - check_s
    for job, result, reason in failures:
        print(f"FAIL {job.shape} {job.argv or job.readback}: {reason}")
        if result.stderr:
            print("  stderr: " + result.stderr.strip().splitlines()[-1])

    bad = {id(res) for _, res, _ in failures}
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(STATE / f"jobs-{tag}.json", "w") as fh:
        json.dump([{"shape": job.shape, "traced": traced,
                    "wall_s": res.wall_s, "maxrss_kb": res.maxrss_kb,
                    "exit_code": res.exit_code, "ok": id(res) not in bad}
                   for job, res, traced in run.done], fh, indent=0)
    attempted = len(run.done)
    failed = len(bad)
    print(f"workload {args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"{attempted} jobs in {run.loop_s:.2f} s, "
          f"fail_share = {failed / attempted:.4f} ({failed}/{attempted})")
    print(f"inputs {inputs_s:.2f} s, checks {check_s:.2f} s, "
          f"whole run {time.perf_counter() - clock:.2f} s")

    if args.trace:
        busy = run.busy_s
        overhead = busy[True] / busy[False] - 1
        traced = [r for _, r, t in run.done if t]
        metrics = _per_layer_metrics(traced, overhead)
        trace_path = STATE / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "job", "work"],
                 "jobs": [{"job": i, "shape": job.shape,
                           "wall_s": res.wall_s, "spans": res.spans}
                          for i, (job, res, t) in enumerate(run.done) if t]},
                fh,
            )
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, note = end_to_end_metrics(run, failed, setup,
                                           args.workload, args.seconds)
        print(note)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
