"""One round of the benchmark's ``tower``, ``verify`` and ``cover``
workloads, run in this process, each output passed to its own check in
``perfbench/reference.py``: a wrong output fails here, before any
benchmark run."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from cayleycss import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``run`` module, which imports ``workloads``, and
    ``workloads`` itself, loaded with perfbench/ first on the path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, workloads


def run_in_process(run, job):
    """The job's Result as the harness checks it: exit code, stdout and
    the exported file read back."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.readback(*job.readback) if job.readback else cli.main(
            job.argv
        )
    result = run.Result(code, 0.0, 0, stdout=out.getvalue())
    if job.export:
        result.export = Path(job.export[1]).read_bytes()
    return result


@pytest.mark.parametrize("name", ["tower", "verify", "cover"])
def test_one_round_passes_the_reference_checks(bench, tmp_path, name):
    run, workloads = bench
    wl = workloads.WORKLOADS[name](seed=1, workdir=tmp_path)
    jobs = wl.round(0)
    assert jobs
    failures = [(job.shape, reason) for job in jobs
                if (reason := job.check(run_in_process(run, job)))]
    assert failures == []
