"""Seeded job generators for the four workloads.

A workload is a list of job shapes that makes up one round; the harness
runs whole rounds, so every run holds the same mix of shapes and only
the seeded details (order, generator sets, formats, suite seeds)
change.  The program sees nothing but the generated argv.

Why each workload exists:

* ``tower``: the basis-plus-all-ones family at the top of desk scale
  (n = 9, 11, 13).  Its time goes to elimination (rank and in_row_space
  at every witness level), export and dense transients; the Gray engine
  is idle.
* ``distance``: exact D for random generator sets over F_2^5 with
  kernel dimension 20 to 24 (mostly 20 to 22), plus the tower at n = 3
  and 5.  Nearly all
  the time is the Gray-code enumeration; 32 x 32 elimination is
  negligible.
* ``verify``: the headline ``verify --suite all --n 3..13`` run:
  pure-Python integer loops, a dense J.J matmul and one n = 13
  elimination shared through the in-process cache.
* ``cover``: ball-isomorphism certificates for random [I_m | W] codes,
  n = m + w from 8 to 11 and d from 4 to 10, both parities.  Pure-Python
  BFS and projection with no elimination.  Eight of eleven jobs run at
  r* = floor((d - 2) / 2) and expect isomorphism; three run at r* + 1
  and expect a collision.  The radius is explicit so the
  default-radius formula does not decide what is timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as ref

FORMATS = ("alist", "mtx", "bin", "json")


@dataclass
class Job:
    """One CLI invocation (``argv``) or one library call (``readback``),
    with the reference check for its output."""

    shape: str
    check: Callable
    argv: Optional[list[str]] = None
    readback: Optional[tuple[str, str]] = None  # (format, path)
    export: Optional[tuple[str, str]] = None  # (format, path) written


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def shapes(self, tag: str) -> list[Job]:
        raise NotImplementedError

    def round(self, index: int) -> list[Job]:
        jobs = self.shapes(f"r{index}")
        self.rng.shuffle(jobs)
        return jobs


class Tower(Workload):
    name = "tower"
    READBACK_N = 11

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.readback_fmt = self.rng.choice(FORMATS)
        self.readback_path = workdir / f"tower{self.READBACK_N}.{self.readback_fmt}"
        self.readback_path.write_bytes(
            ref.export_tower(self.READBACK_N, self.readback_fmt)
        )
        self.export_verdicts: dict = {}

    def shapes(self, tag):
        jobs = []
        for n in (9, 11, 13):
            jobs.append(Job(
                f"params-n{n}",
                lambda r, n=n: ref.check_tower_params(r, n),
                ["params", "--family", "repetition", "--n", str(n)],
            ))
            jobs.append(Job(
                f"witness-n{n}",
                lambda r, n=n: ref.check_witness(r, n),
                ["witness", "--n", str(n)],
            ))
        for fmt in FORMATS:
            out = str(self.workdir / f"{tag}-n13.{fmt}")
            jobs.append(Job(
                f"build-n13-{fmt}",
                lambda r, fmt=fmt: ref.check_export(
                    r, 13, fmt, r.export, self.export_verdicts),
                ["build", "--family", "repetition", "--n", "13",
                 "--format", fmt, "--out", out],
                export=(fmt, out),
            ))
        jobs.append(Job(
            "params-hypercube-m12",
            lambda r: ref.check_hypercube_params(r, 12),
            ["params", "--family", "hypercube", "--m", "12"],
        ))
        jobs.append(Job(
            f"readback-n{self.READBACK_N}",
            lambda r: ref.check_readback(r, self.READBACK_N),
            readback=(self.readback_fmt, str(self.readback_path)),
        ))
        return jobs


class Distance(Workload):
    name = "distance"
    M = 5
    #: Kernel dimensions of the random sets in one round: mostly 20 to 22
    #: (2^20 and 2^22 enumerated words), one 24.  With the two tower jobs
    #: a round has 11 shapes and its median falls inside the block of
    #: short jobs, not on the edge between two job sizes.
    KERNEL_DIMS = (20, 20, 20, 20, 20, 22, 22, 22, 24)
    MAX_TRIES = 200_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sets = []
        for dim in self.KERNEL_DIMS:
            self.sets.append(self._draw(dim))

    def _draw(self, dim):
        m = self.M
        taken = {gens for gens, _ in self.sets}
        for _ in range(self.MAX_TRIES):
            size = 2 * self.rng.randint(2, 8)
            gens = tuple(sorted(self.rng.sample(range(1, 1 << m), size)))
            if gens in taken or not ref.pair_count_ok(gens):
                continue
            rows = ref.adjacency_rows(m, gens)
            if (1 << m) - len(ref.echelon(rows)) != dim:
                continue
            expect = ref.css_distance(m, gens)
            if expect["K"] > 0:
                return gens, expect
        raise RuntimeError(f"no generator set with kernel dimension {dim}")

    def shapes(self, tag):
        jobs = []
        for gens, expect in self.sets:
            texts = [ref.format_word(g, self.M) for g in gens]
            jobs.append(Job(
                f"params-m5-dim{expect['kernel_dim']}",
                lambda r, gens=gens, expect=expect:
                    ref.check_distance(r, self.M, gens, expect),
                ["params", "--m", str(self.M), "--gens", ",".join(texts)],
            ))
        for n in (3, 5):
            jobs.append(Job(
                f"params-n{n}",
                lambda r, n=n: ref.check_tower_params(r, n),
                ["params", "--family", "repetition", "--n", str(n)],
            ))
        return jobs


class Verify(Workload):
    name = "verify"

    def shapes(self, tag):
        return [Job(
            "verify-all-3..13",
            ref.check_verify,
            ["verify", "--suite", "all", "--n", "3..13", "--threads", "1",
             "--seed", str(self.rng.randrange(1 << 31))],
        )]


class Cover(Workload):
    name = "cover"
    #: (m, |W|, d, radius offset from r* = floor((d - 2) / 2)).  Offset 0
    #: sweeps every center and expects isomorphism; offset 1 expects a
    #: collision (vertex collision for even d, edge mismatch for odd d).
    #: Most sweeps are at n = 9, so the median and the tail fall inside
    #: one large block of similar jobs; a sweep at n = 10 costs four
    #: times one at n = 9 and at n = 11 sixteen times.
    SHAPES = (
        (6, 2, 4, 0), (6, 3, 4, 0), (7, 2, 4, 0), (5, 4, 4, 0),
        (7, 2, 5, 0), (8, 1, 5, 0), (7, 2, 6, 0), (8, 1, 9, 0),
        (9, 1, 8, 1), (9, 2, 7, 1), (10, 1, 10, 1),
    )
    MAX_TRIES = 200_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.codes = [self._draw(m, w, d) for m, w, d, _ in self.SHAPES]

    def _draw(self, m, w, d):
        basis = {1 << i for i in range(m)}
        candidates = [v for v in range(1, 1 << m) if v not in basis]
        for _ in range(self.MAX_TRIES):
            W = tuple(self.rng.sample(candidates, w))
            if ref.classical_distance(m, W) == d:
                return W
        raise RuntimeError(f"no [I_{m} | W] code with |W| = {w}, d = {d}")

    def shapes(self, tag):
        jobs = []
        for (m, w, d, offset), W in zip(self.SHAPES, self.codes):
            r = (d - 2) // 2 + offset
            jobs.append(Job(
                f"cover-n{m + w}-d{d}-r{r}",
                lambda res, m=m, W=W, r=r: ref.check_cover(res, m, W, r),
                ["cover", "--m", str(m),
                 "--gens", ",".join(ref.format_word(x, m) for x in W),
                 "--radius", str(r)],
            ))
        return jobs


WORKLOADS = {cls.name: cls for cls in (Tower, Distance, Verify, Cover)}
