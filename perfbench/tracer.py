"""Layer tracer for the benchmark: wraps public functions of the
``cayleycss`` modules from outside the package and records one span per
call.

Installing the tracer replaces each traced function in every
``cayleycss`` module namespace that holds it, so names bound with
``from ... import`` (``css.adjacency_matrix``, ``cover.ball``,
``repetition.halved_matrix`` and the like) are traced too.  Methods are
replaced on their class.  Removing it restores every original binding.

Per-element helpers (``CoverMap.project``, ``BitVector.*``) are left
alone on purpose: they run 10^5 to 10^7 times per job and a span around
each would measure the tracer rather than the layer.

Spans are kept in memory as ``(name, start, end, parent, job, work)``
tuples; ``parent`` is the index of the enclosing span in the same job or
-1, and ``work`` is a count taken from the call's arguments or result.
The tracer keeps one call stack, so it is only valid for single-threaded
jobs (the benchmark runs ``verify`` with ``--threads 1``).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _edges(args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    return (1 << m) * len(_arg(args, kwargs, 1, "S").elements)


def _words(args, kwargs, result):
    return 1 << len(_arg(args, kwargs, 0, "span_basis"))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 2, "path"))


#: (span name, module, attribute path, work count or None).  The span
#: name is the metric prefix.  Work counts are taken from outside the
#: program: the kernel dimension from the arguments, 2^m |S| edges, the
#: weight of the returned ball, the size of the written file.
LAYERS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli.main", "cli", "main", None),
    ("gf2.rank", "gf2", "rank", None),
    ("gf2.in_row_space", "gf2", "in_row_space", None),
    ("gf2.kernel_basis", "gf2", "kernel_basis",
     lambda a, k, r: len(r)),
    ("gf2.solve_preimage", "gf2", "solve_preimage", None),
    ("gf2.BitMatrix.mul_vector", "gf2", "BitMatrix.mul_vector", None),
    ("gf2.is_self_orthogonal", "gf2", "is_self_orthogonal", None),
    ("gf2.min_weight_in_span_minus_subspace", "gf2",
     "min_weight_in_span_minus_subspace", _words),
    ("formats.write_matrix", "formats", "write_matrix", _file_bytes),
    ("formats.read_matrix", "formats", "read_matrix", None),
    ("cayley.adjacency_matrix", "cayley", "adjacency_matrix", _edges),
    ("cayley.ball", "cayley", "ball", lambda a, k, r: r.weight),
    ("cayley.check_self_orthogonal_combinatorial", "cayley",
     "check_self_orthogonal_combinatorial", None),
    ("cayley.algebra_nilpotency_check_f2", "cayley",
     "algebra_nilpotency_check_f2", None),
    ("cayley.halved_matrix", "cayley", "halved_matrix", None),
    ("css.build_css", "css", "build_css", None),
    ("css.classify_word", "css", "classify_word", None),
    ("css.css_from_matrix", "css", "css_from_matrix", None),
    ("css.distance_exact", "css", "distance_exact", None),
    ("cover.certify_ball_isomorphism", "cover",
     "certify_ball_isomorphism", None),
    ("smallcode.min_distance", "smallcode", "min_distance", None),
    ("smallcode.enumerate_codewords", "smallcode",
     "enumerate_codewords", None),
    ("repetition.min_weight_witness", "repetition",
     "min_weight_witness", None),
    ("repetition.conjugation_check", "repetition",
     "conjugation_check", None),
    ("repetition.kernel_basis_recursive", "repetition",
     "kernel_basis_recursive", None),
    ("repetition.build_recursive", "repetition", "build_recursive", None),
) + tuple(
    (f"verify.suite_{suite}", "verify",
     "suite_" + suite.replace("-", "_"), None)
    for suite in ("recursion", "dimension", "distance", "cover",
                  "local-sum", "conjugation", "bipartite", "algebra")
)

PACKAGE = "cayleycss"


@dataclass
class Tracer:
    """Span recorder for one job; ``install``/``remove`` patch the
    package in the current process."""

    job: int = 0
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def span(self, name: str, fn: Callable,
             work: Optional[Callable] = None) -> Callable:
        spans = self.spans
        stack = self._stack
        job = self.job
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, job, 0)
            if work is not None:
                spans[idx] = (name, start, end, parent, job,
                              work(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for name, module, attr, work in LAYERS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self.span(name, original, work)
            if isinstance(owner, type):
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)


def self_times(spans: list) -> list[float]:
    """Span duration minus the time covered by its direct children.

    ``spans`` is one job's list, parents indexed within it."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
