"""Command-line front end: build/export matrices, compute code
parameters, run verification suites, certify covers, and print
logical-witness reports as machine-readable JSON.

Exit codes: 0 success, 2 precondition violation, 3 verification
failure, 4 enumeration/size budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from . import __version__, cover, css, formats, gf2, repetition, verify
from .cayley import (
    GeneratorSet,
    MAX_MATERIALIZED_DIMENSION,
    SizeGuardError,
    adjacency_matrix,
    format_small_word,
)
from .gf2 import DimensionBudgetError
from .smallcode import ClassicalCode, InvalidGeneratorError, build_parity_check
from .verify import SUITE_NAMES, torus_adjacency

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3
EXIT_BUDGET = 4

INDEXING_CONVENTION = (
    "coordinate x_i is integer bit 2^(i-1); big-word position p is the "
    "vertex with integer value p"
)

DEFAULT_SEED = 20240901


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_PRECONDITION):
        super().__init__(message)
        self.code = code


def parse_n_range(text: str) -> list[int]:
    """Parse "3..13" or a single "5" into a list of integers."""
    parts = text.split("..", 1)
    try:
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        raise CliError(
            f"--n must be an integer or a range LO..HI, got {text!r}"
        ) from None
    if lo > hi:
        raise CliError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def resolve_generators(args) -> tuple[int, GeneratorSet]:
    """Turn --family/--m/--n/--gens into a concrete generator set."""
    family = args.family
    if family == "repetition":
        n = args.n
        if n is None:
            raise CliError("--family repetition needs --n")
        if n < 3:
            raise CliError(f"the tower starts at n = 3, got --n {n}")
        return n, repetition.generators(n)
    if family == "hypercube":
        n = args.n if args.n is not None else args.m
        if n is None:
            raise CliError("--family hypercube needs --n or --m")
        return n, GeneratorSet.canonical(n)
    if family == "custom":
        if args.m is None or not args.gens:
            raise CliError("--family custom needs --m and --gens")
        return args.m, GeneratorSet.from_strings(args.m, args.gens)
    raise CliError(f"family {family!r} has no F_2^m generator set")


def make_report(args, inputs: dict, outputs: dict,
                checks: list, started: float) -> dict:
    return {
        "tool": "cayley-css",
        "version": __version__,
        "command": args.command,
        "argv": sys.argv[1:],
        "indexing_convention": INDEXING_CONVENTION,
        "inputs": inputs,
        "outputs": outputs,
        "checks": sorted(
            (c.as_dict() for c in checks), key=lambda c: c["name"]
        ),
        "timings": {"total_s": round(time.perf_counter() - started, 6)},
        "seed": args.seed,
        "threads": args.threads,
    }


def emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args, started: float) -> int:
    if not args.out:
        raise CliError("build needs --out")
    if args.family == "z2n-torus":
        if args.n is None:
            raise CliError("--family z2n-torus needs --n")
        M = torus_adjacency(args.n)
        inputs = {"family": "z2n-torus", "n": args.n}
    else:
        m, S = resolve_generators(args)
        M = adjacency_matrix(m, S)
        inputs = {"m": m, "generators": S.as_strings()}
    formats.write_matrix(M, args.format, args.out)
    report = make_report(
        args, inputs,
        {"rows": M.rows, "cols": M.cols, "format": args.format,
         "path": args.out},
        [], started,
    )
    emit(report, None)
    return EXIT_OK


def cmd_params(args, started: float) -> int:
    m, S = resolve_generators(args)
    code = css.build_css(m, S)
    outputs: dict = {"N": code.N, "K": code.K, "rank": code.rank}
    if code.is_trivial:
        outputs["D"] = {"method": "exact", "trivial": True}
        outputs["note"] = "self-dual: kernel equals row space, no logical words"
    else:
        kernel_dim = code.N - code.rank
        if kernel_dim <= args.exact_budget:
            report = css.distance_exact(code, args.exact_budget)
            outputs["D"] = {
                "method": "exact",
                "value": report.value,
                "witness_support": report.witness.support(),
            }
        elif args.family == "repetition" and m % 2 == 1:
            outputs["D"] = {
                "method": "witness-upper",
                "upper": repetition.min_weight_witness(m).weight,
                "claimed": repetition.parameters(m)[2],
                "label": "paper-claimed, witness-upper-bound-verified",
            }
        else:
            raise DimensionBudgetError(kernel_dim, args.exact_budget)
    report = make_report(
        args, {"m": m, "generators": S.as_strings()}, outputs, [], started
    )
    emit(report, args.out)
    return EXIT_OK


def cover_code(args) -> ClassicalCode:
    """The classical code [I_m | W] of --m and --gens."""
    W = GeneratorSet.from_strings(args.m, args.gens).elements
    try:
        return build_parity_check(args.m, W)
    except InvalidGeneratorError as exc:
        raise CliError(str(exc))


def cmd_verify(args, started: float) -> int:
    ns = parse_n_range(args.n) if args.n else list(range(3, 14))
    if ns[0] < 3:
        raise CliError(f"the tower starts at n = 3, got --n {args.n}")
    if ns[-1] > MAX_MATERIALIZED_DIMENSION:
        raise SizeGuardError(
            f"--n {args.n} exceeds the m <= "
            f"{MAX_MATERIALIZED_DIMENSION} matrix guard"
        )
    if (args.m is None) != (not args.gens):
        raise CliError("--m and --gens go together (cover suite)")
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    # Checked here, so that bad generators and an over-size cover sweep
    # are refused before any suite.
    W = None
    if args.gens:
        code = cover_code(args)
        W = code.W
        if "cover" in names:
            cm = cover.CoverMap(code)
            cover.check_sweep_length(cm)
            cover.check_sweep_size(cm, range(cm.safe_radius + 1))

    def run(name):
        return verify.run_suite(
            name, ns, seed=args.seed, m=args.m, W=W,
            budget=args.exact_budget,
        )

    # Threads change the wall time only; the report is the same.
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        mapper = pool.map if args.threads > 1 else map
        suites = list(mapper(run, names))
    items = [c for suite in suites for c in suite]
    if not items:
        raise CliError(
            f"suite {args.suite} has no check for --n {ns[0]}..{ns[-1]}"
        )
    for name, suite in zip(names, suites):
        skipped = verify.skipped_sizes(name, suite, ns)
        if skipped:
            sizes = ", ".join(map(str, skipped))
            print(f"note: suite {name} has no check at n = {sizes}",
                  file=sys.stderr)
    failed = [c for c in items if not c.ok]
    report = make_report(
        args,
        {"suite": args.suite, "n_range": ns,
         "m": args.m, "W": list(args.gens or [])},
        {"passed": len(items) - len(failed), "failed": len(failed)},
        items, started,
    )
    emit(report, args.out)
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_cover(args, started: float) -> int:
    if args.m is None or not args.gens:
        raise CliError("cover needs --m and --gens")
    cm = cover.CoverMap(cover_code(args))
    cover.check_sweep_length(cm)
    radius = args.radius if args.radius is not None else cm.safe_radius
    cover.check_sweep_size(cm, (radius,))
    centers_checked, cert = cover.certify_all_centers(cm, radius)
    counterexample = None
    if cert is not None:
        counterexample = {
            "center": cert.center,
            "first": cert.first,
            "second": cert.second,
            "kind": cert.kind,
        }
    outputs = {
        "certificate": {
            "radius": radius,
            "centers_checked": centers_checked,
            "status": "collision" if counterexample else "isomorphism",
            **({"counterexample": counterexample} if counterexample else {}),
        },
        "classical_distance": cm.classical_distance,
        "safe_radius": cm.safe_radius,
    }
    report = make_report(
        args, {"m": args.m, "W": list(args.gens)}, outputs, [], started
    )
    emit(report, args.out)
    return EXIT_VERIFICATION if counterexample else EXIT_OK


def cmd_witness(args, started: float) -> int:
    if args.n is None:
        raise CliError("witness needs --n")
    if args.n % 2 == 0:
        raise CliError(f"witnesses exist for odd n only, got {args.n}")
    w, x, cert = repetition.certified_witness(args.n)
    support = x.tolist()
    outputs = {
        "n": args.n,
        "weight": w.weight,
        "support": support,
        "support_bitstrings": [format_small_word(v, args.n)
                               for v in support],
        "in_kernel": cert["in_kernel"],
        "in_row_space": False,
        "classification": css.WordClass.LOGICAL.value,
        "certificate": cert,
    }
    report = make_report(args, {"n": args.n}, outputs, [], started)
    emit(report, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-css",
        description=(
            "CSS codes from Cayley graphs over F_2^m: build, measure, "
            "verify"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--m", type=int, help="group dimension")
        # --n stays a string so verify can take a range like "3..13".
        p.add_argument("--n", help="family parameter (verify: range LO..HI)")
        p.add_argument(
            "--gens",
            type=lambda t: t.split(","),
            help="comma-separated generator bitstrings, x1 first",
        )
        p.add_argument(
            "--family",
            choices=("repetition", "hypercube", "custom", "z2n-torus"),
            default="custom",
        )
        p.add_argument(
            "--exact-budget", type=int,
            default=gf2.DEFAULT_ENUMERATION_BUDGET,
            help="max kernel dimension for exhaustive distance search",
        )
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        # Parsed in check_options, so a bad CAYLEY_CSS_THREADS exits 2.
        p.add_argument(
            "--threads", default=os.environ.get("CAYLEY_CSS_THREADS", "1")
        )
        p.add_argument("--out", help="output file (default stdout)")

    p_build = sub.add_parser("build", help="export an adjacency matrix")
    common(p_build)
    p_build.add_argument(
        "--format", choices=formats.FORMAT_NAMES, default="alist"
    )

    p_params = sub.add_parser("params", help="compute [[N, K, D]]")
    common(p_params)

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

    p_witness = sub.add_parser(
        "witness", help="minimum-weight logical word of the tower"
    )
    common(p_witness)
    return parser


def check_options(args) -> None:
    """Refuse malformed or out-of-range options before any work."""
    if args.n is not None and args.command != "verify":
        try:
            args.n = int(args.n)
        except ValueError:
            raise CliError(f"--n must be an integer, got {args.n!r}") from None
    try:
        args.threads = int(args.threads)
    except ValueError:
        raise CliError(
            f"--threads must be an integer, got {args.threads!r}"
        ) from None
    if args.threads < 1:
        raise CliError(f"--threads must be at least 1, got {args.threads}")
    if not 0 <= args.exact_budget <= gf2.MAX_ENUMERATION_BUDGET:
        raise CliError(
            f"--exact-budget must be between 0 and "
            f"{gf2.MAX_ENUMERATION_BUDGET}, got {args.exact_budget}"
        )
    if getattr(args, "radius", None) is not None and args.radius < 0:
        raise CliError(f"--radius must be at least 0, got {args.radius}")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "build": cmd_build,
        "params": cmd_params,
        "verify": cmd_verify,
        "cover": cmd_cover,
        "witness": cmd_witness,
    }
    try:
        check_options(args)
        return handlers[args.command](args, time.perf_counter())
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DimensionBudgetError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        # Bad generators, a matrix that is not self-orthogonal, an
        # unreadable file: every other refusal is a precondition.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
