"""Command-line front end: build/export matrices, compute code
parameters, run verification suites, certify covers, and print
logical-witness reports as machine-readable JSON.

Usage: ``cayley-css COMMAND [--opt value | --opt=value]...``.  Each
option takes one value (given twice, the last counts) and is spelled in
full.  An unknown command, an option the command or its --family does
not read, a missing value, a non-integer or a bad choice prints one
``error:`` line and exits 2 before any work.

Exit codes: 0 success, 2 precondition violation, 3 verification
failure, 4 enumeration/size budget exceeded.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace
from typing import Optional

from . import __version__, cover, css, formats, gf2, repetition, verify
from .cayley import (
    GeneratorSet,
    MAX_MATERIALIZED_DIMENSION,
    SizeGuardError,
    adjacency_matrix,
    format_small_word,
)
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
    """A malformed or inconsistent option: exit 2."""


def parse_n_range(text: str) -> list[int]:
    """Parse "3..13" or a single "5" into the tower sizes it names,
    refusing sizes outside 3..MAX_WITNESS_DIMENSION from its two ends
    before the list is built."""
    parts = text.split("..", 1)
    try:
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        raise CliError(
            f"--n must be an integer or a range LO..HI, got {text!r}"
        ) from None
    if lo > hi:
        raise CliError(f"empty range {text!r}")
    if lo < 3:
        raise CliError(f"the tower starts at n = 3, got --n {text}")
    if hi > repetition.MAX_WITNESS_DIMENSION:
        raise SizeGuardError(
            f"--n {text} exceeds the n <= "
            f"{repetition.MAX_WITNESS_DIMENSION} guard"
        )
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
        "argv": args.argv,
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
    witness = claimed = None
    if args.family == "repetition":
        witness = repetition.min_weight_witness(m)
        claimed = repetition.parameters(m)[2]
    D = css.distance(code, args.exact_budget, witness, claimed)
    outputs = {"N": code.N, "K": code.K, "rank": code.rank, "D": D.as_dict()}
    if D.trivial:
        outputs["note"] = "self-dual: kernel equals row space, no logical words"
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
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    # Only the sized suites build anything of size n.
    sized = any(name in verify.SIZED_SUITES for name in names)
    if sized and ns[-1] > MAX_MATERIALIZED_DIMENSION:
        raise SizeGuardError(
            f"--n {args.n} exceeds the m <= "
            f"{MAX_MATERIALIZED_DIMENSION} matrix guard"
        )
    if (args.m is None) != (not args.gens):
        raise CliError("--m and --gens go together (cover suite)")
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
    if args.threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            suites = list(pool.map(run, names))
    else:
        suites = list(map(run, names))
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


# Option: (converter or tuple of choices, the commands that read it or
# None for all, default, help).  Command c runs cmd_c.
OPTIONS = {
    "--m": (int, ("build", "params", "verify", "cover"), None,
            "group dimension"),
    # --n stays a string so verify can take a range like "3..13".
    "--n": (str, ("build", "params", "verify", "witness"), None,
            "family parameter (verify: range LO..HI)"),
    "--gens": (lambda t: t.split(","), ("build", "params", "verify", "cover"),
               None, "comma-separated generator bitstrings, x1 first"),
    "--family": (("repetition", "hypercube", "custom", "z2n-torus"),
                 ("build", "params"), "custom", "generator family"),
    "--exact-budget": (int, ("params", "verify"),
                       gf2.DEFAULT_ENUMERATION_BUDGET,
                       "max kernel dimension of a block for exact distance"),
    "--seed": (int, None, DEFAULT_SEED, "seed of the randomized checks"),
    "--threads": (int, None, None, "threads for the suites of verify "
                  "(default CAYLEY_CSS_THREADS, else 1)"),
    "--out": (str, None, None, "output file (default stdout)"),
    "--format": (formats.FORMAT_NAMES, ("build",), "alist", "export format"),
    "--suite": (SUITE_NAMES + ("all",), ("verify",), "all", "suite to run"),
    "--radius": (int, ("cover",), None, "ball radius (default (d-2)//2)"),
}


def help_text(commands: list[str]) -> str:
    lines = ["usage: cayley-css COMMAND [--OPTION VALUE]... | --version",
             f"commands: {', '.join(commands)}", "options:"]
    for name, (convert, takers, default, text) in OPTIONS.items():
        if isinstance(convert, tuple):
            text += f"; one of {', '.join(convert)}"
        text += f"; {', '.join(takers)} only" if takers else ""
        text += f"; default {default}" if default is not None else ""
        lines.append(f"  {name:<15}{text}")
    return "\n".join(lines)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read COMMAND [--opt value | --opt=value]... against OPTIONS."""
    commands = [name[4:] for name in globals() if name.startswith("cmd_")]
    shown = [w for w in argv if w in ("-h", "--help", "--version")]
    if shown:
        print(help_text(commands) if shown[0] != "--version"
              else f"cayley-css {__version__}")
        raise SystemExit(0)
    if not argv or argv[0] not in commands:
        raise CliError(f"start with a command: {', '.join(commands)}")
    command, words = argv[0], iter(argv[1:])
    # Converted with the rest, so a bad CAYLEY_CSS_THREADS exits 2.
    texts = {"--threads": os.environ.get("CAYLEY_CSS_THREADS", "1")}
    for word in words:
        name, eq, text = word.partition("=")
        takers = (OPTIONS[name][1] or commands) if name in OPTIONS else ()
        if command not in takers:
            raise CliError(f"{command} does not take {name!r} (see --help)")
        if not eq and (text := next(words, "--")).startswith("--"):
            raise CliError(f"{name} needs a value")
        texts[name] = text
    values = {name: default for name, (_, takers, default, _)
              in OPTIONS.items() if command in (takers or commands)}
    for name, text in texts.items():
        convert = OPTIONS[name][0]
        choices = convert if isinstance(convert, tuple) else None
        try:  # int() and choices.index raise ValueError, nothing else
            values[name] = (choices[choices.index(text)] if choices
                            else convert(text))
        except ValueError:
            want = f"one of {', '.join(choices)}" if choices else "an integer"
            raise CliError(f"{name} must be {want}, got {text!r}") from None
    return SimpleNamespace(command=command, argv=argv, **{
        name[2:].replace("-", "_"): value for name, value in values.items()
    })


def check_options(args) -> None:
    """Refuse malformed or out-of-range options before any work."""
    if getattr(args, "n", None) is not None and args.command != "verify":
        try:
            args.n = int(args.n)
        except ValueError:
            raise CliError(f"--n must be an integer, got {args.n!r}") from None
    if hasattr(args, "family"):  # build and params: what the family reads
        reads = {"repetition": "n", "custom": "m gens", "z2n-torus": "n",
                 "hypercube": "m" if args.n is None else "n"}[args.family]
        said = "--" + reads.replace(" ", " and --")
        for name in ("n", "m", "gens"):
            if getattr(args, name) is not None and name not in reads.split():
                raise CliError(f"--family {args.family} reads {said}, "
                               f"not --{name}")
    if args.threads < 1:
        raise CliError(f"--threads must be at least 1, got {args.threads}")
    budget = getattr(args, "exact_budget", 0)
    if not 0 <= budget <= gf2.MAX_ENUMERATION_BUDGET:
        raise CliError(
            f"--exact-budget must be between 0 and "
            f"{gf2.MAX_ENUMERATION_BUDGET}, got {budget}"
        )
    if getattr(args, "radius", None) is not None and args.radius < 0:
        raise CliError(f"--radius must be at least 0, got {args.radius}")


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        check_options(args)
        return globals()[f"cmd_{args.command}"](args, time.perf_counter())
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (gf2.DimensionBudgetError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        # Bad generators, a matrix that is not self-orthogonal, an
        # unreadable file: every other refusal is a precondition.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
