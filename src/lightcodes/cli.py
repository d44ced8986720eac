"""Command-line interface.

One binary with subcommands; every random quantity flows from an explicit
--seed so reruns are byte-identical.  Exit codes: 0 success, 1 usage
error, 2 input error, 3 resource limit, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as bounds_mod
from . import codes as codes_mod
from .datagen import SCENARIOS, InputFormatError, generate_data
from .experiments import (
    SimulationConfig,
    empirical_critical_table,
    replicate_error_counts,
    type2_experiment,
)
from .johnson import ResourceLimitError, write_orientation_file
from .learners import make_learner
from .lpocv import histogram_from_errors, null_error_counts
from .wilcoxon import _check_alpha, wmw_critical_grid
from .words import read_word_file, write_word_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

DEFAULT_SIZES = (12, 16, 20, 24, 28, 32, 36, 40)


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_range(text: str) -> range:
    """'3..6' -> range(3, 7); '4' -> range(4, 5)."""
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return range(int(lo), int(hi) + 1)
        return range(int(lo), int(lo) + 1)
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected LO..HI") from None


def _positive_int(text: str) -> int:
    """argparse type for a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _sample_sizes(text: str) -> tuple[int, ...]:
    """argparse type for --sizes: comma-separated even sample sizes."""
    sizes = tuple(_positive_int(part) for part in text.split(","))
    for size in sizes:
        if size % 2:
            raise argparse.ArgumentTypeError(f"sample size {size} must be even")
    return sizes


def _emit(path, lines) -> None:
    text = (line + "\n" for line in lines)
    if path is None or path == "-":
        sys.stdout.writelines(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as stream:
            stream.writelines(text)


def _grid_lines(cells: dict, max_size: int) -> list[str]:
    """Critical-value grid CSV: rows = ones count, columns = zeros count."""
    header = "w," + ",".join(str(n0) for n0 in range(1, max_size + 1))
    lines = [header]
    for w in range(1, max_size + 1):
        row = [str(w)]
        for n0 in range(1, max_size + 1):
            value = cells.get((w, n0))
            row.append("" if value is None else str(value))
        lines.append(",".join(row))
    return lines


def cmd_bounds(args) -> int:
    n_range = _parse_range(args.n_range)
    w_range = _parse_range(args.w_range)
    W_range = _parse_range(args.W_range)
    if not n_range or not w_range or not W_range:
        raise UsageError("ranges must be nonempty")
    if W_range.start < 0:
        raise UsageError(f"--W-range must be nonnegative, got {args.W_range!r}")
    records = bounds_mod.assemble_table(
        n_range, w_range, W_range, exact_when_small=args.exact_when_small
    )
    lines = ["n,w,W,lower,upper,exact"]
    for rec in records:
        exact = "" if rec.exact is None else str(rec.exact)
        lines.append(f"{rec.n},{rec.w},{rec.W},{rec.lower},{rec.upper},{exact}")
    _emit(args.out, lines)
    return EXIT_OK


def _read_configs(path) -> list[tuple[str, str, int]]:
    """Config lines 'learner;params;scenario;seed' -> (learner spec, scenario, seed)."""
    entries = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(";")
                if len(parts) != 4:
                    raise InputFormatError(
                        f"{path}:{lineno}: expected 'learner;params;scenario;seed'"
                    )
                name, params, scenario, seed = (p.strip() for p in parts)
                spec = f"{name};{params}" if params else name
                try:
                    make_learner(spec)
                except ValueError as exc:
                    raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
                if scenario not in SCENARIOS and not scenario.startswith("csv:"):
                    raise InputFormatError(f"{path}:{lineno}: unknown scenario {scenario!r}")
                try:
                    value = int(seed)
                except ValueError:
                    value = -1
                if value < 0:
                    raise InputFormatError(
                        f"{path}:{lineno}: bad seed {seed!r}, expected a non-negative integer"
                    )
                entries.append((spec, scenario, value))
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    if not entries:
        raise InputFormatError(f"{path}: no config lines")
    return entries


def cmd_critical(args) -> int:
    cells: dict[tuple[int, int], int | None] = {}
    if args.test == "empirical":
        if not args.configs:
            raise UsageError("--test empirical requires --configs")
        entries = _read_configs(args.configs)
        configs = [
            SimulationConfig(spec, scenario, w + n0, w, args.reps, seed)
            for (spec, scenario, seed) in entries
            for w in range(1, args.max_size + 1)
            for n0 in range(1, args.max_size + 1)
        ]
        cells = empirical_critical_table(configs, _check_alpha(args.alpha))
    elif args.test == "wmw":
        cells = wmw_critical_grid(args.alpha, args.max_size)
    else:
        kind, alpha = args.test.removeprefix("lightcode-"), _check_alpha(args.alpha)
        for w in range(1, args.max_size + 1):
            for n0 in range(1, args.max_size + 1):
                cells[(w, n0)] = bounds_mod.lightcode_critical(alpha, w + n0, w, kind)
    _emit(args.out, _grid_lines(cells, args.max_size))
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.method == "tournament":
        if args.w != 1:
            raise UsageError("tournament construction is for weight w=1")
        code = codes_mod.construct_tournament(args.n, args.W)
    elif args.method == "orbit":
        if args.w != 2:
            raise UsageError("orbit construction is for weight w=2")
        code = codes_mod.construct_orbit(args.n, args.W)
    else:
        code = codes_mod.construct_graham_sloane(args.n, args.w, args.W)
    write_word_file(args.out, code.words)
    if args.witness:
        write_orientation_file(args.witness, code.witness)
    print(f"wrote {code.size} words to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        words = read_word_file(args.code)
    except (ValueError, OSError) as exc:
        raise InputFormatError(str(exc)) from exc
    code = codes_mod.LightCode(words[0].n, words[0].w, args.W, tuple(words))
    ok, witness = codes_mod.verify_light(code)
    print(f"words: {code.size}")
    print(f"n: {code.n}  w: {code.w}  W: {args.W}")
    print(f"feasible: {'yes' if ok else 'no'}")
    if ok and args.witness and witness is not None:
        write_orientation_file(args.witness, witness)
        print(f"witness: {args.witness}")
    if not ok:
        raise VerificationFailure(f"code is not {args.W}-light")
    return EXIT_OK


def _simulate_null(args, learner) -> list[str]:
    n, w = args.n, args.w
    if args.over_samples:
        errors = replicate_error_counts(learner, args.scenario, n, w, args.reps, args.seed)
    else:
        data, _ = generate_data(args.scenario, n, w, args.seed)
        errors, _ = null_error_counts(learner, data, w, args.permutations, (args.seed, 1))
    hist = histogram_from_errors(errors, n, w)
    lines = ["errors,count"]
    lines += [f"{k},{c}" for k, c in enumerate(hist.counts)]
    return lines


def _simulate_type2(args, learner) -> list[str]:
    results = type2_experiment(
        learner, args.scenario, args.sizes, args.alpha, args.reps, args.seed
    )
    lines = ["size,failure_proportion"]
    lines += [f"{size},{float(frac)!r}" for size, frac in results.items()]
    return lines


def cmd_simulate(args) -> int:
    try:
        learner = make_learner(args.learner)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.scenario not in SCENARIOS and not args.scenario.startswith("csv:"):
        raise UsageError(f"unknown scenario {args.scenario!r}")
    if args.mode == "null":
        lines = _simulate_null(args, learner)
    else:
        lines = _simulate_type2(args, learner)
    _emit(args.out, lines)
    return EXIT_OK


def cmd_exact_l(args) -> int:
    size, code = codes_mod.exact_L(args.n, args.w, args.W, return_code=True)
    print(f"exact maximum size for n={args.n} w={args.w} W={args.W}: {size}")
    if args.out:
        write_word_file(args.out, code.words)
        print(f"code: {args.out}")
    if args.witness:
        write_orientation_file(args.witness, code.witness)
        print(f"witness: {args.witness}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lightcodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="bound table CSV for ranges of (n, w, W)")
    p.add_argument("--n-range", required=True)
    p.add_argument("--w-range", required=True)
    p.add_argument("--W-range", required=True)
    p.add_argument("--exact-when-small", action="store_true",
                   help=f"run the exhaustive search when C(n,w) <= {codes_mod.EXACT_SEARCH_LIMIT}")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("critical", help="critical-value grid CSV")
    p.add_argument("--test", required=True,
                   choices=["wmw", "lightcode-lower", "lightcode-upper", "empirical"])
    p.add_argument("--alpha", default="0.05")
    p.add_argument("--max-size", type=_positive_int, default=20)
    p.add_argument("--configs", default=None,
                   help="empirical mode: file of 'learner;params;scenario;seed' lines")
    p.add_argument("--reps", type=_positive_int, default=200,
                   help="empirical mode: replications per cell and config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("construct", help="build a W-light code and its witness")
    p.add_argument("--method", required=True,
                   choices=["tournament", "orbit", "graham-sloane"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--witness", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check W-lightness of a word file")
    p.add_argument("--code", required=True)
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--witness", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="null histograms and type-II curves")
    p.add_argument("--mode", required=True, choices=["null", "type2"])
    p.add_argument("--learner", required=True,
                   help="learner spec, e.g. 'ridge;lambda=1' or 'knn;k=3'")
    p.add_argument("--scenario", default="null-gauss-10d")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--w", type=int, default=10)
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.add_argument("--permutations", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--over-samples", action="store_true",
                   help="null mode: histogram over fresh samples instead of labelings")
    p.add_argument("--sizes", type=_sample_sizes,
                   default=",".join(str(s) for s in DEFAULT_SIZES))
    p.add_argument("--alpha", default="0.05")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact-l", help="exhaustive maximum W-light code size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--witness", default=None)
    p.set_defaults(func=cmd_exact_l)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputFormatError, OSError) as exc:  # InputFormatError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except AssertionError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
