"""Command-line surface: generate families, solve them, score baselines,
print bounds, verify the full chain, and sweep parameter grids.

Every subcommand is reproducible: identical inputs (including seeds)
produce byte-identical output files.  Regular files are written
atomically (temp file beside the file a path resolves to, then rename),
so an interrupted run never leaves a partial artifact; a FIFO or device
given as the output is written in place.  Exit codes: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import stat
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .baselines import (
    OnlineAlgorithm,
    dynkin_policy,
    evaluate_algorithm,
    monte_carlo_estimate,
    prediction_argmax_policy,
)
from .bounds import (
    alpha_value,
    bound_chain,
    known_presets,
    oracle_optimum,
    ub_display,
    verify_theorem,
)
from .construction import (
    ConstructionParams,
    build_hard_family,
    render_family_csv,
    render_family_markdown,
)
from .errors import ParameterError, SecretaryLabError
from .exact import compare_to_inv_e, decimal_str, format_value, parse_value
from .instances import PriorFamily, load_family, render_family_json
from .policy import Policy, evaluate_policy, require_enumerable, solve_optimal

# The largest --digits, fixed at the interpreter's default int-to-str
# limit; no rendering depends on the limit in force.
MAX_DIGITS_FLAG = 4300
# Bytes an output file buffers before each write to the OS: a streamed
# policy file's writes, 2,026 of up to about 4.1 KB at n = 7, reach the OS
# in 256 KiB pieces (14 raw writes at n = 7, 116 at n = 8), where the
# default 8 KiB buffer makes 487 and 5,252.
WRITE_BUFFER = 256 * 1024

SWEEP_FIELDS = (
    "eps",
    "s",
    "k",
    "row_count",
    "alpha_exact",
    "alpha_decimal",
    "ub_display_exact",
    "ub_display_decimal",
    "dp_optimum_exact",
    "dp_optimum_decimal",
    "vs_inv_e",
)


def _atomic_write(
    path: str | Path, text: str | Callable[[Callable[[str], object]], None]
) -> None:
    """Write ``text``, or the stream that ``text(write)`` hands to
    ``write``, via a temp file beside the file ``path`` resolves to, which
    then replaces it with the mode ``open(path, "w")`` would leave; a FIFO,
    device or other non-regular file is written in place.  A failure
    names ``path`` and, on a regular file, leaves it as it was."""
    stream = text if callable(text) else lambda write: write(text)
    tmp_name = None
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | (0o666 & ~umask)
        if not stat.S_ISREG(mode):
            with open(
                path, "w", buffering=WRITE_BUFFER, encoding="utf-8", newline=""
            ) as handle:
                stream(handle.write)
            return
        target = Path(os.path.realpath(path))
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
        )
        os.fchmod(fd, stat.S_IMODE(mode))
        with os.fdopen(
            fd, "w", buffering=WRITE_BUFFER, encoding="utf-8", newline=""
        ) as handle:
            stream(handle.write)
        os.replace(tmp_name, target)
    except BaseException as exc:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        _atomic_write(output, text)


def _params_from_args(args: argparse.Namespace) -> ConstructionParams:
    if args.eps is None or args.s is None or args.k is None:
        raise ParameterError("--eps, --s and --k are all required here")
    n = getattr(args, "n", None)
    return ConstructionParams(
        mix_eps=_flag_value("--eps", args.eps),
        s=_flag_value("--s", args.s),
        k=args.k,
        n=3 if n is None else n,
    )


def _refuse_mixed_source(args: argparse.Namespace, source: str) -> None:
    """Refuse a parameter flag beside ``source``, which fixes them all."""
    if any(getattr(args, flag) is not None for flag in ("eps", "s", "k", "n")):
        raise ParameterError(f"give either {source} or --eps/--s/--k/--n, not both")


def _flag_value(flag: str, text: str) -> Fraction:
    """parse_value, with a bad value reported under its flag."""
    try:
        return parse_value(text)
    except ValueError as exc:
        raise ParameterError(f"{flag}: {exc}") from None


def _flag_int(flag: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{flag}: not an integer: {text!r}") from None


def _path(text: str) -> str:
    """The type of every path flag: the empty path, which the OS would
    resolve to the working directory, is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("the path is empty")
    return text


def _algorithm(text: str) -> str:
    """The ``--alg`` type: ``policy:`` with an empty file path is a usage
    error; every other name is checked when the rule is built."""
    if text == "policy:":
        raise argparse.ArgumentTypeError("the path after policy: is empty")
    return text


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _digits(text: str) -> int:
    """The ``--digits`` type: an integer in 0..MAX_DIGITS_FLAG, else a usage error."""
    digits = _integer(text)
    if not 0 <= digits <= MAX_DIGITS_FLAG:
        raise argparse.ArgumentTypeError(f"must be in 0..{MAX_DIGITS_FLAG}, got {digits}")
    return digits


def _at_least_one(text: str) -> int:
    """The ``--max-points`` and ``--trials`` type: an integer of at least 1,
    else a usage error."""
    count = _integer(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _family_from_args(args: argparse.Namespace) -> PriorFamily:
    if args.family is not None:
        _refuse_mixed_source(args, "--family")
        return load_family(args.family)
    params = _params_from_args(args)
    require_enumerable(params.n)
    return build_hard_family(params)


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> int:
    family = build_hard_family(_params_from_args(args))
    _atomic_write(args.output, render_family_json(family))
    if args.render == "md":
        sys.stdout.write(render_family_markdown(family) + "\n")
    elif args.render == "csv":
        sys.stdout.write(render_family_csv(family))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    report = solve_optimal(family, constrained=not args.unconstrained)
    # the policy file first: a bad --policy-out fails before any report is out
    if args.policy_out is not None:
        _atomic_write(args.policy_out, report.rule.write_json)
    _emit(report.to_dict(args.digits), args.output)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.metric == "success" and not args.mc:
        args.usage_error("argument --metric: success is only estimated with --mc")
    family = load_family(args.family)
    selector = args.alg
    policy = None
    if selector == "dynkin":
        algorithm = dynkin_policy(family.n)
    elif selector == "pred-argmax":
        algorithm = prediction_argmax_policy(family.prediction().values)
    elif selector.startswith("policy:"):
        policy = Policy.load(selector.removeprefix("policy:"))
        algorithm = OnlineAlgorithm(name="policy", decide=policy.decide)
    else:
        raise ParameterError(
            f"unknown algorithm {selector!r}; use dynkin, pred-argmax, or policy:<file>"
        )
    payload: dict = {"algorithm": algorithm.name, "n": family.n}
    if args.mc:
        estimate = monte_carlo_estimate(
            algorithm, family, trials=args.trials, seed=args.seed, metric=args.metric
        )
        payload["mode"] = "mc"
        payload["estimate"] = estimate.to_dict(args.digits)
    else:
        if policy is not None:
            report = evaluate_policy(policy, family)
        else:
            report = evaluate_algorithm(algorithm, family)
        payload["mode"] = "exact"
        payload["report"] = report.to_dict(args.digits)
    _emit(payload, args.output)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    payload = {
        "params": {
            "mix_eps": format_value(params.mix_eps),
            "s": format_value(params.s),
            "k": params.k,
            "row_count": params.row_count,
        },
        **bound_chain(params).to_dict(args.digits),
    }
    _emit(payload, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.preset is not None:
        _refuse_mixed_source(args, "--preset")
        report = verify_theorem(preset=args.preset)
    else:
        report = verify_theorem(params=_params_from_args(args))
    _emit(report.to_dict(args.digits), args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    eps_values = [_flag_value("--eps", item) for item in args.eps.split(",")]
    s_values = [_flag_value("--s", item) for item in args.s.split(",")]
    k_values = [_flag_int("--k", item) for item in args.k.split(",")]
    points = len(eps_values) * len(s_values) * len(k_values)
    if points > args.max_points:
        raise ParameterError(
            f"sweep has {points} points, above the cap {args.max_points}"
        )
    fields = SWEEP_FIELDS if args.fields is None else tuple(args.fields.split(","))
    unknown = [f for f in fields if f not in SWEEP_FIELDS]
    if unknown:
        raise ParameterError(
            f"unknown sweep fields {unknown}; choose from {', '.join(SWEEP_FIELDS)}"
        )
    # every point is checked before the first solve
    grid = [
        ConstructionParams(mix_eps=eps, s=s, k=k, n=args.n)
        for eps, s, k in itertools.product(eps_values, s_values, k_values)
    ]
    require_enumerable(args.n)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    # One solve per (s, k), at its first eps.  A 1-consistent rule takes
    # ratio 1 on the prediction row, and off it the rows keep their
    # relative weights, so the optimal rule does not depend on eps and the
    # optimum is eps + (1 - eps) * T, T its value on the other rows.  Every
    # point, solved or derived, must equal the closed form.
    tails: dict[tuple[Fraction, int], Fraction] = {}
    for params in grid:
        eps, s, k = params.mix_eps, params.s, params.k
        alpha = alpha_value(eps, s, k)
        display = ub_display(eps, s, k)
        if (s, k) not in tails:
            solved = solve_optimal(build_hard_family(params), constrained=True)
            tails[s, k] = (solved.optimum - eps) / (1 - eps)
        optimum = eps + (1 - eps) * tails[s, k]
        expected = oracle_optimum(eps, s, k)
        if optimum != expected:
            raise RuntimeError(
                "sweep optimum and closed form disagree: "
                f"{format_value(optimum)} vs {format_value(expected)}"
            )
        row = {
            "eps": format_value(eps),
            "s": format_value(s),
            "k": str(k),
            "row_count": str(params.row_count),
            "alpha_exact": format_value(alpha),
            "alpha_decimal": decimal_str(alpha, args.digits),
            "ub_display_exact": format_value(display),
            "ub_display_decimal": decimal_str(display, args.digits),
            "dp_optimum_exact": format_value(optimum),
            "dp_optimum_decimal": decimal_str(optimum, args.digits),
            "vs_inv_e": compare_to_inv_e(optimum).value,
        }
        writer.writerow({f: row[f] for f in fields})
    _atomic_write(args.output, buffer.getvalue())
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _add_param_flags(parser: argparse.ArgumentParser, with_n: bool = True) -> None:
    parser.add_argument("--eps", help="mixture probability of the prediction row, e.g. 1/10")
    parser.add_argument("--s", help="value scale, e.g. 5 or 19")
    parser.add_argument("--k", type=_integer, help="construction size (even, >= 4)")
    if with_n:
        # no default here: a preset or family file also sets n
        parser.add_argument("--n", type=_integer, help="number of candidates (default 3)")


def _gen_flags(gen: argparse.ArgumentParser) -> None:
    _add_param_flags(gen)
    gen.add_argument("-o", "--output", type=_path, required=True, help="family JSON path")
    gen.add_argument("--render", choices=("md", "csv"), help="also print a table to stdout")
    gen.set_defaults(handler=_cmd_gen)


def _solve_flags(solve: argparse.ArgumentParser) -> None:
    solve.add_argument("--family", type=_path,
                       help="family JSON path (alternative to --eps/--s/--k)")
    _add_param_flags(solve)
    solve.add_argument("--unconstrained", action="store_true",
                       help="drop the prediction-consistency constraint")
    solve.add_argument("-o", "--output", type=_path, help="report JSON path (default stdout)")
    solve.add_argument("--policy-out", type=_path, help="also write the optimal policy table")
    solve.add_argument("--digits", type=_digits, default=12)
    solve.set_defaults(handler=_cmd_solve)


def _eval_flags(evaluate: argparse.ArgumentParser) -> None:
    evaluate.add_argument("--family", type=_path, required=True, help="family JSON path")
    evaluate.add_argument("--alg", type=_algorithm, required=True,
                          help="dynkin, pred-argmax, or policy:<file>")
    mode = evaluate.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact score over all orders (default)")
    mode.add_argument("--mc", action="store_true", help="Monte Carlo estimate")
    evaluate.add_argument("--trials", type=_at_least_one, default=100_000)
    evaluate.add_argument("--seed", type=_integer, default=0)
    evaluate.add_argument("--metric", choices=("ratio", "success"), default="ratio")
    evaluate.add_argument("-o", "--output", type=_path,
                          help="output JSON path (default stdout)")
    evaluate.add_argument("--digits", type=_digits, default=12)
    evaluate.set_defaults(handler=_cmd_eval, usage_error=evaluate.error)


def _bounds_flags(bounds: argparse.ArgumentParser) -> None:
    _add_param_flags(bounds, with_n=False)
    bounds.add_argument("-o", "--output", type=_path, help="output JSON path (default stdout)")
    bounds.add_argument("--digits", type=_digits, default=12)
    bounds.set_defaults(handler=_cmd_bounds)


def _verify_flags(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("--preset", help=f"one of: {', '.join(known_presets())}")
    _add_param_flags(verify)
    verify.add_argument("-o", "--output", type=_path, help="report JSON path (default stdout)")
    verify.add_argument("--digits", type=_digits, default=12)
    verify.set_defaults(handler=_cmd_verify)


def _sweep_flags(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("--eps", required=True, help="comma-separated list, e.g. 1/100,1/10")
    sweep.add_argument("--s", required=True, help="comma-separated list, e.g. 50,100,400")
    sweep.add_argument("--k", required=True, help="comma-separated list, e.g. 50,100,400")
    sweep.add_argument("--n", type=_integer, default=3)
    sweep.add_argument("-o", "--output", type=_path, required=True, help="CSV path")
    sweep.add_argument("--fields", help=f"subset of: {','.join(SWEEP_FIELDS)}")
    sweep.add_argument("--max-points", type=_at_least_one, default=10_000)
    sweep.add_argument("--digits", type=_digits, default=12)
    sweep.set_defaults(handler=_cmd_sweep)


# Each subcommand: its help line and what adds its flags.
COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "gen": ("generate a hard prior family file", _gen_flags),
    "solve": ("solve a family by backward induction", _solve_flags),
    "eval": ("score an algorithm on a family", _eval_flags),
    "bounds": ("print the closed-form bound chain", _bounds_flags),
    "verify": ("full verification run for one parameter point", _verify_flags),
    "sweep": ("solve a parameter grid into a CSV", _sweep_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand registered.  Only ``command``'s
    flags are added when it names a subcommand, for only that subcommand
    parses (building verify's reads the preset file); every subcommand's
    are added otherwise.  Help and usage errors read the same either way."""
    parser = argparse.ArgumentParser(
        prog="secretary-lab",
        description="Exact verification lab for prediction-constrained stopping rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if command == name or command not in COMMANDS:
            add_flags(subparser)
    return parser


def run_command(argv: list[str] | None = None) -> int:
    """Parse argv and execute one subcommand; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except (SecretaryLabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_command())
