"""Command-line interface.

Exit codes follow one contract everywhere: 0 when every tested position is
accepted (or the command has no accept/reject semantics), 1 when some
position is rejected (or a check fails / an early stop advises aborting),
2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .confidence import ALIAS_GRID, DEVICE_GRID, METHODS, ci_width, plan_devices_exact
from .errors import BitAliasError
from .special import _as_count, _as_devices, _as_real

# Each command imports only the modules it runs: a child compiles every line it imports.

DEFAULT_LIMITS = (0.45, 0.55)
# simulate.ALIAS_PROFILES, analysis.REPORT_FORMATS and validate.KINDS, named for the parser
ALIAS_PROFILE_NAMES = ("balanced", "linear")
REPORT_FORMATS = ("text", "json", "csv")
VALIDATE_KINDS = ("coverage", "far", "frr")


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p-low", type=float, default=None,
                        help="lower alias limit (default 0.45)")
    parser.add_argument("--p-high", type=float, default=None,
                        help="upper alias limit (default 0.55)")
    parser.add_argument("--min-entropy", type=float, default=None,
                        help="min-entropy floor in bits, converted to limits")
    parser.add_argument("--shannon-entropy", type=float, default=None,
                        help="Shannon-entropy floor in bits, converted to limits")


def _limit_source(args) -> tuple[AliasLimits | None, EntropySpec | None]:
    """Explicit limits (defaults filled in) or an entropy floor: exactly one."""
    if args.min_entropy is not None and args.shannon_entropy is not None:
        raise BitAliasError("give at most one of --min-entropy and --shannon-entropy")
    if args.min_entropy is None and args.shannon_entropy is None:
        from .qualification import AliasLimits
        p_low = DEFAULT_LIMITS[0] if args.p_low is None else args.p_low
        p_high = DEFAULT_LIMITS[1] if args.p_high is None else args.p_high
        return AliasLimits(p_l=p_low, p_u=p_high), None
    from .entropy import EntropySpec
    spec = (EntropySpec(kind="min", value=args.min_entropy) if args.min_entropy is not None
            else EntropySpec(kind="shannon", value=args.shannon_entropy))
    if args.p_low is not None or args.p_high is not None:
        raise BitAliasError("give either explicit limits or an entropy floor, not both")
    return None, spec


def _limits(args) -> AliasLimits:
    limits, spec = _limit_source(args)
    if spec is not None:
        from .entropy import limits_from_spec
        limits = limits_from_spec(spec)
    return limits


def _emit(blob: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(blob.decode("utf-8"))
    else:
        with open(out, "wb") as f:
            f.write(blob)


def _cmd_analyze(args) -> int:
    from .analysis import AnalysisConfig, EarlyStopConfig, analyze_counts, render_report
    from .formats import load_counts, load_measurement_counts

    limits, spec = _limit_source(args)
    if args.early_stop_alpha is None and args.max_flag_fraction is not None:
        raise BitAliasError("--max-flag-fraction needs --early-stop-alpha")
    early = None if args.early_stop_alpha is None else EarlyStopConfig(
        alpha=args.early_stop_alpha, max_flag_fraction=args.max_flag_fraction or 0.0)
    cfg = AnalysisConfig(alpha=args.alpha, limits=limits, entropy_spec=spec,
                         ci_method=args.ci_method, early_stop=early,
                         output_format=args.format)
    if args.counts:
        result = analyze_counts(load_counts(args.file), cfg)
    else:
        counts, repeats, ties = load_measurement_counts(args.file)
        result = analyze_counts(counts, cfg, repeats=repeats, tie_count=ties)
    _emit(render_report(result), args.out)
    return 0 if result.all_accepted else 1


def _cmd_plan(args) -> int:
    if args.goal == "width":
        plan = plan_devices_exact(args.method, args.width, args.alpha)
        print(f"devices={plan.devices} method={plan.method} "
              f"target_width={plan.target_width} alpha={plan.alpha}")
        return 0
    from .qualification import plan_devices_frr
    limits = _limits(args)
    plan = plan_devices_frr(limits, (args.inner_low, args.inner_high),
                            args.alpha, args.beta)
    print(f"devices={plan.devices} method=frr p_l={limits.p_l} p_u={limits.p_u} "
          f"inner=({args.inner_low}, {args.inner_high}) alpha={plan.alpha} beta={plan.beta}")
    return 0


def _cmd_check(args) -> int:
    from .qualification import test_position
    verdict = test_position(args.x, args.n, _limits(args), args.alpha)
    print(f"x={verdict.ones} n={args.n} accepted={'yes' if verdict.accepted else 'no'} "
          f"p_value_lower={verdict.p_value_lower:.6g} "
          f"p_value_upper={verdict.p_value_upper:.6g} alpha={verdict.alpha}")
    return 0 if verdict.accepted else 1


def _cmd_early_stop(args) -> int:
    from .formats import load_counts, load_measurement_counts
    from .qualification import early_stop_decision

    counts = load_counts(args.file) if args.counts else load_measurement_counts(args.file)[0]
    advice = early_stop_decision(counts, _limits(args), args.alpha,
                                 args.max_flag_fraction)
    flagged = ",".join(str(t) for t in advice.flagged_positions) or "-"
    print(f"decision={advice.decision} "
          f"flagged={len(advice.flagged_positions)}/{counts.positions} positions={flagged}")
    return 0 if advice.decision == "continue" else 1


def _cmd_simulate(args) -> int:
    from .formats import write_measurements
    from .simulate import PopulationSpec, simulate_population

    try:  # text that is no number and no list is a profile name for PopulationSpec to check
        alias = float(args.alias)
    except ValueError:
        alias = args.alias.split(",") if "," in args.alias else args.alias
    spec = PopulationSpec(devices=args.devices, positions=args.positions,
                          repeats=args.repeats, seed=args.seed,
                          alias=alias, flip_noise=args.noise)
    write_measurements(simulate_population(spec), args.out, fmt=args.format)
    return 0


def _grid_count(token: str) -> int:
    """A --grid device count, read as int() reads it but at any length."""
    try:
        n = int(token)
    except ValueError:
        if not re.fullmatch(r"\s*[+-]?\d+\s*", token):
            return _as_count(token, "n")  # raises: text that is no integer
        from decimal import Decimal  # past int()'s digit limit, which Decimal lacks
        n = int(Decimal(token))
    return _as_devices(n)


def _cmd_curve(args) -> int:
    method, alpha = args.method, args.alpha
    tokens = None if args.grid is None else args.grid.split(",")
    if args.sweep == "devices":
        grid = DEVICE_GRID if tokens is None else map(_grid_count, tokens)
        lines = ["n,width", *(f"{n},{ci_width(method, args.p_hat, n, alpha):.6g}" for n in grid)]
    else:
        grid = ALIAS_GRID if tokens is None else (_as_real(p, "p_hat") for p in tokens)
        lines = ["p_hat,width",
                 *(f"{p:.6g},{ci_width(method, p, args.devices, alpha):.6g}" for p in grid)]
    _emit(("\n".join(lines) + "\n").encode("ascii"), args.out)
    return 0


def _cmd_validate(args) -> int:
    from .validate import CoverageParams, QualificationParams, monte_carlo_validate

    if args.kind == "coverage":
        params = CoverageParams(method=args.method, p=args.p,
                                devices=args.devices, alpha=args.alpha)
    else:
        params = QualificationParams(devices=args.devices, limits=_limits(args),
                                     alpha=args.alpha, p=args.p)
    est = monte_carlo_validate(args.kind, params, args.trials, args.seed)
    print(f"kind={est.kind} value={est.value:.6g} std_error={est.std_error:.6g} "
          f"trials={est.trials}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitalias",
        description="Per-position alias statistics for device response data: "
                    "confidence intervals, qualification tests, and planning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="test every position of a measurement file")
    p.add_argument("file")
    p.add_argument("--counts", action="store_true",
                   help="treat the file as pre-counted (x per position, N)")
    p.add_argument("--alpha", type=float, default=0.01)
    _add_limit_flags(p)
    p.add_argument("--ci-method", choices=METHODS, default="wilson")
    p.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--early-stop-alpha", type=float, default=None,
                   help="also run the early-stop forecast at this level")
    p.add_argument("--max-flag-fraction", type=float, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plan", help="device counts needed for width or error targets")
    goal = p.add_subparsers(dest="goal", required=True)
    w = goal.add_parser("width", help="devices for a target interval width")
    w.add_argument("--width", type=float, required=True)
    w.add_argument("--alpha", type=float, default=0.01)
    w.add_argument("--method", choices=METHODS, default="clopper_pearson")
    w.set_defaults(func=_cmd_plan)
    f = goal.add_parser("frr", help="devices keeping the false rejection rate under beta")
    f.add_argument("--inner-low", type=float, required=True)
    f.add_argument("--inner-high", type=float, required=True)
    f.add_argument("--alpha", type=float, default=0.01)
    f.add_argument("--beta", type=float, default=0.01)
    _add_limit_flags(f)
    f.set_defaults(func=_cmd_plan)

    p = sub.add_parser("check", help="qualification test for a single count")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("early-stop", help="abort forecast for a partial campaign")
    p.add_argument("file")
    p.add_argument("--counts", action="store_true")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--max-flag-fraction", type=float, default=0.0)
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_early_stop)

    p = sub.add_parser("simulate", help="write a synthetic measurement file")
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--positions", type=int, required=True)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--alias", default="0.5",
                   help="true alias: scalar, comma list, or profile "
                        f"({', '.join(ALIAS_PROFILE_NAMES)})")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("curve", help="interval-width series as CSV")
    p.add_argument("--method", choices=METHODS, default="wilson")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--sweep", choices=("devices", "alias"), default="devices")
    p.add_argument("--p-hat", type=float, default=0.5,
                   help="fixed alias for the devices sweep")
    p.add_argument("--devices", type=int, default=20,
                   help="fixed device count for the alias sweep")
    p.add_argument("--grid", default=None,
                   help="comma-separated abscissa values (default: built-in grid)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("validate", help="Monte-Carlo check of a statistical guarantee")
    p.add_argument("--kind", choices=VALIDATE_KINDS, required=True)
    p.add_argument("--method", choices=METHODS, default="clopper_pearson",
                   help="estimator for coverage runs")
    p.add_argument("--p", type=float, required=True, help="true alias to simulate")
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    # simulate and validate never do linear algebra, but loading numpy starts
    # an OpenBLAS worker that busy-waits: ask for one thread before numpy
    # loads, unless it has (an in-process call), and keep a user's setting
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BitAliasError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
