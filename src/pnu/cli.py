"""Command-line entry points: sweep-nu, sweep-pi, advise, verify."""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .training import CccpMonotonicityError, CvConfig, TrainConfig

DESK_NU_VALUES = (5, 10, 20, 45, 90, 200)
PAPER_NU_VALUES = (5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100, 125, 150, 175, 200)
DESK_PI_VALUES = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
PAPER_PI_VALUES = tuple(round(0.05 * k, 2) for k in range(1, 20))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-pos", type=int, default=45, help="positive sample size")
    parser.add_argument("--n-neg", type=int, default=5, help="negative sample size")
    parser.add_argument("--trials", type=int, default=None,
                        help="random samplings per sweep point (default 50, 100 at paper scale)")
    parser.add_argument("--test-size", type=int, default=None,
                        help="labeled test points per trial (default 1e5, 1e6 at paper scale)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--data", default=None, metavar="CSV",
                        help="benchmark CSV path (default: synthetic Gaussians)")
    parser.add_argument("--label-col", default=None,
                        help="label column name or index for --data")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--paper-scale", action="store_true",
                        help="full-scale protocol: 100 trials, 1e6 test points")
    parser.add_argument("--train-config", default=None, metavar="JSON",
                        help="TrainConfig overrides as a JSON file")
    parser.add_argument("--cv-config", default=None, metavar="JSON",
                        help="CvConfig as a JSON file (enables cross-validation)")


def _resolve_grid(args, sweep: str, values) -> harness.ExperimentGrid:
    trials = args.trials
    if trials is None:
        trials = harness.PAPER_TRIALS if args.paper_scale else harness.DESK_TRIALS
    test_size = args.test_size
    if test_size is None:
        test_size = harness.PAPER_TEST_SIZE if args.paper_scale else harness.DESK_TEST_SIZE
    return harness.ExperimentGrid(
        sweep=sweep,
        values=values,
        n_pos=args.n_pos,
        n_neg=args.n_neg,
        pi=args.pi if sweep == "nu" else None,
        n_unl=args.n_unl if sweep == "pi" else None,
        trials=trials,
        data_source=args.data or "artificial",
        label_column=args.label_col,
        test_size=test_size,
        seed=args.seed,
    )


def _run_sweep(args, sweep: str, values) -> int:
    grid = _resolve_grid(args, sweep, values)
    train_config = TrainConfig.from_json(args.train_config) if args.train_config else None
    cv_config = CvConfig.from_json(args.cv_config) if args.cv_config else None
    table = harness.run_sweep(grid, train_config, cv_config)
    harness.emit(table, args.format, args.out)
    return 0


def _fail(exc: Exception, code: int) -> int:
    """Print the exception and its notes as one ``error:`` line on stderr."""
    context = "".join(f"{note}: " for note in getattr(exc, "__notes__", ()))
    print(f"error: {context}{exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pnu",
        description="PN/PU/NU risk minimization experiments and bound comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nu = sub.add_parser("sweep-nu", help="sweep the unlabeled sample size")
    p_nu.add_argument("--n-unl", type=_int_list, default=None,
                      help="comma-separated unlabeled sizes to sweep")
    p_nu.add_argument("--pi", type=float, default=0.5, help="fixed class prior")
    _add_common(p_nu)

    p_pi = sub.add_parser("sweep-pi", help="sweep the class prior")
    p_pi.add_argument("--pi", type=_float_list, default=None,
                      help="comma-separated class priors to sweep")
    p_pi.add_argument("--n-unl", type=int, default=100, help="fixed unlabeled size")
    _add_common(p_pi)

    p_adv = sub.add_parser("advise", help="which mode has the tighter bound, as JSON")
    p_adv.add_argument("--pi", type=float, required=True)
    p_adv.add_argument("--n-pos", type=int, required=True)
    p_adv.add_argument("--n-neg", type=int, required=True)
    p_adv.add_argument("--n-unl", default=None,
                       help="unlabeled size; omit or pass 'inf' for the unbounded limit")
    p_adv.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--fast", action="store_true", help="reduced Monte-Carlo sizes")

    args = parser.parse_args(argv)
    try:
        if args.command == "sweep-nu":
            values = args.n_unl or (PAPER_NU_VALUES if args.paper_scale else DESK_NU_VALUES)
            return _run_sweep(args, "nu", values)
        if args.command == "sweep-pi":
            values = args.pi or (PAPER_PI_VALUES if args.paper_scale else DESK_PI_VALUES)
            return _run_sweep(args, "pi", values)
        if args.command == "advise":
            n_unl = args.n_unl
            if n_unl is None or str(n_unl).lower() in ("inf", "unbounded"):
                n_unl = None
            else:
                n_unl = int(n_unl)
            doc = harness.advise(args.pi, args.n_pos, args.n_neg, n_unl)
            text = json.dumps(doc, indent=1)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
            return 0
        if args.command == "verify":
            results = harness.verify(seed=args.seed, fast=args.fast)
            all_ok = True
            for name, ok, detail in results:
                print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
                all_ok &= ok
            return 0 if all_ok else 1
    except (ValueError, OSError) as exc:
        return _fail(exc, 2)
    except CccpMonotonicityError as exc:
        return _fail(exc, 3)
    return 2


if __name__ == "__main__":
    sys.exit(main())
