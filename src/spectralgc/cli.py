"""Command-line interface.

Three subcommands::

    spectralgc example <1|2|4>    reproduce a bundled benchmark system
    spectralgc model <file.json>  Monte Carlo on a user-supplied model
    spectralgc analyze <panel.csv>  fit methods to existing data

All three take ``--methods``, ``--orders``, ``--seg-len`` and ``--out``;
``example`` and ``model`` also take the Monte Carlo flags ``--ns``,
``--realizations``, ``--seed`` and ``--jobs``, which ``analyze`` does not
read and so rejects.  Every flag's ``dest`` is the :class:`ExperimentSpec`
field it sets, and a flag left out keeps that field's default.

Exit codes: 0 success, 2 configuration/input problems, 3 numerical
failures.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, NumericalError
from .experiments import LATTICE_GROUP_SAMPLES, ExperimentSpec, analyze_panel, run_example, run_model

__all__ = ["main", "build_parser"]


def _add_fit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--methods", help="comma-separated subset of var,vma,varma,wn (default depends on the source)"
    )
    sub.add_argument("--orders", help="'p,q' orders for the vma/varma fits")
    sub.add_argument(
        "--seg-len", type=int, dest="segment_len",
        help=f"Welch segment length (default {ExperimentSpec.segment_len})",
    )
    sub.add_argument(
        "--out", dest="out_dir", help=f"output directory (default ./{ExperimentSpec.out_dir})"
    )


def _add_monte_carlo_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--ns", type=int, dest="n_samples",
        help=f"samples per realization (default {ExperimentSpec.n_samples})",
    )
    sub.add_argument(
        "--realizations", type=int, dest="n_realizations",
        help=f"Monte Carlo repetitions (default {ExperimentSpec.n_realizations})",
    )
    sub.add_argument(
        "--seed", type=int, dest="base_seed",
        help=f"base seed; realization r uses seed+r (default {ExperimentSpec.base_seed})",
    )
    sub.add_argument(
        "--jobs", type=int, dest="n_jobs",
        help=f"worker processes, each fitting whole groups of realizations, so a run of one "
        f"group ({LATTICE_GROUP_SAMPLES // 2048} or fewer realizations of a 2-channel model at "
        f"--ns 1024) stays in-process (default {ExperimentSpec.n_jobs})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralgc",
        description="Frequency-domain Granger connectivity benchmarks and analysis",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # flags left out stay out of the namespace, so ExperimentSpec supplies their defaults
    quiet = {"argument_default": argparse.SUPPRESS}

    p_ex = subs.add_parser("example", help="run a bundled benchmark system", **quiet)
    p_ex.add_argument("example_id", type=int, help="example number (1, 2, or 4)")
    _add_fit_flags(p_ex)
    _add_monte_carlo_flags(p_ex)

    p_model = subs.add_parser("model", help="run the Monte Carlo protocol on a model file", **quiet)
    p_model.add_argument("model_path", help="JSON model description")
    _add_fit_flags(p_model)
    _add_monte_carlo_flags(p_model)

    p_an = subs.add_parser(
        "analyze", help="estimate connectivity for an existing panel CSV", **quiet
    )
    p_an.add_argument("panel_path", help="panel CSV (header t,x1,..,xN)")
    _add_fit_flags(p_an)

    return parser


def _parse_orders(raw):
    try:
        p, q = (int(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"--orders expects 'p,q' integers, got {raw!r}") from exc
    return (p, q)


def _spec_from_args(args) -> ExperimentSpec:
    fields = {k: v for k, v in vars(args).items() if k != "command"}
    if "methods" in fields:
        fields["methods"] = tuple(m.strip() for m in fields["methods"].split(",") if m.strip())
    if "orders" in fields:
        fields["orders"] = _parse_orders(fields["orders"])
    return ExperimentSpec(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.command == "example":
            summary = run_example(spec)
        elif args.command == "model":
            summary = run_model(spec)
        else:
            summary = analyze_panel(spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if "mse" in summary:
        for method, value in summary["mse"].items():
            print(f"{method:<10}{value:.6e}")
    print(f"outputs written to {spec.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
