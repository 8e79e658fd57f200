"""Command-line front end: one subcommand per bundled chain, CSV/JSON out."""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import densela, harness, markov


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 on bad usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ergofilt",
        description=(
            "Accelerate the running average of a reversible Markov chain with "
            "polynomial spectral filters and emit max-error-vs-degree tables."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="experiment")

    def add_common(sub: argparse.ArgumentParser, default_p: int):
        sub.add_argument("--p", type=int, default=default_p, help=f"state-space size parameter (default {default_p})")
        sub.add_argument("--k-max", type=int, default=20, dest="k_max", help="largest filter degree (default 20)")
        sub.add_argument(
            "--signal",
            help="comma-separated real values, or @FILE to read them from a file",
        )
        sub.add_argument(
            "--paper-defaults",
            action="store_true",
            dest="paper_defaults",
            help="use the built-in reference signal for this experiment",
        )
        sub.add_argument("--seed", type=int, help="u64 seed for deterministic signal generation")
        sub.add_argument("--out", help="output path (default: stdout)")
        sub.add_argument(
            "--lambda-low",
            type=float,
            dest="lambda_low",
            help="override the chain's frequency bound used by the filters",
        )
        sub.add_argument(
            "--json",
            action="store_true",
            help="emit the run summary as JSON instead of CSV",
        )

    cycle = subparsers.add_parser("cycle-walk", help="random walk on an odd cycle")
    add_common(cycle, default_p=11)

    glauber = subparsers.add_parser("glauber", help="heat-bath dynamics on an Ising ring")
    add_common(glauber, default_p=4)
    glauber.add_argument(
        "--beta",
        type=float,
        default=harness.GLAUBER_BETA,
        help=f"inverse temperature (default {harness.GLAUBER_BETA})",
    )
    glauber.add_argument(
        "--coupling",
        type=float,
        default=harness.GLAUBER_COUPLING,
        help=f"uniform edge coupling (default {harness.GLAUBER_COUPLING})",
    )

    return parser


# argparse parsers hold no state between calls: each parse_args returns a fresh
# Namespace, so one parser serves every run in the process
_PARSER = build_parser()


def _parse_signal(raw: str) -> np.ndarray:
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
        tokens = [tok for tok in re.split(r"[\s,]+", text.strip()) if tok]
    else:
        tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("signal is empty")
    try:
        return np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise ValueError(f"could not parse signal value: {exc}") from None


def _config_from_args(args: argparse.Namespace) -> harness.ExperimentConfig:
    sources = [
        name
        for name, given in (
            ("--signal", args.signal is not None),
            ("--paper-defaults", args.paper_defaults),
            ("--seed", args.seed is not None),
        )
        if given
    ]
    if not sources:
        raise ValueError("one signal source is required: --signal, --paper-defaults, or --seed")
    if len(sources) > 1:
        print(f"note: multiple signal sources given; using {sources[0]}", file=sys.stderr)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {args.seed}")
    if args.p < 1:
        raise ValueError(f"--p must be positive, got {args.p}")
    if args.k_max < 1:
        raise ValueError(f"--k-max must be at least 1, got {args.k_max}")
    return harness.ExperimentConfig(
        experiment=args.command,
        p=args.p,
        beta=getattr(args, "beta", None),
        coupling=getattr(args, "coupling", None),
        k_max=args.k_max,
        signal=_parse_signal(args.signal) if args.signal is not None else None,
        use_reference_signal=args.paper_defaults,
        seed=args.seed,
        lambda_low_override=args.lambda_low,
    )


def cli_main(argv=None) -> int:
    """Run the CLI; returns 0 on success, 1 on bad input, 2 on numerical failure."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        results, metadata = harness.run_experiment(config)

        def write(handle):
            if args.json:
                harness.emit_json(results, metadata, handle)
            else:
                handle.write(harness.metadata_comment(metadata))
                harness.emit_csv(results, handle)

        if args.out is None:
            write(sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                write(handle)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (densela.DenseLAError, markov.ChainValidationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
