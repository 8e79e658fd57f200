"""Command-line front end: one subcommand per bundled chain, CSV/JSON out."""

from __future__ import annotations

import argparse
import contextlib
import re
import sys

import numpy as np

from . import harness, markov


def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each experiment's subparser, by name; a
    subparser's result names its experiment in ``command``, as the top-level
    parser's does."""
    parser = argparse.ArgumentParser(
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
    cycle.set_defaults(command="cycle-walk")
    add_common(cycle, default_p=11)

    glauber = subparsers.add_parser("glauber", help="heat-bath dynamics on an Ising ring")
    glauber.set_defaults(command="glauber")
    add_common(glauber, default_p=4)
    # unset, they take harness's defaults
    glauber.add_argument("--beta", type=float, help=f"inverse temperature (default {harness.GLAUBER_BETA})")
    glauber.add_argument("--coupling", type=float, help=f"uniform edge coupling (default {harness.GLAUBER_COUPLING})")

    return parser, {"cycle-walk": cycle, "glauber": glauber}


# argparse parsers hold no state between calls: each parse returns a fresh
# Namespace, so one set of parsers serves every run in the process
_PARSER, _EXPERIMENTS = build_parsers()


def _parse_args(argv) -> argparse.Namespace:
    """The parsed ``argv``. When it starts with an experiment's name, that
    experiment's subparser alone reads the rest, so no argument is classified
    twice, and the top-level parser reports any it leaves, as a top-level
    parse does. Anything else (no arguments, ``-h``, an unknown experiment)
    goes to the top-level parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _EXPERIMENTS:
        args, extras = _EXPERIMENTS[argv[0]].parse_known_args(argv[1:])
        if extras:
            _PARSER.error("unrecognized arguments: " + " ".join(extras))
        return args
    return _PARSER.parse_args(argv)


def _parse_signal(raw: str) -> np.ndarray:
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
        tokens = [tok for tok in re.split(r"[\s,]+", text.strip()) if tok]
    else:
        tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
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
    if len(sources) > 1:
        print(f"note: multiple signal sources given; using {sources[0]}", file=sys.stderr)
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
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 after --help
        return 1 if exc.code else 0
    try:
        config = _config_from_args(args)
        results, metadata = harness.run_experiment(config)
        text = (harness.emit_json if args.json else harness.emit_csv)(results, metadata)
        if args.out is None:
            target = contextlib.nullcontext(sys.stdout)
        else:
            target = open(args.out, "w", encoding="utf-8", newline="")
        with target as handle:
            handle.write(text)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (markov.ChainValidationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
