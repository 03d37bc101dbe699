"""Command line front end.

Two subcommands: `simulate` runs one configured experiment end to end and
writes its artifacts, `check` compares a finished run against a reference
file.  Exit codes: 0 success / all checks pass, 1 run or check failure,
2 configuration error.
"""

import argparse
import os
import sys

from . import experiments


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dotqed",
        description="charge-qubit readout simulator: run configured "
                    "experiments and check their results")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="run one experiment from a JSON config")
    sim.add_argument("experiment", choices=experiments.EXPERIMENT_KINDS,
                     help="experiment kind; must match or fill the config's "
                          "'experiment' field")
    sim.add_argument("--config", required=True, help="JSON config file")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.add_argument("--out", default=None,
                     help="override the output directory")

    chk = sub.add_parser("check",
                         help="compare a run's results to reference values")
    chk.add_argument("--run", required=True,
                     help="manifest path or run directory")
    chk.add_argument("--reference", required=True,
                     help="JSON reference file with expected quantities")
    return parser


def _simulate(args):
    cfg = experiments.load_config(args.config, experiment=args.experiment,
                                  seed=args.seed, output_dir=args.out)
    manifest = experiments.run_experiment(cfg)
    results, fits = (experiments._read_json(os.path.join(cfg.output_dir, name),
                                            "run")
                     for name in ("results.json", "fits.json"))
    print(f"{cfg.experiment}: wrote {len(manifest.files)} files "
          f"to {cfg.output_dir}")
    for name in sorted(results):
        value = results[name]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name} = {shown}")
    for name, problems in experiments.flagged_fits(fits):
        print(f"  flagged fit {name}: {', '.join(problems)}")
    print(f"run hash {manifest.run_hash}")
    return 0


def _check(args):
    report = experiments.compare_to_reference(args.run, args.reference)
    print(report.format_table())
    return 0 if report.passed else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _simulate(args)
        return _check(args)
    except experiments.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
