"""Command-line experiment runner.

Regenerate any table/figure of the paper from the shell::

    python -m repro.experiments fig14           # one experiment
    python -m repro.experiments table1 fig05    # several
    python -m repro.experiments --all           # everything
    python -m repro.experiments --list          # what exists

Tables are printed and, with ``--out DIR``, also written to disk.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import ALL_EXPERIMENTS, ExperimentContext, render_table, save_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. fig14, table1)")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--list", action="store_true",
                        help="list available experiment ids")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=int, default=600)
    parser.add_argument("--device", default="armv7")
    parser.add_argument("--out", default=None,
                        help="directory to also save rendered tables into")
    args = parser.parse_args(argv)

    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0

    names = list(ALL_EXPERIMENTS) if args.all else args.experiments
    if not names:
        parser.error("no experiments given (try --list or --all)")
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    warnings.filterwarnings("ignore", category=RuntimeWarning)
    ctx = ExperimentContext(
        seed=args.seed, samples=args.samples, device=args.device
    )
    for name in names:
        result = ALL_EXPERIMENTS[name](ctx)
        print(render_table(result))
        print()
        if args.out:
            path = save_table(result, args.out)
            print(f"[saved {path}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
