#!/usr/bin/env python3
"""Run the complete modelling study on a real daily maximum-demand export.

Three stages, all under one output directory:

  1. ingest    - parse the raw CSV, report calendar gaps, write the five
                 imputation datasets
  2. diagnose  - ADF unit-root profile and ACF/PACF correlograms per dataset
  3. report    - fit both benchmark candidate grids (plain ARIMA table and
                 weekly-seasonal SARIMA table) on every dataset and rank them
                 on holdout MAPE

The input CSV comes from --input or the DEMANDCAST_DATA environment
variable, and the outputs go to --out-dir (default study_out).  Every other
option is passed only to the stages that read it, and only when given, so
the CLI's defaults are the only defaults.  A full run covers 125 model fits;
expect minutes, not seconds.  --jobs spreads every fit of the report stage
across that many worker processes, all from one process pool.
"""

from __future__ import annotations

import argparse
import os
import sys

from demandcast.cli import main

# the options each stage reads besides --input and --out-dir
STAGES = {
    "ingest": (),
    "diagnose": ("season",),
    "report": ("season", "seed", "split", "jobs"),
}


def run() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], argument_default=argparse.SUPPRESS
    )
    parser.add_argument(
        "--input",
        default=os.environ.get("DEMANDCAST_DATA"),
        help="raw daily export CSV (default: $DEMANDCAST_DATA)",
    )
    parser.add_argument("--out-dir", default="study_out", help="output directory")
    parser.add_argument("--split", help="holdout split")
    parser.add_argument("--season", type=int, help="seasonal period in days")
    parser.add_argument("--jobs", type=int, help="worker processes for the report's fits")
    parser.add_argument("--seed", type=int, help="optimizer seed")
    args = vars(parser.parse_args())
    if not args["input"]:
        parser.error("give --input or set DEMANDCAST_DATA")

    for stage, names in STAGES.items():
        argv = [stage]
        for name in ("input", "out_dir", *names):
            if name in args:
                argv += ["--" + name.replace("_", "-"), str(args[name])]
        print(f"$ demandcast {' '.join(argv)}", flush=True)
        code = main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
