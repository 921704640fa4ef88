"""Set-up probe, run in a fresh interpreter: import the CLI and build each config.

Usage: python3 perfbench/setup_probe.py '<JSON list of argv lists>'
The caller times the whole process, so this is what a user pays before the
first job of a workload can start.
"""

import json
import sys

from vlcnoma import cli

for argv in json.loads(sys.argv[1]):
    args = cli.build_parser().parse_args(argv)
    conf, explicit_band = cli.resolve_config(args)
    cli.build_experiment(args.command, conf, explicit_band)
