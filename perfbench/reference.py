"""Regenerate the stored reference outputs for the output check.

Usage: python3 perfbench/reference.py [workload ...]   (default: every workload)

Runs each workload's job once per seed of ``SEED_POOL`` at the default
worker count and stores the CSV text with the library versions that made
it.  Monte Carlo bytes are reproducible only within one numpy version.
Regenerate only when a change is meant to alter the CSV output, and say so.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import SEED_POOL, WORKLOADS, Workload


def make_reference(main, wl: Workload, env: dict) -> dict:
    outputs = {}
    for seed in SEED_POOL:
        texts = []
        for argv in wl.job(seed):
            inv = run.run_cli(main, argv)
            if inv.rc != 0:
                raise SystemExit(f"{wl.name} seed {seed}: {argv} exited {inv.rc}")
            texts.append(inv.out)
        outputs[str(seed)] = texts
    return {"env": env, "outputs": outputs}


def main(names) -> int:
    cli = run.import_cli()
    env = run.versions()
    run.REFERENCE.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        ref = make_reference(cli.main, WORKLOADS[name], env)
        with open(run.REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
        print(f"wrote {name}: {len(ref['outputs'])} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
