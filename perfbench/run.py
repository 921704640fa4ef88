"""vlcnoma benchmark: run one workload (or all) through ``vlcnoma.cli.main``.

Usage:
    python3 perfbench/run.py --workload mc_fullcsi --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Jobs run back to back in this process (a closed loop with one client) for
``--seconds``; every job's CSV is checked against the stored reference.  With
``--trace 0`` the end-to-end metrics are reported, with ``--trace 1`` the
per-layer ones from a traced run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with its environment block and per-job records, goes to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from outputs import compare, data_rows
from workloads import SEED_POOL, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

# Fresh interpreters per run for setup_s, and for the import-time profile.
# The set-up probes run between the first jobs, so they sample the same
# stretch of machine time as the jobs rather than only its first seconds.
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot give a valid result here: missing sources, reference or spec."""


def import_cli():
    """Import ``vlcnoma.cli`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "vlcnoma" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'vlcnoma'}")
    sys.path.insert(0, str(SRC))
    from vlcnoma import cli

    if Path(cli.__file__).resolve().parent != SRC / "vlcnoma":
        raise BenchError(f"imported vlcnoma from {cli.__file__}, not from {SRC}")
    return cli


def load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def load_reference(name: str) -> dict:
    return load_json(REFERENCE / f"{name}.json")


def declared_metrics(trace: bool) -> list[dict]:
    """The metrics ``BENCHMARK.json`` declares for this kind of run, in order."""
    return load_json(ROOT / "BENCHMARK.json")["per_layer" if trace else "end_to_end"]


def default_workers() -> int:
    """The worker count the CLI picks when ``workers`` is unset."""
    return min(8, os.cpu_count() or 1)


@dataclass
class Invocation:
    rc: object
    out: str
    wall_s: float
    cpu_s: float


def run_cli(main, argv) -> Invocation:
    """One CLI invocation with stdout captured; a raise counts as a failure, not a crash."""
    buf = io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job
        rc = f"raised {type(exc).__name__}: {exc}"
    return Invocation(rc, buf.getvalue(), time.perf_counter() - wall, time.process_time() - cpu)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(wl: Workload) -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds the job's configs."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), json.dumps(wl.job(SEED_POOL[0]))]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return time.perf_counter() - start


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def measure_import_ms(layers) -> dict:
    """Median cumulative import time of each layer module, from ``python -X importtime``."""
    samples = {layer: [] for layer in layers}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import vlcnoma.cli"],
            env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        )
        seen = {m[3]: int(m[2]) for m in _IMPORTTIME.finditer(proc.stderr)}
        for layer in layers:
            samples[layer].append(seen.get(f"vlcnoma.{layer}", 0) / 1e3)
    return {f"{layer}.import_ms": statistics.median(v) for layer, v in samples.items()}


def determinism_check(main, wl: Workload, seed: int) -> list[str]:
    """Data rows at workers=1 must equal those at the default worker count."""
    argv = [*wl.determinism_invocation, "--seed", str(seed)]
    serial = run_cli(main, [*argv, "--set", "workers=1"])
    parallel = run_cli(main, argv)
    if serial.rc != 0 or parallel.rc != 0:
        return [f"determinism job failed: rc {serial.rc} / {parallel.rc}"]
    if data_rows(serial.out) != data_rows(parallel.out):
        return ["rows at workers=1 differ from rows at the default worker count"]
    return []


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` directly; ``unknown`` outside git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def versions() -> dict:
    """What produced the bytes: library versions and the checkout's commit."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def environment(wl: Workload, bench_seed: int, reference: dict) -> dict:
    env = {
        "workload": wl.name,
        "seed": bench_seed,
        "invocations": [list(argv) for argv in wl.invocations],
        "workers": default_workers(),
        "nproc": len(os.sched_getaffinity(0)),
        **versions(),
        "reference_numpy": reference.get("env", {}).get("numpy"),
    }
    if env["reference_numpy"] != env["numpy"]:
        print(
            f"perfbench: reference made with numpy {env['reference_numpy']}, running"
            f" {env['numpy']}; Monte Carlo bytes may differ",
            file=sys.stderr,
        )
    return env


def run_workload(wl: Workload, bench_seed: int, seconds: float, trace: bool, reference: dict):
    """Run one workload; returns ``(result, details)``."""
    cli = import_cli()
    import tracing

    env = environment(wl, bench_seed, reference)
    workers = env["workers"]
    declared = declared_metrics(trace)
    imports = measure_import_ms(tracing.LAYERS) if trace else {}
    setup_times = []
    setups_due = 0 if trace else SETUP_REPEATS
    seeds = wl.job_seeds(bench_seed)
    problems = determinism_check(cli.main, wl, SEED_POOL[0])
    deterministic = not problems

    tracer = tracing.Tracer()
    jobs, per_job, per_level = [], [], {}
    start = time.perf_counter()
    while (
        not jobs
        or time.perf_counter() - start - sum(setup_times) < seconds
        or (trace and not any(j["traced"] for j in jobs))
    ):
        if len(setup_times) < setups_due:
            setup_times.append(measure_setup(wl))
        seed = next(seeds)
        traced = trace and len(jobs) % 2 == 1
        first_span = len(tracer.spans)
        if traced:
            tracer.install()
        try:
            main = (lambda argv: tracer.traced_main(cli.main, argv)) if traced else cli.main
            runs = [run_cli(main, argv) for argv in wl.job(seed)]
        finally:
            tracer.uninstall()
        job_problems = []
        for i, inv in enumerate(runs):
            if inv.rc != 0:
                job_problems.append(f"invocation {i} exited {inv.rc}")
            else:
                ref = reference["outputs"][str(seed)][i]
                job_problems += compare(ref, inv.out, wl.analytic_columns)
        jobs.append({
            "seed": seed,
            "traced": traced,
            "wall_s": sum(r.wall_s for r in runs),
            "cpu_s": sum(r.cpu_s for r in runs),
            "failed": bool(job_problems),
        })
        problems += [f"job {len(jobs)} (seed {seed}): {p}" for p in job_problems[:5]]
        if traced:
            metrics, levels = tracing.job_metrics(tracer.spans[first_span:], workers)
            per_job.append(metrics)
            for family, samples in levels.items():
                per_level.setdefault(family, []).extend(samples)

    while len(setup_times) < setups_due:
        setup_times.append(measure_setup(wl))
    failed = sum(j["failed"] for j in jobs)
    plain = [j for j in jobs if not j["traced"]]
    wall = statistics.median(j["wall_s"] for j in plain)
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{wl.name}.spans.tsv")
        metrics = {**imports, **tracing.summarize(per_job, per_level)}
        traced_wall = statistics.median(j["wall_s"] for j in jobs if j["traced"])
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "job_s.p50": wall,
            "job_cpu_s.p50": statistics.median(j["cpu_s"] for j in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")
    result = {
        "correct": deterministic and failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    details = {"env": env, "jobs": jobs, "setup_s": setup_times, "problems": problems}
    return result, details


def report(result: dict, details: dict):
    """Human-readable lines: environment block, then every metric with its unit."""
    env = details["env"]
    print(f"# env {json.dumps(env, sort_keys=True)}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {env['workload']}: jobs={attempted} failed={failed} correct={result['correct']}")
    rows = dict(result["metrics"])
    rows["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    for name, m in rows.items():
        print(f"{env['workload']:<16} {name:<44} {m['value']:>14.6g} {m['unit']}")
    for problem in details["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        reference = load_reference(args.workload)
        result, details = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, **details}, fh, indent=1)
    report(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
