"""The benchmark's own tests: python3 -m pytest perfbench/tests -q

Each workload runs at a tiny size against a reference made at that size, and
the result must match the schema in BENCHMARK.json.  The output check must
not be vacuous: a perturbed reference row has to fail the job.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import outputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from workloads import SEED_POOL, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_TRIALS = "2000"


def tiny(wl):
    """The workload with 2,000 trials and at most 6 CDF levels per grid."""

    def shrink(argv):
        out = list(argv)
        for i, tok in enumerate(out):
            if i and out[i - 1] == "--trials":
                out[i] = TINY_TRIALS
            elif tok.startswith(("grid_points=", "ks_grid_points=")):
                key, value = tok.split("=")
                out[i] = f"{key}={min(int(value), 6)}"
        return tuple(out)

    return dataclasses.replace(
        wl,
        invocations=tuple(shrink(argv) for argv in wl.invocations),
        determinism_invocation=shrink(wl.determinism_invocation),
    )


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def tiny_refs(cli):
    env = {"numpy": numpy.__version__}
    return {
        name: reference.make_reference(cli.main, tiny(wl), env) for name, wl in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_matches_schema(tiny_refs, name, trace):
    result, details = run.run_workload(tiny(WORKLOADS[name]), 3, 0.0, trace, tiny_refs[name])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= (2 if trace else 1)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(result)
    if trace:
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        if name == "mc_fullcsi":
            assert metrics["geometry.gain_calls_per_chunk"] == 2.0
        if name == "analytic_cdf":
            assert metrics["gain_cdf.distinct_level_frac"] < 1.0
            assert metrics["quadrature.inner_supports"] > 0
        assert (run.OUT / f"{name}.spans.tsv").is_file()


@pytest.mark.parametrize("column", ["mc_sum_rate", "analytic_sum_rate"])
def test_perturbed_reference_row_fails_the_job(tiny_refs, column):
    wl = WORKLOADS["mc_fullcsi"]
    ref = json.loads(json.dumps(tiny_refs[wl.name]))
    for seed, texts in ref["outputs"].items():
        lines = texts[0].splitlines()
        header = lines[1].split(",")
        cells = lines[-1].split(",")  # highest SNR: no cell is zero
        col = header.index(column)
        cells[col] = repr(float(cells[col]) * (1 + 1e-6))
        lines[-1] = ",".join(cells)
        ref["outputs"][seed] = ["\n".join(lines) + "\n"]
    result, _ = run.run_workload(tiny(wl), 3, 0.0, False, ref)
    assert result["failed"] > 0 and not result["correct"]


REF = """# manifest config_sha256=abc seed=1 version=0.1.0
x,analytic_cdf,empirical_cdf
0.5,0.25,0.2
1.5,0.75,0.8
# summary ks_bound=0.05 samples=10
"""


@pytest.mark.parametrize(
    "edit, ok",
    [
        (lambda t: t, True),
        (lambda t: t.replace("0.25,", "0.250000000025,"), True),  # 1e-10 relative
        (lambda t: t.replace("0.25,", "0.2500025,"), False),  # 1e-5 relative
        (lambda t: t.replace(",0.2\n", ",0.2000000001\n"), False),  # Monte Carlo cell
        (lambda t: t.replace("seed=1", "seed=2"), False),
        (lambda t: t.replace("1.5,0.75,0.8\n", ""), False),
        (lambda t: t.replace("samples=10", "samples=11"), False),
        (lambda t: t + "# env numpy=2\n", True),
        (lambda t: t.replace("x,analytic_cdf,empirical_cdf", "x,analytic_cdf,empirical_cdf,se")
         .replace(",0.2\n", ",0.2,0.01\n").replace(",0.8\n", ",0.8,0.01\n"), True),
    ],
)
def test_compare_rules(edit, ok):
    problems = outputs.compare(REF, edit(REF), {"analytic_cdf", "ks_bound"})
    assert (not problems) == ok, problems


def test_committed_references_cover_the_seed_pool():
    for name, wl in WORKLOADS.items():
        ref = run.load_reference(name)
        assert sorted(ref["outputs"]) == sorted(str(s) for s in SEED_POOL)
        assert all(len(texts) == len(wl.invocations) for texts in ref["outputs"].values())


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_fullcsi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
