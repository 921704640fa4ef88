"""Output check: compare a job's CSV text against the stored reference.

The manifest line and every Monte Carlo cell must match byte for byte.
Analytic cells (named per workload) must match within ``ANALYTIC_REL_TOL``
relative, which leaves room for last-digit float drift from a reworked
quadrature.  Extra columns, extra `# summary` keys and extra trailing `#`
lines in the output are allowed, so diagnostics added later do not count as
failures; everything the reference holds must be there.
"""

from __future__ import annotations

import math

ANALYTIC_REL_TOL = 1e-8
# CDF values near zero: below this absolute difference two cells agree.
ANALYTIC_ABS_TOL = 1e-12


def _parse(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# manifest"):
        raise ValueError("no manifest line")
    data = [line for line in lines[1:] if not line.startswith("#")]
    if not data:
        raise ValueError("no header line")
    summary = {}
    for line in lines[1:]:
        if line.startswith("# summary"):
            summary.update(tok.split("=", 1) for tok in line.split()[2:] if "=" in tok)
    header = data[0].split(",")
    rows = [dict(zip(header, row.split(","))) for row in data[1:]]
    return lines[0], header, rows, summary


def _cells_match(ref: str, out: str, analytic: bool) -> bool:
    if ref == out:
        return True
    if not analytic or not ref or not out:
        return False
    try:
        a, b = float(ref), float(out)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=ANALYTIC_REL_TOL, abs_tol=ANALYTIC_ABS_TOL)


def compare(reference: str, output: str, analytic_columns) -> list[str]:
    """Differences between a reference CSV and an output CSV; empty when they agree."""
    try:
        ref_manifest, ref_header, ref_rows, ref_summary = _parse(reference)
        manifest, header, rows, summary = _parse(output)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    problems = []
    if manifest != ref_manifest:
        problems.append(f"manifest {manifest!r} != {ref_manifest!r}")
    missing = [col for col in ref_header if col not in header]
    if missing:
        problems.append(f"missing columns {missing}")
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} data rows, reference has {len(ref_rows)}")
    for i, (ref_row, row) in enumerate(zip(ref_rows, rows)):
        for col in ref_header:
            if col in header and not _cells_match(
                ref_row.get(col, ""), row.get(col, ""), col in analytic_columns
            ):
                problems.append(f"row {i} {col}: {row.get(col)!r} != {ref_row.get(col)!r}")
    for key, ref_value in ref_summary.items():
        if not _cells_match(ref_value, summary.get(key, ""), key in analytic_columns):
            problems.append(f"summary {key}: {summary.get(key)!r} != {ref_value!r}")
    return problems


def data_rows(text: str) -> list[str]:
    """Header and data lines, without the manifest or `#` lines."""
    return [line for line in text.splitlines() if not line.startswith("#")]
