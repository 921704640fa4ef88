"""Acceptance gate: one test per criterion, each recording a PASS/FAIL verdict.

Every test checks its criterion at the stated tolerance and appends one
line to the terminal summary via ``record_acceptance``, so a full run ends
with eleven explicit verdicts.  Monte Carlo collections score every level of
the SNR grid in the chunk; their sum rates are cached per (mode, field of
view, noise) and reused across criteria.  All draws are seeded, so verdicts
are reproducible bit for bit.
"""

import functools
import os
import time
from collections import Counter

import numpy as np
import pytest

from vlcnoma import (
    CDF_FAMILIES,
    EmpiricalDistribution,
    FeedbackThresholds,
    LedGeometry,
    MobilityModel,
    NoiseConfig,
    cdf_gain_unordered,
    cdf_strong_twobit_inst,
    cdf_vertical_angle,
    channel_constant,
    collect_scheduled_gains,
    estimate,
    integrate_1d,
    ks_distance_bound,
    nonzero_count_histogram,
    nonzero_gain_probability,
    oma_gain_thresholds,
    outage_gain_thresholds,
    outage_pair_analytic,
    pmf_nonzero_count_truncated,
    ramp_cdf_integral,
    rate_stats,
    sample_users,
    sum_rate_noma,
)
from tests.conftest import make_noma, noma_outage, record_acceptance

SEED = 77
WORKERS = os.cpu_count() or 1
TOTAL_USERS = 20

# Sweep setup: 2 m LED height, 60 degree half-power beamwidth, 1 cm^2
# detector, deviation 25 degrees around a 25..155 degree mean band,
# thresholds at a tenth of the distance span and of the view half-angle.
LED_V = {
    fov: LedGeometry(
        ell=2.0, phi_hpbw=np.radians(60.0), area_r=1e-4, theta_fov=np.radians(fov)
    )
    for fov in (50, 90)
}
MODEL_V = MobilityModel(
    d_min=0.0,
    d_max=10.0,
    mean_angle_min=np.radians(25.0),
    mean_angle_max=np.radians(155.0),
    max_deviation=np.radians(25.0),
)
TH_V = {fov: FeedbackThresholds.from_fractions(MODEL_V, LED_V[fov], 0.1, 0.1) for fov in LED_V}

# Distribution-validation setup: 60 degree view half-angle, deviation 30
# degrees over a 30..150 mean band, thresholds fixed at 1 m and 6 degrees.
LED_FIG = LedGeometry(
    ell=2.0, phi_hpbw=np.radians(60.0), area_r=1e-4, theta_fov=np.radians(60.0)
)
MODEL_FIG = MobilityModel(
    d_min=0.0,
    d_max=10.0,
    mean_angle_min=np.radians(30.0),
    mean_angle_max=np.radians(150.0),
    max_deviation=np.radians(30.0),
)
TH_FIG = FeedbackThresholds(dist_threshold=1.0, angle_threshold=np.radians(6.0))
# Conditioning of the analytic families in this setup: ranks among 20 users, 10 lit.
FIG_CONDITION = dict(
    model=MODEL_FIG, led=LED_FIG, thresholds=TH_FIG, total_users=TOTAL_USERS, k_min=10
)

GRID_DB = np.arange(140.0, 251.0, 5.0)
GRID_GROUP_DB = np.arange(150.0, 226.0, 5.0)
STEADY_DB = 250.0


def check(index: int, label: str, ok: bool, detail: str):
    record_acceptance(index, label, ok, detail)
    assert ok, f"criterion {index:02d} {label}: {detail}"


def make_cfg(mode: str, fov: int, snr_db: float = STEADY_DB):
    return make_noma(snr_db=snr_db, mode=mode, thresholds=TH_V[fov])


def grid_cfgs(mode: str, fov: int):
    return [make_cfg(mode, fov, db) for db in GRID_DB]


def grid_levels(mode: str, fov: int):
    """The NOMA outage levels of every ``GRID_DB`` point: one threshold set."""
    return [outage_gain_thresholds(cfg) for cfg in grid_cfgs(mode, fov)]


@pytest.fixture(scope="module")
def mc():
    """Cached Monte Carlo sum rates over ``GRID_DB``, keyed by (mode, fov, noisy)."""
    cache = {}

    def collect(mode: str, fov: int, noisy: bool = False, trials: int = 1_500_000):
        key = (mode, fov, noisy, trials)
        if key not in cache:
            noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=True) if noisy else None
            [(scheduled, [counts])] = collect_scheduled_gains(
                trials,
                [(make_cfg(mode, fov), noise, [grid_levels(mode, fov)])],
                MODEL_V,
                LED_V[fov],
                total_users=TOTAL_USERS,
                seed=SEED,
                workers=WORKERS,
            )
            cache[key] = [mean for mean, _ in rate_stats(scheduled, counts, grid_cfgs(mode, fov))]
        return cache[key]

    return collect


def mc_steady_rate(mc, mode: str, fov: int, noisy: bool = False) -> float:
    return mc(mode, fov, noisy)[list(GRID_DB).index(STEADY_DB)]


def analytic_steady_rate(mode: str, model, led, thresholds) -> float:
    cfg = make_noma(snr_db=STEADY_DB, mode=mode, thresholds=thresholds)
    total = TOTAL_USERS if mode == "FullCSI" else None
    return sum_rate_noma(*noma_outage(cfg, model, led, total_users=total), cfg)


def test_criterion_01_vertical_angle_cdf():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    _, _, inst = sample_users(MODEL_FIG, rng, (1_000_000,))
    ks = ks_distance_bound(
        EmpiricalDistribution(inst), lambda x: cdf_vertical_angle(x, MODEL_FIG)
    )
    elapsed = time.perf_counter() - start
    ok = ks < 0.005 and elapsed < 5.0
    check(
        1,
        "vertical-angle CDF vs simulation",
        ok,
        f"KS={ks:.2e} (tol 5e-3), {elapsed:.1f}s (<5s)",
    )


def test_criterion_02_nonzero_count_pmf():
    start = time.perf_counter()
    counts = nonzero_count_histogram(
        10_000_000, TOTAL_USERS, MODEL_FIG, LED_FIG, seed=SEED, workers=WORKERS
    )
    kept = counts.astype(float)
    kept[:10] = 0.0
    empirical = kept / kept.sum()
    p = nonzero_gain_probability(MODEL_FIG, LED_FIG)
    analytic = pmf_nonzero_count_truncated(np.arange(TOTAL_USERS + 1), TOTAL_USERS, p, 10)
    tv = 0.5 * float(np.abs(analytic - empirical).sum())
    elapsed = time.perf_counter() - start
    ok = tv < 0.01 and elapsed < 60.0
    check(
        2,
        "scheduled nonzero-count PMF",
        ok,
        f"TV={tv:.2e} (tol 1e-2) over 1e7 trials, {elapsed:.0f}s (<60s)",
    )


def test_criterion_03_channel_gain_cdf_families():
    plan = (
        ("unordered", 2_500_000, 801, 0.015),
        ("ordered", 2_000_000, 801, 0.015),
        ("twobit_inst_weak", 3_000_000, 801, 0.015),
        ("twobit_inst_strong", 105_000_000, 801, 0.015),
        ("twobit_mean_weak", 2_700_000, 401, 0.02),
        ("twobit_mean_strong", 105_000_000, 401, 0.02),
    )
    start = time.perf_counter()
    ok = True
    parts = []
    for family, trials, grid, tol in plan:
        samples = estimate(family, trials, seed=SEED, workers=WORKERS, **FIG_CONDITION)
        cdf = functools.partial(CDF_FAMILIES[family], **FIG_CONDITION)
        bound = ks_distance_bound(samples, cdf, grid_size=grid)
        n = samples.size
        ok = ok and bound < tol and 1_000_000 <= n <= 10_000_000
        parts.append(f"{family}={bound:.1e}/{tol:g} (n={n})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    check(
        3,
        "squared-gain CDF families vs conditioned sampling",
        ok,
        "; ".join(parts) + f"; {elapsed:.0f}s (<300s)",
    )


def _integral_case(offset: float, model: MobilityModel) -> int:
    """Label 1..6 by where the shifted band bounds sit relative to 0 and pi/2."""
    labels = {(0, 0): 1, (0, 1): 2, (0, 2): 3, (1, 1): 4, (1, 2): 5, (2, 2): 6}

    def bucket(v):
        return 0 if v < 0.0 else (1 if v < np.pi / 2 else 2)

    a = np.pi + offset - model.mean_angle_max
    b = np.pi + offset - model.mean_angle_min
    return labels[(bucket(a), bucket(b))]


def _ramp_integral_oracle(offset, y, z, model, led):
    flat = MobilityModel(
        model.d_min, model.d_max, model.mean_angle_min, model.mean_angle_max, 0.0
    )

    def integrand(r):
        return cdf_vertical_angle(np.pi - np.arctan2(led.ell, r) + offset, flat)

    # the integrand kinks where the shifted angle meets a band edge
    kinks = []
    for edge in (model.mean_angle_min, model.mean_angle_max):
        v = np.pi + offset - edge
        if 0.0 < v < np.pi / 2:
            kinks.append(led.ell / np.tan(v))
    return integrate_1d(integrand, y, z, kinks, rel_tol=1e-12, abs_tol=1e-15)


def test_criterion_04_closed_integral_vs_quadrature():
    # a band wider than pi/2 and one narrower, so every piecewise case occurs
    narrow = MobilityModel(0.0, 10.0, np.radians(60.0), np.radians(120.0), 0.0)
    rng = np.random.default_rng(SEED)
    seen = Counter()
    worst = 0.0
    ok = True
    for model in (MODEL_FIG, narrow):
        lo = model.mean_angle_min - np.pi - 0.3
        hi = model.mean_angle_max - np.pi / 2 + 0.3
        for _ in range(500):
            offset = rng.uniform(lo, hi)
            y = rng.uniform(0.0, 9.0)
            z = y + rng.uniform(0.01, 10.0 - y)
            seen[_integral_case(offset, model)] += 1
            closed = ramp_cdf_integral(offset, y, z, model, LED_FIG)
            oracle = _ramp_integral_oracle(offset, y, z, model, LED_FIG)
            err = abs(closed - oracle)
            ok = ok and err <= max(1e-8 * abs(oracle), 1e-12)
            if abs(oracle) > 1e-6:
                worst = max(worst, err / abs(oracle))
    coverage = sorted(seen.items())
    ok = ok and len(seen) == 6 and min(seen.values()) >= 20
    check(
        4,
        "closed-form distance integral vs quadrature",
        ok,
        f"worst rel err={worst:.1e} (tol 1e-8) on 1000 triples, cases {coverage}",
    )


def test_criterion_05_full_csi_steady_state(mc):
    ok = True
    parts = []
    for fov in (50, 90):
        ana_steady = analytic_steady_rate("FullCSI", MODEL_V, LED_V[fov], TH_V[fov])
        mc_steady = mc_steady_rate(mc, "FullCSI", fov)
        # One analytic call scores the curve's levels, the set its Monte Carlo run scored.
        [pairs] = outage_pair_analytic(
            make_cfg("FullCSI", fov), [grid_levels("FullCSI", fov)], MODEL_V, LED_V[fov],
            total_users=TOTAL_USERS,
        )
        gap = 0.0
        curve = zip(grid_cfgs("FullCSI", fov), pairs, mc("FullCSI", fov), strict=True)
        for cfg, pair, mean in curve:
            gap = max(gap, abs(sum_rate_noma(*pair, cfg) - mean))
        ok = (
            ok
            and abs(ana_steady - 12.0) <= 0.1
            and abs(mc_steady - 12.0) <= 0.1
            and gap < 0.05
        )
        parts.append(
            f"fov{fov}: analytic={ana_steady:.4f} mc={mc_steady:.4f} max|gap|={gap:.3f}"
        )
    check(
        5,
        "full-knowledge steady sum rate 12.0±0.1, analytic-vs-mc 0.05",
        ok,
        "; ".join(parts),
    )


def test_criterion_06_mean_angle_feedback_gap(mc):
    ok = True
    parts = []
    for fov in (50, 90):
        gap = mc_steady_rate(mc, "FullCSI", fov) - mc_steady_rate(mc, "MeanAngle", fov)
        ok = ok and 0.2 <= gap <= 2.0
        parts.append(f"fov{fov}: gap={gap:.3f}")
    check(6, "mean-angle feedback steady gap in [0.2, 2.0]", ok, "; ".join(parts))


def test_criterion_07_distance_only_feedback_loss(mc):
    loss = mc_steady_rate(mc, "FullCSI", 50) - mc_steady_rate(mc, "DistanceOnly", 50)
    ok = 6.5 <= loss <= 9.5
    check(7, "distance-only feedback steady loss in [6.5, 9.5]", ok, f"loss={loss:.3f}")


def test_criterion_08_threshold_feedback_robustness(mc):
    # orientation wobble leaves instantaneous two-bit pairing unchanged
    flat = MobilityModel(0.0, 10.0, 0.0, np.pi, 0.0)
    th_flat = FeedbackThresholds.from_fractions(flat, LED_V[50], 0.1, 0.1)
    r_dev25 = analytic_steady_rate("TwoBitInstantaneous", MODEL_V, LED_V[50], TH_V[50])
    r_dev0 = analytic_steady_rate("TwoBitInstantaneous", flat, LED_V[50], th_flat)
    wobble = abs(r_dev25 - r_dev0)
    # reporting the mean angle instead of the instantaneous one costs little
    r_mean = analytic_steady_rate("TwoBitMean", MODEL_V, LED_V[50], TH_V[50])
    degradation = r_dev25 - r_mean
    # a single distance bit pays a larger, bounded penalty
    loss = mc_steady_rate(mc, "FullCSI", 50) - mc_steady_rate(mc, "OneBitDistance", 50)
    ok = wobble < 0.1 and 0.0 <= degradation < 0.5 and 3.0 <= loss <= 5.0
    check(
        8,
        "two-bit/one-bit threshold feedback windows",
        ok,
        f"wobble={wobble:.2e} (<0.1), mean-report cost={degradation:.3f} (<0.5), "
        f"distance-bit loss={loss:.3f} (in [3, 5])",
    )


def test_criterion_09_noma_dominates_oma_past_knee():
    curves = (
        ("FullCSI", 50, GRID_DB),
        ("FullCSI", 90, GRID_DB),
        ("TwoBitInstantaneous", 50, GRID_GROUP_DB),
        ("TwoBitMean", 50, GRID_GROUP_DB),
    )
    ok = True
    parts = []
    for mode, fov, grid in curves:
        total = TOTAL_USERS if mode == "FullCSI" else None
        cfgs = [make_cfg(mode, fov, db) for db in grid]
        oma_modes = ("time_shared", "paper_literal")
        # One call scores the curve's NOMA levels and both OMA modes' levels.
        sets = [[outage_gain_thresholds(cfg) for cfg in cfgs]]
        sets += [[oma_gain_thresholds(cfg, oma_mode) for cfg in cfgs] for oma_mode in oma_modes]
        noma, *omas = outage_pair_analytic(cfgs[0], sets, MODEL_V, LED_V[fov], total_users=total)
        rates = np.asarray([sum_rate_noma(*p_noma, cfg) for p_noma, cfg in zip(noma, cfgs)])
        # compare at the outage level: forming the two sum rates first
        # would round away the gap once both saturate
        margins = {
            oma_mode: [
                cfg.rate_weak * (p_oma[0] - p_noma[0]) + cfg.rate_strong * (p_oma[1] - p_noma[1])
                for cfg, p_noma, p_oma in zip(cfgs, noma, oma, strict=True)
            ]
            for oma_mode, oma in zip(oma_modes, omas, strict=True)
        }
        knee = int(np.argmax(rates >= 6.0))
        ok = ok and rates[knee] >= 6.0
        worst = min(min(margins[m][knee:]) for m in margins)
        ok = ok and worst > 0.0
        parts.append(f"{mode}/fov{fov}: knee={grid[knee]:.0f}dB min margin={worst:.1e}")
    check(9, "NOMA strictly above OMA past the knee (both OMA modes)", ok, "; ".join(parts))


def test_criterion_10_noisy_feedback_sensitivity(mc):
    ok = True
    parts = []
    for mode, tol in (("MeanAngle", 0.1), ("FullCSI", 0.5)):
        gap = max(abs(a - b) for a, b in zip(mc(mode, 50), mc(mode, 50, noisy=True)))
        ok = ok and gap < tol
        parts.append(f"{mode}: max|gap|={gap:.4f} (<{tol})")
    check(10, "noisy feedback stays marginal", ok, "; ".join(parts))


def test_criterion_11_property_invariants():
    _, upsilon = channel_constant(LED_FIG)
    xs = np.linspace(0.0, 1.2 / upsilon(MODEL_FIG.d_min), 60)
    mono_ok = True
    for cdf in CDF_FAMILIES.values():
        vals = cdf(xs, **FIG_CONDITION)
        mono_ok = mono_ok and bool(np.all(np.diff(vals) >= -1e-12))
        mono_ok = mono_ok and bool(np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12)))

    eps = 1e-9
    lo, hi = MODEL_FIG.mean_angle_min, MODEL_FIG.mean_angle_max
    cont_ok = True
    for boundary in (lo - np.pi, hi - np.pi, lo - np.pi / 2, hi - np.pi / 2):
        below = ramp_cdf_integral(boundary - eps, 1.5, 8.0, MODEL_FIG, LED_FIG)
        above = ramp_cdf_integral(boundary + eps, 1.5, 8.0, MODEL_FIG, LED_FIG)
        cont_ok = cont_ok and abs(above - below) < 1e-8

    # widening the strong set to every lit user recovers the unordered law
    full_th = FeedbackThresholds(
        dist_threshold=MODEL_FIG.d_max, angle_threshold=LED_FIG.theta_fov
    )
    red_ok = all(
        abs(
            cdf_strong_twobit_inst(x, MODEL_FIG, LED_FIG, full_th)
            - cdf_gain_unordered(x, MODEL_FIG, LED_FIG)
        )
        < 1e-10
        for x in np.linspace(0.0, 1.0 / upsilon(0.0), 10)
    )

    cfg = make_cfg("FullCSI", 50, 200.0)
    [one], [many] = (
        collect_scheduled_gains(
            200_000, [(cfg, None, [grid_levels("FullCSI", 50)])], MODEL_V, LED_V[50],
            total_users=TOTAL_USERS, seed=5, workers=workers,
        )
        for workers in (1, 3)
    )
    # The same scheduled count, so the same scheduling probability, and the same cells.
    cfgs = grid_cfgs("FullCSI", 50)
    det_ok = one == many and rate_stats(one[0], one[1][0], cfgs) == rate_stats(
        many[0], many[1][0], cfgs
    )

    ok = mono_ok and cont_ok and red_ok and det_ok
    check(
        11,
        "property invariants (monotone CDFs, boundary continuity, reduction, determinism)",
        ok,
        f"monotone={mono_ok} continuity={cont_ok} reduction={red_ok} determinism={det_ok}",
    )
