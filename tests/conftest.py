"""Shared fixtures: reference geometries and mobility models used across suites."""

import copy

import numpy as np
import pytest

from vlcnoma import (
    FeedbackThresholds,
    LedGeometry,
    MobilityModel,
    NomaConfig,
    outage_gain_thresholds,
    outage_pair_analytic,
    simulate,
)


@pytest.fixture(scope="session")
def led_fov50():
    return LedGeometry(
        ell=2.0, phi_hpbw=np.radians(60.0), area_r=1e-4, theta_fov=np.radians(50.0)
    )


@pytest.fixture(scope="session")
def led_fov60():
    return LedGeometry(
        ell=2.0, phi_hpbw=np.radians(60.0), area_r=1e-4, theta_fov=np.radians(60.0)
    )


@pytest.fixture(scope="session")
def led_fov90():
    return LedGeometry(
        ell=2.0, phi_hpbw=np.radians(60.0), area_r=1e-4, theta_fov=np.radians(90.0)
    )


@pytest.fixture(scope="session")
def model_dev25():
    """Deviation 25 degrees, mean band tracking it."""
    return MobilityModel(
        d_min=0.0,
        d_max=10.0,
        mean_angle_min=np.radians(25.0),
        mean_angle_max=np.radians(155.0),
        max_deviation=np.radians(25.0),
    )


@pytest.fixture(scope="session")
def model_dev30():
    """Deviation 30 degrees over a 30..150 mean band (distribution-validation setup)."""
    return MobilityModel(
        d_min=0.0,
        d_max=10.0,
        mean_angle_min=np.radians(30.0),
        mean_angle_max=np.radians(150.0),
        max_deviation=np.radians(30.0),
    )


@pytest.fixture(scope="session")
def thresholds_validation(model_dev30, led_fov60):
    """Thresholds for the distribution-validation setup: 1 m and 6 degrees."""
    return FeedbackThresholds(dist_threshold=1.0, angle_threshold=np.radians(6.0))


def make_noma(snr_db=200.0, mode="FullCSI", thresholds=None, **kw):
    defaults = dict(
        beta_weak=63 / 64,
        beta_strong=1 / 64,
        rate_weak=2.0,
        rate_strong=10.0,
        snr=10.0 ** (snr_db / 10.0),
        weak_rank=1,
        strong_rank=10,
        feedback_mode=mode,
        thresholds=thresholds,
    )
    defaults.update(kw)
    return NomaConfig(**defaults)


def noma_outage(cfg, model, led, *, total_users=None):
    """The closed-form outage pair (weak, strong) of one config at its own NOMA levels."""
    [[pair]] = outage_pair_analytic(
        cfg, [[outage_gain_thresholds(cfg)]], model, led, total_users=total_users
    )
    return pair


def collect_gain_pairs(trials, runs, model, led, *, total_users, seed=0, workers=None):
    """The scheduled pairs of squared true gains of each run, held whole: the scoring's oracle.

    ``runs`` is a sequence of ``(NomaConfig, NoiseConfig | None)``.  The pairs
    come from the engine's own chunk driver and per-run steps
    (``simulate._map_chunks`` and ``simulate._run_step``), each run from its
    own copy of the chunk's generator, as ``collect_scheduled_gains`` makes
    them before it scores them.  Returns a list with one
    ``(gain_sq_weak, gain_sq_strong)`` pair per run, in chunk and block order.
    """
    runs = list(runs)

    def start(rng, n):
        shape = (n, total_users)
        steps = [
            simulate._run_step(cfg, noise, copy.deepcopy(rng), shape, led) for cfg, noise in runs
        ]
        return lambda rows, true, buffer: [step(rows, true, buffer) for step in steps]

    parts = simulate._map_chunks(start, trials, model, seed, workers, total_users)
    return [
        tuple(np.concatenate([p[r][:, k] for p in parts]) for k in (0, 1)) for r in range(len(runs))
    ]


# Acceptance verdicts collected by tests/test_acceptance.py; the terminal
# summary prints them so every run ends with one line per criterion.
ACCEPTANCE_RESULTS = []


def record_acceptance(index: int, label: str, ok: bool, detail: str):
    ACCEPTANCE_RESULTS.append((index, label, bool(ok), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for index, label, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {index:02d} {status} {label}: {detail}")
