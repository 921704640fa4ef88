"""Agreement matrix: per-user outage of each analytic mode against the Monte Carlo picks.

For every mode with a closed-form path, at the corner geometries (a 90-degree
field of view, no orientation deviation), the family CDF of each pick must
match the fraction of scheduled trials whose picked gain stays at or below a
level.  The levels are the Monte Carlo 10/50/90% quantiles of each pick's
gain, where outage is informative, plus the outage thresholds at 250 dB.
"""

import numpy as np
import pytest

from tests.conftest import collect_gain_pairs, make_noma
from vlcnoma import (
    CDF_FAMILIES,
    FEEDBACK_MODES,
    FeedbackThresholds,
    LedGeometry,
    MobilityModel,
    outage_gain_thresholds,
    outage_pair_analytic,
)

TRIALS = 250_000
TOTAL_USERS = 20
Z_MAX = 4.0


def _z(mc: float, analytic: float, n: int) -> float:
    """Binomial z-score of a Monte Carlo fraction against the analytic probability."""
    se = np.sqrt(analytic * (1.0 - analytic) / n)
    if se == 0.0:
        return 0.0 if mc == analytic else np.inf
    return (mc - analytic) / se


@pytest.mark.parametrize("dev_deg", [0.0, 25.0])
@pytest.mark.parametrize("fov_deg", [50.0, 90.0])
@pytest.mark.parametrize(
    "mode", sorted(name for name, mode in FEEDBACK_MODES.items() if mode.families)
)
def test_outage_agrees_per_user(mode, fov_deg, dev_deg):
    led = LedGeometry(2.0, np.radians(60.0), 1e-4, np.radians(fov_deg))
    dev = np.radians(dev_deg)
    model = MobilityModel(0.0, 10.0, dev, np.pi - dev, dev)
    th = FeedbackThresholds.from_fractions(model, led, 0.1, 0.1)
    cfg = make_noma(snr_db=250.0, mode=mode, thresholds=th)
    [gains] = collect_gain_pairs(
        TRIALS, [(cfg, None)], model, led, total_users=TOTAL_USERS, seed=7
    )
    n = gains[0].size
    cond = dict(thresholds=th, total_users=TOTAL_USERS, k_min=cfg.strong_rank)
    z = {}
    for side, family, rank, gain_sq in zip(
        ("weak", "strong"), FEEDBACK_MODES[mode].families, (cfg.weak_rank, cfg.strong_rank), gains
    ):
        levels = np.quantile(gain_sq, [0.1, 0.5, 0.9])
        analytic = CDF_FAMILIES[family](levels, model, led, rank=rank, **cond)
        for q, x, p in zip((10, 50, 90), levels, analytic):
            z[f"{side} q{q}"] = _z(np.mean(gain_sq <= x), p, n)
    thresholds = outage_gain_thresholds(cfg)
    [[pair]] = outage_pair_analytic(cfg, [[thresholds]], model, led, total_users=TOTAL_USERS)
    for side, x, p, gain_sq in zip(("weak", "strong"), thresholds, pair, gains):
        z[f"{side} 250 dB"] = _z(np.mean(gain_sq <= x), p, n)
    worst = max(z, key=lambda k: abs(z[k]))
    assert abs(z[worst]) <= Z_MAX, f"{worst}: z={z[worst]:.2f} over {n} scheduled trials"
