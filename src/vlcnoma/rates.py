"""NOMA power-domain pairing: SINR outage thresholds and sum rates.

Two scheduled users share one transmission: the weak user gets the larger
power fraction and treats the strong user's signal as interference; the
strong user first decodes and removes the weak user's signal, then its own.
For a target-rate pair this reduces each user's outage event to its squared
channel gain falling below a fixed threshold, which is where the analytic
CDF families plug in.  An orthogonal time-sharing baseline with the same
user selection is provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, require_finite
from .gain_cdf import CDF_FAMILIES, FeedbackThresholds
from .geometry import LedGeometry
from .mobility import MobilityModel

__all__ = [
    "FeedbackMode",
    "FEEDBACK_MODES",
    "OMA_MODES",
    "canonical_feedback_mode",
    "NomaConfig",
    "required_sinr",
    "outage_gain_thresholds",
    "oma_gain_thresholds",
    "outage_pair_analytic",
    "sum_rate_noma",
    "sum_rate_oma",
]


@dataclass(frozen=True)
class FeedbackMode:
    """A feedback mode as data, which ``simulate`` maps to code.

    ``reads`` is the last report the mode reads, in draw order: 0 distance,
    1 mean angle, 2 instantaneous angle.  ``families`` are the (weak, strong)
    gain-CDF families of a mode with a closed-form outage path.
    """

    group: bool
    reads: int
    families: tuple[str, str] | None = None


FEEDBACK_MODES = {
    "FullCSI": FeedbackMode(False, 2, ("ordered", "ordered")),
    "MeanAngle": FeedbackMode(False, 1),
    "DistanceOnly": FeedbackMode(False, 0),
    "TwoBitInstantaneous": FeedbackMode(True, 2, ("twobit_inst_weak", "twobit_inst_strong")),
    "TwoBitMean": FeedbackMode(True, 1, ("twobit_mean_weak", "twobit_mean_strong")),
    "OneBitDistance": FeedbackMode(True, 0),
}
OMA_MODES = ("time_shared", "paper_literal")

# Time-sharing splits the period between the two served users.
OMA_TIME_SHARE = 2


def canonical_feedback_mode(name: str) -> str:
    """Map a case-insensitive mode name to its canonical spelling."""
    lookup = {mode.lower(): mode for mode in FEEDBACK_MODES}
    try:
        return lookup[str(name).strip().lower()]
    except KeyError:
        raise InvalidParameterError(
            f"unknown feedback mode {name!r}; expected one of {', '.join(FEEDBACK_MODES)}"
        ) from None


@dataclass(frozen=True)
class NomaConfig:
    """Pairing parameters: power split, target rates, transmit SNR, and user selection.

    ``snr`` is the linear electrical transmit SNR.  ``weak_rank`` and
    ``strong_rank`` select users by ascending-gain rank in the individual
    scheduling modes; ``thresholds`` drives the group modes.  Power
    fractions are taken as given, whatever their squared sum.
    """

    beta_weak: float
    beta_strong: float
    rate_weak: float
    rate_strong: float
    snr: float
    weak_rank: int = 1
    strong_rank: int = 2
    thresholds: FeedbackThresholds | None = None
    feedback_mode: str = "FullCSI"

    def __post_init__(self):
        object.__setattr__(self, "feedback_mode", canonical_feedback_mode(self.feedback_mode))
        require_finite(self, "beta_weak", "beta_strong", "rate_weak", "rate_strong", "snr")
        if not self.beta_weak > self.beta_strong > 0:
            raise InvalidParameterError("need beta_weak > beta_strong > 0")
        if self.rate_weak <= 0 or self.rate_strong <= 0:
            raise InvalidParameterError("target rates must be positive")
        if self.snr <= 0:
            raise InvalidParameterError("transmit SNR must be positive")
        if not 1 <= self.weak_rank < self.strong_rank:
            raise InvalidParameterError("need 1 <= weak_rank < strong_rank")
        # Each square can be finite while their sum is not.
        if not np.isfinite(self.beta_weak * self.beta_weak + self.beta_strong * self.beta_strong):
            raise InvalidParameterError(
                "beta_weak**2 + beta_strong**2 overflows; normalize_power=true rescales the split"
            )
        # The strong user's outage threshold divides by this product.
        if self.snr * self.beta_strong**2 == 0.0:
            raise InvalidParameterError("snr * beta_strong**2 underflows to zero")


def required_sinr(target_rate):
    """SINR at which an intensity-modulated optical link achieves the target rate exactly.

    It inverts the achievable rate 0.5 log2(1 + e / (2 pi) SINR) in bits/s/Hz.
    """
    return (np.exp2(2.0 * np.asarray(target_rate, dtype=float)) - 1.0) * 2.0 * np.pi / np.e


def outage_gain_thresholds(cfg: NomaConfig):
    """Squared-gain levels below which each user of the pair is in outage.

    Returns ``(threshold_weak, threshold_strong, feasible)``.  The split is
    infeasible when the weak user's target cannot be met at any gain because
    interference scales with the same gain; both thresholds are then
    infinite and callers should report certain outage.
    """
    eps_weak = float(required_sinr(cfg.rate_weak))
    eps_strong = float(required_sinr(cfg.rate_strong))
    margin = cfg.beta_weak**2 - cfg.beta_strong**2 * eps_weak
    if margin <= 0.0:
        return np.inf, np.inf, False
    threshold_weak = eps_weak / cfg.snr / margin
    threshold_strong = max(threshold_weak, eps_strong / (cfg.snr * cfg.beta_strong**2))
    return threshold_weak, threshold_strong, True


def oma_gain_thresholds(cfg: NomaConfig, mode: str = "time_shared"):
    """Squared-gain outage levels for the orthogonal baseline, per user.

    ``time_shared`` gives each user 1/L of the period (L = 2) at full power,
    so the rate inversion uses L-scaled targets and the transmit SNR.  The
    ``paper_literal`` variant inverts the plain rate formula with the gain
    standing in for the whole SINR: no SNR factor, no time split.
    """
    if mode == "time_shared":
        return (
            float(required_sinr(OMA_TIME_SHARE * cfg.rate_weak)) / cfg.snr,
            float(required_sinr(OMA_TIME_SHARE * cfg.rate_strong)) / cfg.snr,
        )
    if mode == "paper_literal":
        return float(required_sinr(cfg.rate_weak)), float(required_sinr(cfg.rate_strong))
    raise InvalidParameterError(f"unknown OMA mode {mode!r}; expected one of {OMA_MODES}")


def outage_pair_analytic(
    cfgs,
    model: MobilityModel,
    led: LedGeometry,
    *,
    total_users: int | None = None,
    oma_mode: str | None = None,
):
    """Closed-form outage probabilities (weak, strong) of the scheduled pair, a list per config.

    ``cfgs`` are the points of a collection group, configs that differ only in
    power split, target rates and SNR: one call of each of the mode's two
    families takes all their levels.  An infeasible split is in certain outage.
    With ``oma_mode`` the same two calls also evaluate the orthogonal baseline's
    levels (:func:`oma_gain_thresholds`), and each config gets ``(noma, oma)`` pairs.
    """
    cfgs = list(cfgs)
    if len({(c.feedback_mode, c.thresholds, c.weak_rank, c.strong_rank) for c in cfgs}) > 1:
        raise InvalidParameterError("a config sequence must share mode, thresholds and ranks")
    noma = [outage_gain_thresholds(c) for c in cfgs]
    levels = [(w, s) for w, s, feasible in noma if feasible]
    if oma_mode is not None:
        levels += [oma_gain_thresholds(c, oma_mode) for c in cfgs]
    p_weak = p_strong = np.empty(0)
    if levels:
        cfg = cfgs[0]
        weak, strong = FEEDBACK_MODES[cfg.feedback_mode].families or (None, None)
        if weak is None:
            raise InvalidParameterError(
                f"no analytic outage path for mode {cfg.feedback_mode!r}; "
                "use the Monte Carlo engine"
            )
        x_weak, x_strong = np.array(levels).T
        cond = dict(thresholds=cfg.thresholds, total_users=total_users, k_min=cfg.strong_rank)
        p_weak = CDF_FAMILIES[weak](x_weak, model, led, rank=cfg.weak_rank, **cond)
        p_strong = CDF_FAMILIES[strong](x_strong, model, led, rank=cfg.strong_rank, **cond)
    pairs = zip(p_weak.tolist(), p_strong.tolist())
    out = [next(pairs) if feasible else (1.0, 1.0) for *_, feasible in noma]
    return out if oma_mode is None else list(zip(out, pairs))


def sum_rate_noma(p_out_weak: float, p_out_strong: float, cfg: NomaConfig) -> float:
    """Expected sum rate given the pair's outage probabilities."""
    if not 0.0 <= p_out_weak <= 1.0 or not 0.0 <= p_out_strong <= 1.0:
        raise InvalidParameterError("outage probabilities must lie in [0, 1]")
    return (1.0 - p_out_weak) * cfg.rate_weak + (1.0 - p_out_strong) * cfg.rate_strong


def sum_rate_oma(
    cfg: NomaConfig,
    model: MobilityModel,
    led: LedGeometry,
    mode: str = "time_shared",
    *,
    total_users: int | None = None,
) -> float:
    """Sum rate of the orthogonal baseline serving the same selected pair."""
    [(_, oma)] = outage_pair_analytic([cfg], model, led, total_users=total_users, oma_mode=mode)
    return sum_rate_noma(*oma, cfg)
