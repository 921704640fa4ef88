"""Dual-path evaluation of NOMA over visible-light downlinks with randomly oriented receivers.

Closed-form channel-gain distributions and outage/sum-rate expressions are
paired with a vectorized Monte Carlo engine so every analytic result can be
cross-validated against simulation under identical conditioning.
"""

from .errors import DegenerateConditionError, InvalidParameterError, NumericFailureError
from .gain_cdf import (
    CDF_FAMILIES,
    FeedbackThresholds,
    band_measure,
    cdf_gain_ranked,
    cdf_gain_unordered,
    cdf_strong_twobit_inst,
    cdf_strong_twobit_mean,
    cdf_weak_twobit_inst,
    cdf_weak_twobit_mean,
    edge_gain_distance,
    gain_halfangle,
    nonzero_gain_probability,
    ramp_cdf_integral,
)
from .geometry import (
    LedGeometry,
    channel_constant,
    dc_gain,
    incidence_angle,
    lambertian_order,
    mean_dc_gain,
)
from .mobility import (
    MobilityModel,
    band_mixture,
    binom_pmf,
    binom_tail,
    cdf_vertical_angle,
    pmf_nonzero_count_truncated,
    sample_users,
)
from .quadrature import (
    EmpiricalDistribution,
    integrate_1d,
    integrate_2d_nested,
    ks_bound_grid,
    ks_distance_bound,
)
from .rates import (
    FEEDBACK_MODES,
    FeedbackMode,
    OMA_MODES,
    NomaConfig,
    canonical_feedback_mode,
    oma_gain_thresholds,
    outage_gain_thresholds,
    outage_pair_analytic,
    required_sinr,
    sum_rate_noma,
    sum_rate_oma,
)
from .simulate import (
    NoiseConfig,
    collect_scheduled_gains,
    estimate,
    nonzero_count_histogram,
    rate_stats,
)

__version__ = "0.1.0"
