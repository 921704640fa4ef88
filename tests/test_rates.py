"""Rate targets, SINR thresholds, outage probabilities, and the OMA baseline."""

import ast
import dataclasses
import inspect
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma import (
    CDF_FAMILIES,
    FEEDBACK_MODES,
    FeedbackMode,
    InvalidParameterError,
    NomaConfig,
    canonical_feedback_mode,
    oma_gain_thresholds,
    outage_gain_thresholds,
    outage_pair_analytic,
    required_sinr,
    sum_rate_noma,
    sum_rate_oma,
)
from vlcnoma import cli, simulate
from tests.conftest import make_noma


def achievable_rate(sinr):
    """Achievable rate in bits/s/Hz of an intensity-modulated optical link.

    The library keeps only its inverse, ``required_sinr``; this is the test oracle.
    """
    return 0.5 * np.log2(1.0 + np.e / (2.0 * np.pi) * np.asarray(sinr, dtype=float))


class TestRateInversion:
    def test_round_trip(self):
        for rate in (0.1, 1.0, 2.0, 10.0, 25.0):
            assert achievable_rate(required_sinr(rate)) == pytest.approx(rate, abs=1e-12)

    @given(st.floats(0.01, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, rate):
        assert achievable_rate(required_sinr(rate)) == pytest.approx(rate, abs=1e-12)

    def test_rate_monotone_in_sinr(self):
        sinrs = np.logspace(-3, 12, 200)
        rates = achievable_rate(sinrs)
        assert np.all(np.diff(rates) > 0)


class TestSinr:
    """The SINR model behind ``outage_gain_thresholds``, written out from beta and SNR.

    The weak user decodes its own message with the strong user's signal as
    interference; the strong user first decodes and cancels the weak
    message, then decodes its own with no interference left.
    """

    @staticmethod
    def sinr_weak_message(gain_sq, cfg):
        return gain_sq * cfg.beta_weak**2 / (gain_sq * cfg.beta_strong**2 + 1.0 / cfg.snr)

    @staticmethod
    def sinr_strong_message(gain_sq, cfg):
        return gain_sq * cfg.beta_strong**2 * cfg.snr

    def test_own_without_interferers_scales_with_snr(self):
        for snr_db in (140.0, 200.0, 250.0):
            cfg = make_noma(snr_db=snr_db)
            _, threshold_strong, _ = outage_gain_thresholds(cfg)
            assert self.sinr_strong_message(threshold_strong, cfg) == pytest.approx(
                float(required_sinr(cfg.rate_strong)), rel=1e-12
            )

    def test_cross_interference_saturates(self):
        for snr_db in (140.0, 200.0, 250.0):
            cfg = make_noma(snr_db=snr_db)
            threshold_weak, _, feasible = outage_gain_thresholds(cfg)
            assert feasible
            assert self.sinr_weak_message(threshold_weak, cfg) == pytest.approx(
                float(required_sinr(cfg.rate_weak)), rel=1e-12
            )
        # the weak message's SINR saturates at the power ratio, so a target
        # beyond it is infeasible at any gain
        cfg = make_noma()
        ratio_rate = float(achievable_rate(cfg.beta_weak**2 / cfg.beta_strong**2))
        assert not outage_gain_thresholds(make_noma(rate_weak=ratio_rate * 1.01))[2]

    def test_cross_below_own_power_ratio(self):
        # at the strong threshold the strong user also clears the weak
        # message, whose SINR stays below the power ratio
        cfg = make_noma()
        _, threshold_strong, _ = outage_gain_thresholds(cfg)
        sinr = self.sinr_weak_message(threshold_strong, cfg)
        assert float(required_sinr(cfg.rate_weak)) <= sinr
        assert sinr < cfg.beta_weak**2 / cfg.beta_strong**2


class TestNomaConfig:
    def test_power_ordering_enforced(self):
        with pytest.raises(InvalidParameterError):
            make_noma(beta_weak=0.1, beta_strong=0.2)
        with pytest.raises(InvalidParameterError):
            make_noma(beta_weak=0.5, beta_strong=0.0)

    def test_rank_ordering_enforced(self):
        with pytest.raises(InvalidParameterError):
            make_noma(weak_rank=5, strong_rank=5)
        with pytest.raises(InvalidParameterError):
            make_noma(weak_rank=0, strong_rank=3)

    def test_positive_scalars_enforced(self):
        with pytest.raises(InvalidParameterError):
            make_noma(rate_weak=0.0)
        with pytest.raises(InvalidParameterError):
            make_noma(snr=-1.0)

    # The CLI warns about an unbalanced split once; the record takes it as given.
    @pytest.mark.filterwarnings("error")
    def test_unbalanced_power_is_taken_as_given(self):
        cfg = NomaConfig(63 / 64, 1 / 64, 2.0, 10.0, 1e20, strong_rank=10)
        assert (cfg.beta_weak, cfg.beta_strong) == (63 / 64, 1 / 64)

    @pytest.mark.filterwarnings("error")
    def test_copies_of_unbalanced_power_stay_silent(self):
        cfg = NomaConfig(63 / 64, 1 / 64, 2.0, 10.0, 1e20, strong_rank=10)
        for copy in (dataclasses.replace(cfg), dataclasses.replace(cfg, snr=1e21)):
            assert (copy.beta_weak, copy.beta_strong) == (63 / 64, 1 / 64)

    def test_mode_canonicalization(self):
        assert canonical_feedback_mode("fullcsi") == "FullCSI"
        assert canonical_feedback_mode(" TWOBITMEAN ") == "TwoBitMean"
        with pytest.raises(InvalidParameterError):
            canonical_feedback_mode("nonsense")
        cfg = make_noma(mode="meanangle")
        assert cfg.feedback_mode == "MeanAngle"


class TestModeTable:
    """``FEEDBACK_MODES`` is the one description of what each mode reads and how it picks."""

    def test_records_are_frozen(self):
        for mode in FEEDBACK_MODES.values():
            assert isinstance(mode, FeedbackMode)
            with pytest.raises(dataclasses.FrozenInstanceError):
                mode.reads = 0

    def test_families_are_cdf_families(self):
        for name, mode in FEEDBACK_MODES.items():
            if mode.families is not None:
                assert len(mode.families) == 2, name
                assert set(mode.families) <= set(CDF_FAMILIES), name

    def test_each_pick_family_belongs_to_one_mode(self):
        # so the family -> mode lookup of conditional sampling is unique
        owners = Counter(
            family
            for mode in FEEDBACK_MODES.values()
            for family in set(mode.families or ())
        )
        assert set(owners) == set(CDF_FAMILIES) - {"unordered"}
        assert all(count == 1 for count in owners.values()), owners

    def test_reads_is_a_report_index(self):
        # 0 distance, 1 mean angle, 2 instantaneous angle
        assert {mode.reads for mode in FEEDBACK_MODES.values()} <= {0, 1, 2}

    def test_canonical_names_are_the_table(self):
        for name in FEEDBACK_MODES:
            assert canonical_feedback_mode(name.upper()) == name
        assert {canonical_feedback_mode(name) for name in FEEDBACK_MODES} == set(FEEDBACK_MODES)
        for name in ("", "OneBit", "FullCSI2", "unordered", "time_shared"):
            with pytest.raises(InvalidParameterError):
                canonical_feedback_mode(name)

    @pytest.mark.parametrize("module", [simulate, cli])
    def test_no_mode_name_outside_the_table(self, module):
        # The one exception is the default value in the feedback_mode row of the CLI's KEYS.
        tree = ast.parse(inspect.getsource(module))
        allowed = set()
        if module is cli:
            (keys,) = [
                node.value
                for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "KEYS"
            ]
            (row,) = [
                value for key, value in zip(keys.keys, keys.values) if key.value == "feedback_mode"
            ]
            allowed = {
                id(node)
                for node in ast.walk(row)
                if isinstance(node, ast.Constant) and node.value in FEEDBACK_MODES
            }
            assert len(allowed) == 1
        names = [
            (node.lineno, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and node.value in FEEDBACK_MODES
            and id(node) not in allowed
        ]
        assert not names, f"mode names in {module.__name__}: {names}"


class TestOutageThresholds:
    def test_weak_below_strong_when_feasible(self):
        for snr_db in (150.0, 200.0, 250.0):
            cfg = make_noma(snr_db=snr_db)
            t_weak, t_strong, feasible = outage_gain_thresholds(cfg)
            assert feasible
            assert t_weak <= t_strong

    def test_thresholds_shrink_with_snr(self):
        lo = outage_gain_thresholds(make_noma(snr_db=180.0))
        hi = outage_gain_thresholds(make_noma(snr_db=220.0))
        assert hi[0] < lo[0] and hi[1] < lo[1]

    def test_infeasible_split_flagged(self):
        # nearly even power split cannot carry a 2 bit/s/Hz weak target
        # through the strong user's interference
        cfg = make_noma(beta_weak=0.71, beta_strong=0.70, rate_weak=2.0)
        t_weak, t_strong, feasible = outage_gain_thresholds(cfg)
        assert not feasible
        assert np.isinf(t_weak) and np.isinf(t_strong)

    def test_infeasible_split_gives_certain_outage(self, model_dev25, led_fov50):
        cfg = make_noma(beta_weak=0.71, beta_strong=0.70)
        assert outage_pair_analytic(cfg, model_dev25, led_fov50, total_users=20) == (1.0, 1.0)


class TestOmaThresholds:
    def test_time_shared_uses_doubled_rate_and_snr(self):
        cfg = make_noma(snr_db=200.0)
        t_weak, t_strong = oma_gain_thresholds(cfg, "time_shared")
        assert t_weak == pytest.approx(float(required_sinr(4.0)) / cfg.snr, rel=1e-12)
        assert t_strong == pytest.approx(float(required_sinr(20.0)) / cfg.snr, rel=1e-12)

    def test_paper_literal_is_snr_free(self):
        a = oma_gain_thresholds(make_noma(snr_db=150.0), "paper_literal")
        b = oma_gain_thresholds(make_noma(snr_db=250.0), "paper_literal")
        assert a == b
        assert a[0] == pytest.approx(float(required_sinr(2.0)), rel=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            oma_gain_thresholds(make_noma(), "round_robin")


class TestAnalyticOutage:
    def test_full_csi_saturates(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=250.0)
        p_weak, p_strong = outage_pair_analytic(cfg, model_dev25, led_fov50, total_users=20)
        assert p_weak == pytest.approx(0.0, abs=1e-12)
        assert p_strong == pytest.approx(0.0, abs=1e-12)
        assert sum_rate_noma(p_weak, p_strong, cfg) == pytest.approx(12.0, abs=1e-10)

    def test_sum_rate_nondecreasing_in_snr(self, model_dev25, led_fov50):
        rates = []
        for snr_db in np.arange(150.0, 255.0, 10.0):
            cfg = make_noma(snr_db=snr_db)
            p = outage_pair_analytic(cfg, model_dev25, led_fov50, total_users=20)
            rates.append(sum_rate_noma(*p, cfg))
        assert np.all(np.diff(rates) >= -1e-12)

    def test_group_mode_sum_rate_nondecreasing(self, model_dev30, led_fov60, thresholds_validation):
        rates = []
        for snr_db in np.arange(170.0, 235.0, 15.0):
            cfg = make_noma(
                snr_db=snr_db, mode="TwoBitInstantaneous", thresholds=thresholds_validation
            )
            p = outage_pair_analytic(cfg, model_dev30, led_fov60)
            rates.append(sum_rate_noma(*p, cfg))
        assert np.all(np.diff(rates) >= -1e-12)

    def test_mc_only_modes_have_no_analytic_path(self, model_dev25, led_fov50):
        for mode in ("MeanAngle", "DistanceOnly", "OneBitDistance"):
            cfg = make_noma(mode=mode, thresholds=None)
            with pytest.raises(InvalidParameterError):
                outage_pair_analytic(cfg, model_dev25, led_fov50, total_users=20)

    def test_full_csi_needs_population_size(self, model_dev25, led_fov50):
        cfg = make_noma()
        with pytest.raises(InvalidParameterError):
            outage_pair_analytic(cfg, model_dev25, led_fov50)

    def test_probability_bounds(self, model_dev25, led_fov50):
        for snr_db in (140.0, 170.0, 200.0, 230.0):
            cfg = make_noma(snr_db=snr_db)
            p_weak, p_strong = outage_pair_analytic(cfg, model_dev25, led_fov50, total_users=20)
            assert 0.0 <= p_weak <= 1.0
            assert 0.0 <= p_strong <= 1.0

    def test_sum_rate_rejects_bad_probability(self):
        cfg = make_noma()
        with pytest.raises(InvalidParameterError):
            sum_rate_noma(-0.1, 0.5, cfg)
        with pytest.raises(InvalidParameterError):
            sum_rate_noma(0.5, 1.1, cfg)


class TestOmaSumRate:
    def test_time_shared_saturates_like_noma(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=260.0)
        oma = sum_rate_oma(cfg, model_dev25, led_fov50, "time_shared", total_users=20)
        assert oma == pytest.approx(12.0, abs=0.1)

    def test_paper_literal_vanishes_at_physical_gains(self, model_dev25, led_fov50):
        # gain squares live around 1e-10; an SNR-free threshold of order one
        # is never met
        cfg = make_noma(snr_db=250.0)
        oma = sum_rate_oma(cfg, model_dev25, led_fov50, "paper_literal", total_users=20)
        assert oma == pytest.approx(0.0, abs=1e-9)

    def test_noma_beats_time_shared_oma_past_knee(self, model_dev25, led_fov50):
        for snr_db in (225.0, 240.0, 250.0):
            cfg = make_noma(snr_db=snr_db)
            noma = sum_rate_noma(
                *outage_pair_analytic(cfg, model_dev25, led_fov50, total_users=20), cfg
            )
            oma = sum_rate_oma(cfg, model_dev25, led_fov50, "time_shared", total_users=20)
            assert noma > oma

    def test_config_replace_keeps_validation(self):
        cfg = make_noma()
        with pytest.raises(InvalidParameterError):
            dataclasses.replace(cfg, snr=-5.0)
