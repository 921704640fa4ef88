"""Experiment driver emitting validation curves and sum-rate sweeps as CSV.

Every subcommand is deterministic given (config, seed): reruns produce
byte-identical output.  Configuration is a flat key=value file with
command-line overrides; angles are degrees and SNR is dB at this boundary
only, converted to radians and linear scale before touching the library.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import DegenerateConditionError, InvalidParameterError
from .gain_cdf import CDF_FAMILIES, FeedbackThresholds, nonzero_gain_probability
from .geometry import LedGeometry
from .mobility import (
    MAX_TOTAL_USERS,
    MobilityModel,
    cdf_vertical_angle,
    pmf_nonzero_count_truncated,
)
from .quadrature import EmpiricalDistribution, ks_bound_grid, ks_distance, ks_distance_bound
from .rates import (
    FEEDBACK_MODES,
    OMA_MODES,
    NomaConfig,
    oma_gain_thresholds,
    outage_pair_analytic,
    sum_rate_noma,
    sum_rate_oma,
)
from .simulate import (
    NoiseConfig,
    collect_scheduled_gains,
    estimate,
    nonzero_count_histogram,
    rate_stats,
    sample_vertical_angles,
)

# Per sweep subcommand: its grid's config key, leading CSV columns and value
# columns.  Each "<run>_sum_rate" column asks for one gain collection per point:
# "mc" under the configured noise, "clean" and "noisy" with noise off and on.
SWEEPS = {
    "sweep-snr": (
        "snr_grid_db",
        ("snr_db",),
        ("analytic_sum_rate", "mc_sum_rate", "mc_stderr", "oma_sum_rate", "sched_prob"),
    ),
    "sweep-deviation": (
        "deviation_grid_deg",
        ("deviation_deg",),
        ("analytic_sum_rate", "mc_sum_rate", "mc_stderr", "sched_prob"),
    ),
    "sweep-thresholds": (
        "threshold_frac_grid",
        ("dist_frac", "angle_frac"),
        ("analytic_sum_rate", "mc_sum_rate", "mc_stderr", "sched_prob"),
    ),
    "noisy-compare": (
        "snr_grid_db",
        ("snr_db",),
        (
            "clean_sum_rate",
            "clean_stderr",
            "noisy_sum_rate",
            "noisy_stderr",
            "gap",
            "clean_sched_prob",
            "noisy_sched_prob",
        ),
    ),
}

# Empty string means "derive at resolve time" (mean-angle band, trials, workers,
# absolute threshold overrides).
DEFAULTS = {
    "ell": "2.0",
    "phi_hpbw_deg": "60.0",
    "area_r": "1e-4",
    "theta_fov_deg": "50.0",
    "d_min": "0.0",
    "d_max": "10.0",
    "mean_angle_min_deg": "",
    "mean_angle_max_deg": "",
    "max_deviation_deg": "25.0",
    "beta_weak": "0.984375",
    "beta_strong": "0.015625",
    "rate_weak": "2.0",
    "rate_strong": "10.0",
    "snr_db": "200.0",
    "weak_rank": "1",
    "strong_rank": "10",
    "feedback_mode": "FullCSI",
    "normalize_power": "false",
    "total_users": "20",
    "dist_threshold_frac": "0.1",
    "angle_threshold_frac": "0.1",
    "dist_threshold": "",
    "angle_threshold_deg": "",
    "sigma_d": "0.05",
    "sigma_phi_deg": "2.5",
    "noise_enabled": "false",
    "trials": "",
    "seed": "0",
    "workers": "",
    "grid_points": "201",
    "ks_grid_points": "512",
    "snr_grid_db": "140:250:5",
    "deviation_grid_deg": "0:45:5",
    "threshold_frac_grid": "0.1,0.9",
    "family": "unordered",
    "rank": "",
    "oma_mode": "time_shared",
}


def _parse_float(conf: dict, key: str) -> float:
    try:
        return float(conf[key])
    except ValueError as exc:
        raise InvalidParameterError(f"config key {key}: not a number: {conf[key]!r}") from exc


def _parse_int(conf: dict, key: str) -> int:
    try:
        return int(conf[key])
    except ValueError as exc:
        raise InvalidParameterError(f"config key {key}: not an integer: {conf[key]!r}") from exc


def _parse_bool(conf: dict, key: str) -> bool:
    text = conf[key].strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise InvalidParameterError(f"config key {key}: not a boolean: {conf[key]!r}")


def _snr_linear(snr_db: float) -> float:
    """Linear SNR of a dB value; one too large for a float is an invalid parameter."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise InvalidParameterError(f"SNR of {snr_db} dB overflows a float") from None


def parse_grid(text: str, key: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive) or a comma-separated value list."""
    text = text.strip()
    if not text:
        raise InvalidParameterError(f"config key {key}: empty grid")
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = parts
            if step <= 0:
                raise ValueError("step must be positive")
            values = np.arange(start, stop + step / 2, step)
        else:
            values = np.array([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise InvalidParameterError(f"config key {key}: bad grid {text!r}: {exc}") from exc
    if values.size == 0 or np.any(np.diff(values) <= 0):
        raise InvalidParameterError(f"config key {key}: grid must be non-empty and increasing")
    return tuple(float(v) for v in values)


def _read_item(text: str, where: str, expects: str) -> tuple[str, str]:
    """``(key, value)`` of one ``--config`` line or ``--set`` item; ``where`` names it in errors."""
    if "=" not in text:
        raise InvalidParameterError(f"{expects} key=value, got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if key not in DEFAULTS:
        raise InvalidParameterError(f"{where}: unknown config key {key!r}")
    return key, value


def parse_config_file(path: str) -> dict:
    """Read a flat key=value file; ``#`` starts a comment, blank lines skip."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read config {path}: {exc}") from exc
    items = ((f"{path}:{n}", raw.split("#", 1)[0].strip()) for n, raw in enumerate(lines, 1))
    return dict(_read_item(line, at, f"{at}: expected") for at, line in items if line)


def resolve_config(args: argparse.Namespace) -> tuple[dict, bool]:
    """Merge defaults, config file, ``--set`` items and flags; also say if the mean band was set."""
    conf = dict(DEFAULTS)
    if args.config:
        conf.update(parse_config_file(args.config))
    conf.update(_read_item(item, "--set", "--set expects") for item in args.set or [])
    conf.update((k, str(v)) for k, v in vars(args).items() if k in DEFAULTS and v is not None)

    # Derived defaults: the mean-angle band tracks the deviation so the
    # instantaneous angle stays inside [0, 180] degrees unless overridden.
    explicit_band = bool(conf["mean_angle_min_deg"] or conf["mean_angle_max_deg"])
    dev = _parse_float(conf, "max_deviation_deg")
    if not conf["mean_angle_min_deg"]:
        conf["mean_angle_min_deg"] = repr(dev)
    if not conf["mean_angle_max_deg"]:
        conf["mean_angle_max_deg"] = repr(180.0 - dev)
    if not conf["trials"]:
        conf["trials"] = "1000000" if args.command in SWEEPS else "10000000"
    return conf, explicit_band


def config_hash(conf: dict) -> str:
    payload = "\n".join(f"{k}={conf[k]}" for k in sorted(conf))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_geometry(conf: dict) -> LedGeometry:
    return LedGeometry(
        ell=_parse_float(conf, "ell"),
        phi_hpbw=math.radians(_parse_float(conf, "phi_hpbw_deg")),
        area_r=_parse_float(conf, "area_r"),
        theta_fov=math.radians(_parse_float(conf, "theta_fov_deg")),
    )


def build_mobility(conf: dict) -> MobilityModel:
    return MobilityModel(
        d_min=_parse_float(conf, "d_min"),
        d_max=_parse_float(conf, "d_max"),
        mean_angle_min=math.radians(_parse_float(conf, "mean_angle_min_deg")),
        mean_angle_max=math.radians(_parse_float(conf, "mean_angle_max_deg")),
        max_deviation=math.radians(_parse_float(conf, "max_deviation_deg")),
    )


def build_thresholds(conf: dict, model: MobilityModel, led: LedGeometry) -> FeedbackThresholds:
    if conf["dist_threshold"] or conf["angle_threshold_deg"]:
        if not (conf["dist_threshold"] and conf["angle_threshold_deg"]):
            raise InvalidParameterError(
                "absolute thresholds need both dist_threshold and angle_threshold_deg"
            )
        return FeedbackThresholds(
            dist_threshold=_parse_float(conf, "dist_threshold"),
            angle_threshold=math.radians(_parse_float(conf, "angle_threshold_deg")),
        )
    return FeedbackThresholds.from_fractions(
        model,
        led,
        _parse_float(conf, "dist_threshold_frac"),
        _parse_float(conf, "angle_threshold_frac"),
    )


def build_noma(conf: dict, thresholds: FeedbackThresholds) -> NomaConfig:
    fields = dict(
        beta_weak=_parse_float(conf, "beta_weak"),
        beta_strong=_parse_float(conf, "beta_strong"),
        rate_weak=_parse_float(conf, "rate_weak"),
        rate_strong=_parse_float(conf, "rate_strong"),
        snr=_snr_linear(_parse_float(conf, "snr_db")),
        weak_rank=_parse_int(conf, "weak_rank"),
        strong_rank=_parse_int(conf, "strong_rank"),
        thresholds=thresholds,
        feedback_mode=conf["feedback_mode"],
    )
    if _parse_bool(conf, "normalize_power"):
        # Scale so the squares sum to one.  A zero or non-finite split goes to NomaConfig
        # unscaled, which rejects it.  Multiplying by the reciprocal, not dividing by the
        # norm, keeps the bits of the pinned normalized runs.
        norm = math.hypot(fields["beta_weak"], fields["beta_strong"])
        if 0.0 < norm < math.inf:
            scale = 1.0 / norm
            fields["beta_weak"] *= scale
            fields["beta_strong"] *= scale
    return NomaConfig(**fields)


def build_noise(conf: dict) -> NoiseConfig:
    return NoiseConfig(
        sigma_d=_parse_float(conf, "sigma_d"),
        sigma_phi=_parse_float(conf, "sigma_phi_deg"),
        enabled=_parse_bool(conf, "noise_enabled"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment: model objects plus the sweep grid for one subcommand."""

    command: str
    led: LedGeometry
    model: MobilityModel
    noma: NomaConfig
    noise: NoiseConfig
    total_users: int
    trials: int
    seed: int
    workers: int | None
    grid: tuple[float, ...]
    ks_grid_points: int
    oma_mode: str
    family: str
    rank: int | None
    explicit_mean_band: bool

    def __post_init__(self):
        if self.trials < 1000:
            raise InvalidParameterError("estimate subcommands need at least 1000 trials")
        if self.seed < 0:
            raise InvalidParameterError("seed must be nonnegative")
        if self.oma_mode not in OMA_MODES:
            raise InvalidParameterError(f"oma_mode must be one of {OMA_MODES}")
        if self.noma.strong_rank > self.total_users:
            raise InvalidParameterError("strong_rank exceeds total_users")
        if self.total_users > MAX_TOTAL_USERS:
            raise InvalidParameterError(f"total_users must be at most {MAX_TOTAL_USERS}")
        if self.workers is not None and self.workers < 1:
            raise InvalidParameterError("workers must be at least 1")


def build_experiment(command: str, conf: dict, explicit_mean_band: bool) -> ExperimentConfig:
    led = build_geometry(conf)
    model = build_mobility(conf)
    thresholds = build_thresholds(conf, model, led)
    noma = build_noma(conf, thresholds)
    grid_points = _parse_int(conf, "grid_points")
    ks_grid_points = _parse_int(conf, "ks_grid_points")
    if grid_points < 2 or ks_grid_points < 2:
        raise InvalidParameterError("grid_points and ks_grid_points must be at least 2")
    if command in SWEEPS:
        key = SWEEPS[command][0]
        grid = parse_grid(conf[key], key)
    else:
        grid = tuple(np.linspace(0.0, 1.0, grid_points))
    return ExperimentConfig(
        command=command,
        led=led,
        model=model,
        noma=noma,
        noise=build_noise(conf),
        total_users=_parse_int(conf, "total_users"),
        trials=_parse_int(conf, "trials"),
        seed=_parse_int(conf, "seed"),
        workers=_parse_int(conf, "workers") if conf["workers"] else None,
        grid=grid,
        ks_grid_points=ks_grid_points,
        oma_mode=conf["oma_mode"],
        family=conf["family"],
        rank=_parse_int(conf, "rank") if conf["rank"] else None,
        explicit_mean_band=explicit_mean_band,
    )


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def emit_csv(out: str | None, manifest: str, header: list, rows: list, summary: list):
    lines = [manifest, ",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    lines.extend(summary)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write output {out}: {exc}") from exc


def cmd_validate_angle_cdf(xc: ExperimentConfig, out: str | None, manifest: str):
    inst = sample_vertical_angles(xc.trials, xc.model, seed=xc.seed, workers=xc.workers)
    lo = xc.model.mean_angle_min - xc.model.max_deviation
    hi = xc.model.mean_angle_max + xc.model.max_deviation
    xs = lo + np.asarray(xc.grid) * (hi - lo)
    analytic = cdf_vertical_angle(xs, xc.model)
    emp = EmpiricalDistribution(inst)
    ks = ks_distance(emp, lambda x: cdf_vertical_angle(x, xc.model))
    rows = [
        (math.degrees(x), a, e) for x, a, e in zip(xs, analytic, emp.cdf(xs))
    ]
    summary = [f"# summary ks_distance={fmt(ks)} samples={xc.trials}"]
    emit_csv(out, manifest, ["angle_deg", "analytic_cdf", "empirical_cdf"], rows, summary)


def cmd_validate_knz(xc: ExperimentConfig, out: str | None, manifest: str):
    counts = nonzero_count_histogram(
        xc.trials, xc.total_users, xc.model, xc.led, seed=xc.seed, workers=xc.workers
    )
    j = xc.noma.strong_rank
    kept = counts.copy().astype(float)
    kept[:j] = 0.0
    total = kept.sum()
    if total == 0:
        raise DegenerateConditionError("no trial reached the scheduling rank")
    empirical = kept / total
    p = nonzero_gain_probability(xc.model, xc.led)
    ks_vals = np.arange(xc.total_users + 1)
    analytic = pmf_nonzero_count_truncated(ks_vals, xc.total_users, p, j)
    tv = 0.5 * float(np.abs(analytic - empirical).sum())
    rows = list(zip(ks_vals, analytic, empirical))
    summary = [
        f"# summary tv_distance={fmt(tv)} sched_prob={fmt(total / counts.sum())}"
    ]
    emit_csv(out, manifest, ["k_nonzero", "analytic_pmf", "empirical_pmf"], rows, summary)


def cmd_validate_channel_cdf(xc: ExperimentConfig, out: str | None, manifest: str):
    res = estimate(
        xc.family,
        xc.trials,
        xc.noma,
        xc.model,
        xc.led,
        total_users=xc.total_users,
        seed=xc.seed,
        workers=xc.workers,
        rank=xc.rank,
    )
    emp = EmpiricalDistribution(res.value)
    cdf = functools.partial(
        CDF_FAMILIES[xc.family],
        model=xc.model,
        led=xc.led,
        thresholds=xc.noma.thresholds,
        total_users=xc.total_users,
        k_min=xc.noma.strong_rank,
        rank=xc.rank,
    )
    xs = np.unique(emp.quantile(np.asarray(xc.grid)))
    # The quantile grid and the KS grid share their end points: integrate each level once.
    levels = np.union1d(xs, ks_bound_grid(emp, xc.ks_grid_points))
    values = cdf(levels)

    def known(x):
        return values[np.searchsorted(levels, x)]

    ks_bound = ks_distance_bound(emp, known, grid_size=xc.ks_grid_points)
    rows = list(zip(xs, known(xs), emp.cdf(xs)))
    summary = [
        "# summary"
        f" ks_bound={fmt(ks_bound)} samples={emp.n} conditioning_prob={fmt(res.sched_prob)}"
    ]
    emit_csv(out, manifest, ["gain_sq", "analytic_cdf", "empirical_cdf"], rows, summary)


def _sweep_points(xc: ExperimentConfig):
    """(leading cells, NomaConfig, MobilityModel) at each point of the sweep's grid."""
    if xc.command == "sweep-deviation":
        for dev_deg in xc.grid:
            # The derived mean band tracks the deviation; an explicit one stays put.
            band = {} if xc.explicit_mean_band else dict(
                mean_angle_min=math.radians(dev_deg), mean_angle_max=math.radians(180.0 - dev_deg)
            )
            model = dataclasses.replace(xc.model, max_deviation=math.radians(dev_deg), **band)
            # Threshold fractions read only d_min, d_max and the fov: xc.noma holds.
            yield (dev_deg,), xc.noma, model
    elif xc.command == "sweep-thresholds":
        group = tuple(name for name, mode in FEEDBACK_MODES.items() if mode.group)
        if xc.noma.feedback_mode not in group:
            raise InvalidParameterError(
                f"sweep-thresholds needs a group feedback mode, one of {group}"
            )
        for fracs in itertools.product(xc.grid, repeat=2):
            thresholds = FeedbackThresholds.from_fractions(xc.model, xc.led, *fracs)
            yield fracs, dataclasses.replace(xc.noma, thresholds=thresholds), xc.model
    else:
        for snr_db in xc.grid:
            yield (snr_db,), dataclasses.replace(xc.noma, snr=_snr_linear(snr_db)), xc.model


def _sweep_cells(xc: ExperimentConfig, cfg: NomaConfig, model: MobilityModel, gains, values):
    """Cells of one sweep point by column name; analytic and OMA ones only if asked for."""
    cells = {"analytic_sum_rate": None}
    for run, collected in gains.items():
        mc = rate_stats(*collected, cfg)
        cells[f"{run}_sum_rate"], cells[f"{run}_stderr"] = mc.value, mc.stderr
        cells["sched_prob" if run == "mc" else f"{run}_sched_prob"] = mc.sched_prob
    analytic = FEEDBACK_MODES[cfg.feedback_mode].families is not None
    if "analytic_sum_rate" in values and analytic:
        p_weak, p_strong = outage_pair_analytic(cfg, model, xc.led, total_users=xc.total_users)
        cells["analytic_sum_rate"] = sum_rate_noma(p_weak, p_strong, cfg)
    if "oma_sum_rate" in values and analytic:
        cells["oma_sum_rate"] = sum_rate_oma(
            cfg, model, xc.led, xc.oma_mode, total_users=xc.total_users
        )
    elif "oma_sum_rate" in values:
        oma = rate_stats(*gains["mc"], cfg, oma_gain_thresholds(cfg, xc.oma_mode))
        cells["oma_sum_rate"] = oma.value
    if "gap" in values:
        cells["gap"] = cells["clean_sum_rate"] - cells["noisy_sum_rate"]
    return cells


def cmd_sweep(xc: ExperimentConfig, out: str | None, manifest: str):
    _, leading, values = SWEEPS[xc.command]
    noise = {
        "mc": xc.noise,
        "clean": dataclasses.replace(xc.noise, enabled=False),
        "noisy": dataclasses.replace(xc.noise, enabled=True),
    }
    runs = {run: n for run, n in noise.items() if f"{run}_sum_rate" in values}
    shared = dict(total_users=xc.total_users, seed=xc.seed, workers=xc.workers)
    rows, picked_by = [], None
    for lead, cfg, model in _sweep_points(xc):
        # Picks depend on the thresholds and the model, not on SNR, powers or rates.
        if (cfg.thresholds, model) != picked_by:
            picked_by = (cfg.thresholds, model)
            gains = {
                run: collect_scheduled_gains(xc.trials, cfg, model, xc.led, noise=n, **shared)
                for run, n in runs.items()
            }
        cells = _sweep_cells(xc, cfg, model, gains, values)
        rows.append((*lead, *(cells[name] for name in values)))
    emit_csv(out, manifest, [*leading, *values], rows, [])


COMMANDS = {
    "validate-angle-cdf": cmd_validate_angle_cdf,
    "validate-knz": cmd_validate_knz,
    "validate-channel-cdf": cmd_validate_channel_cdf,
    **dict.fromkeys(SWEEPS, cmd_sweep),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcnoma",
        description="Analytic and Monte Carlo evaluation of VLC NOMA downlinks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--seed", type=int, help="RNG seed (64-bit)")
        p.add_argument("--trials", type=int, help="Monte Carlo trial count")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument(
            "--mode", dest="feedback_mode", metavar="MODE", help="feedback mode override"
        )
        p.add_argument("--oma-mode", dest="oma_mode", choices=OMA_MODES)
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
        if name == "validate-channel-cdf":
            p.add_argument("--family", choices=CDF_FAMILIES)
            p.add_argument("--rank", type=int, help="order-statistic rank (ordered family)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        conf, explicit_band = resolve_config(args)
        xc = build_experiment(args.command, conf, explicit_band)
        manifest = (
            f"# manifest config_sha256={config_hash(conf)} seed={xc.seed} version={__version__}"
        )
        COMMANDS[args.command](xc, args.out, manifest)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateConditionError as exc:
        print(f"degenerate condition: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        # NumericFailureError, or float overflow or division by zero on extreme finite input.
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # Each worker holds one chunk of up to 65,536 trials x total_users users.
        print("out of memory: lower total_users or workers", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
