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
import warnings
from collections.abc import Callable, Iterable
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
from .quadrature import EmpiricalDistribution, ks_bound_grid, ks_distance_bound
from .rates import (
    FEEDBACK_MODES,
    OMA_MODES,
    NomaConfig,
    oma_gain_thresholds,
    outage_pair_analytic,
    sum_rate_noma,
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

# A validate command's grid holds grid_points floats; this bounds its memory.
MAX_GRID_POINTS = 1_000_000


def _reader(parse, noun: str):
    """Key reader ``(text, key) -> parse(text)``; a text that ``parse`` rejects is not ``noun``."""

    def read(text: str, key: str):
        try:
            return parse(text)
        except (LookupError, ValueError) as exc:
            raise InvalidParameterError(f"config key {key}: not {noun}: {text!r}") from exc

    return read


_BOOLEANS = {
    **dict.fromkeys(("true", "1", "yes", "on"), True),
    **dict.fromkeys(("false", "0", "no", "off"), False),
}
NUMBER = _reader(float, "a number")
DEGREES = _reader(lambda text: math.radians(float(text)), "a number")
INTEGER = _reader(int, "an integer")
BOOLEAN = _reader(lambda text: _BOOLEANS[text.strip().lower()], "a boolean")
TEXT = _reader(str, "text")


def _choice(choices) -> Callable[[str, str], str]:
    """Reader of a key whose text must name one of ``choices`` exactly."""
    return _reader(dict(zip(choices, choices)).__getitem__, f"one of {', '.join(choices)}")


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


@dataclass(frozen=True)
class Key:
    """One config key: its default text, its reader and its optional integer bounds."""

    default: str
    read: Callable[[str, str], object]
    low: int | None = None
    high: int | None = None


# One row per config key.  Angle keys are degrees read into radians, except
# sigma_phi_deg (NoiseConfig takes degrees) and the deviation grid (each sweep
# point converts).  A blank default is derived at resolve time (the mean-angle
# band, trials) or means unset (absolute thresholds, workers, rank).
KEYS = {
    "ell": Key("2.0", NUMBER),
    "phi_hpbw_deg": Key("60.0", DEGREES),
    "area_r": Key("1e-4", NUMBER),
    "theta_fov_deg": Key("50.0", DEGREES),
    "d_min": Key("0.0", NUMBER),
    "d_max": Key("10.0", NUMBER),
    "mean_angle_min_deg": Key("", DEGREES),
    "mean_angle_max_deg": Key("", DEGREES),
    "max_deviation_deg": Key("25.0", DEGREES),
    "beta_weak": Key("0.984375", NUMBER),
    "beta_strong": Key("0.015625", NUMBER),
    "rate_weak": Key("2.0", NUMBER),
    "rate_strong": Key("10.0", NUMBER),
    "snr_db": Key("200.0", NUMBER),
    "weak_rank": Key("1", INTEGER),
    "strong_rank": Key("10", INTEGER),
    "feedback_mode": Key("FullCSI", TEXT),
    "normalize_power": Key("false", BOOLEAN),
    "total_users": Key("20", INTEGER, high=MAX_TOTAL_USERS),
    "dist_threshold_frac": Key("0.1", NUMBER),
    "angle_threshold_frac": Key("0.1", NUMBER),
    "dist_threshold": Key("", NUMBER),
    "angle_threshold_deg": Key("", DEGREES),
    "sigma_d": Key("0.05", NUMBER),
    "sigma_phi_deg": Key("2.5", NUMBER),
    "noise_enabled": Key("false", BOOLEAN),
    "trials": Key("", INTEGER, low=1000),
    "seed": Key("0", INTEGER, low=0),
    "workers": Key("", INTEGER, low=1),
    "grid_points": Key("201", INTEGER, low=2, high=MAX_GRID_POINTS),
    "ks_grid_points": Key("512", INTEGER, low=2),
    "snr_grid_db": Key("140:250:5", parse_grid),
    "deviation_grid_deg": Key("0:45:5", parse_grid),
    "threshold_frac_grid": Key("0.1,0.9", parse_grid),
    "family": Key("unordered", _choice(CDF_FAMILIES)),
    "rank": Key("", INTEGER),
    "oma_mode": Key("time_shared", _choice(OMA_MODES)),
}
DEFAULTS = {key: row.default for key, row in KEYS.items()}


def read_key(conf: dict, key: str):
    """``conf[key]`` read and bounded by its ``KEYS`` row; ``None`` if unset (blank by default)."""
    row = KEYS[key]
    if not conf[key] and not row.default:
        return None
    value = row.read(conf[key], key)
    if row.low is not None and value < row.low:
        raise InvalidParameterError(f"{key} must be at least {row.low}")
    if row.high is not None and value > row.high:
        raise InvalidParameterError(f"{key} must be at most {row.high}")
    return value


def _read_item(text: str, where: str, expects: str) -> tuple[str, str]:
    """``(key, value)`` of one ``--config`` line or ``--set`` item; ``where`` names it in errors."""
    if "=" not in text:
        raise InvalidParameterError(f"{expects} key=value, got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if key not in KEYS:
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
    conf.update((k, str(v)) for k, v in vars(args).items() if k in KEYS and v is not None)

    # Derived defaults: the mean-angle band tracks the deviation so the
    # instantaneous angle stays inside [0, 180] degrees unless overridden.
    explicit_band = bool(conf["mean_angle_min_deg"] or conf["mean_angle_max_deg"])
    dev = NUMBER(conf["max_deviation_deg"], "max_deviation_deg")
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
    grid: tuple[float, ...] | np.ndarray  # a sweep's floats, or a validate command's levels
    ks_grid_points: int
    oma_mode: str
    family: str
    rank: int | None
    explicit_mean_band: bool

    def __post_init__(self):
        # A key's own bounds and choices are in its KEYS row; here are the cross-key rules.
        if self.noma.strong_rank > self.total_users:
            raise InvalidParameterError("strong_rank exceeds total_users")
        reads_rank = self.command == "validate-channel-cdf" and self.family == "ordered"
        if self.rank is not None and not reads_rank:
            raise InvalidParameterError("only validate-channel-cdf --family ordered reads rank")


def build_experiment(command: str, conf: dict, explicit_mean_band: bool) -> ExperimentConfig:
    """The model objects of a resolved config; a bad config fails at its first key in this order."""
    read = functools.partial(read_key, conf)
    led = LedGeometry(read("ell"), read("phi_hpbw_deg"), read("area_r"), read("theta_fov_deg"))
    band = read("mean_angle_min_deg"), read("mean_angle_max_deg")
    model = MobilityModel(read("d_min"), read("d_max"), *band, read("max_deviation_deg"))
    if conf["dist_threshold"] or conf["angle_threshold_deg"]:
        if not (conf["dist_threshold"] and conf["angle_threshold_deg"]):
            raise InvalidParameterError(
                "absolute thresholds need both dist_threshold and angle_threshold_deg"
            )
        thresholds = FeedbackThresholds(read("dist_threshold"), read("angle_threshold_deg"))
    else:
        fracs = read("dist_threshold_frac"), read("angle_threshold_frac")
        thresholds = FeedbackThresholds.from_fractions(model, led, *fracs)
    betas = read("beta_weak"), read("beta_strong")
    rates = read("rate_weak"), read("rate_strong")
    snr = _snr_linear(read("snr_db"))
    ranks = read("weak_rank"), read("strong_rank")
    mode = read("feedback_mode")
    norm = math.hypot(*betas)
    if read("normalize_power") and 0.0 < norm < math.inf:
        # Scale so the squares sum to one.  A zero or non-finite split goes to NomaConfig
        # unscaled, which rejects it.  Multiplying by the reciprocal, not dividing by the
        # norm, keeps the bits of the pinned normalized runs.
        scale = 1.0 / norm
        betas = betas[0] * scale, betas[1] * scale
    noma = NomaConfig(*betas, *rates, snr, *ranks, thresholds, mode)
    grid_points, ks_grid_points = read("grid_points"), read("ks_grid_points")
    if command in SWEEPS:
        grid = read(SWEEPS[command][0])
    elif command == "validate-knz":
        grid = ()  # its rows are the user counts, not a grid
    else:
        grid = np.linspace(0.0, 1.0, grid_points)
    xc = ExperimentConfig(
        command=command,
        led=led,
        model=model,
        noma=noma,
        noise=NoiseConfig(read("sigma_d"), read("sigma_phi_deg"), read("noise_enabled")),
        total_users=read("total_users"),
        trials=read("trials"),
        seed=read("seed"),
        workers=read("workers"),
        grid=grid,
        ks_grid_points=ks_grid_points,
        oma_mode=read("oma_mode"),
        family=read("family"),
        rank=read("rank"),
        explicit_mean_band=explicit_mean_band,
    )
    # NomaConfig takes its split as given; a run whose every key is valid warns about it here, once.
    power = noma.beta_weak**2 + noma.beta_strong**2
    if abs(power - 1.0) > 1e-6:
        warnings.warn(
            f"power fractions have squared sum {power:.6f}, not 1; "
            "set normalize_power=true to rescale"
        )
    return xc


@functools.lru_cache(maxsize=64)
def _template(types: tuple) -> str:
    """``%`` template of a CSV row by cell type: integers whole, ``None`` blank, else ``%.9g``."""
    return ",".join(
        "%.0s" if t is type(None) else "%d" if issubclass(t, (int, np.integer)) else "%.9g"
        for t in types
    )


def fmt(value) -> str:
    return _template((type(value),)) % (value,)


def emit_csv(out: str | None, manifest: str, header: list, rows: Iterable, summary: list):
    lines = [manifest, ",".join(header)]
    lines.extend(_template(tuple(map(type, row))) % tuple(row) for row in rows)
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
    xs = lo + xc.grid * (hi - lo)
    analytic = cdf_vertical_angle(xs, xc.model)
    emp = EmpiricalDistribution(inst)
    ks = ks_distance_bound(emp, lambda x: cdf_vertical_angle(x, xc.model))
    rows = zip(np.degrees(xs).tolist(), analytic.tolist(), emp.cdf(xs).tolist())
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
    # The family's conditioning, given alike to its Monte Carlo and analytic twins.
    condition = dict(
        thresholds=xc.noma.thresholds,
        total_users=xc.total_users,
        k_min=xc.noma.strong_rank,
        rank=xc.rank,
    )
    samples = estimate(
        xc.family, xc.trials, xc.model, xc.led, seed=xc.seed, workers=xc.workers, **condition
    )
    emp = EmpiricalDistribution(samples)
    cdf = functools.partial(CDF_FAMILIES[xc.family], model=xc.model, led=xc.led, **condition)
    xs = np.unique(emp.quantile(xc.grid))
    # The quantile grid and the KS grid share their end points: integrate each level once.
    levels = np.union1d(xs, ks_bound_grid(emp, xc.ks_grid_points))
    values = cdf(levels)

    def known(x):
        return values[np.searchsorted(levels, x)]

    ks_bound = ks_distance_bound(emp, known, grid_size=xc.ks_grid_points)
    rows = list(zip(xs, known(xs), emp.cdf(xs)))
    summary = [
        f"# summary ks_bound={fmt(ks_bound)} samples={emp.n}"
        f" conditioning_prob={fmt(samples.size / xc.trials)}"
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


def _sweep_cells(xc: ExperimentConfig, cfgs, gains, closed: bool, values):
    """Monte Carlo cells of each point of a collection group by column name.

    Each run's gains are scored for all the points at once.  They score the
    OMA cells too unless the mode has closed forms (``closed``), which
    :func:`_analytic_cells` then evaluates with the analytic sum rate.
    """
    cells = [{"analytic_sum_rate": None} for _ in cfgs]
    for run, (weak, strong) in gains.items():
        sched_prob = weak.size / xc.trials
        for cell, mc in zip(cells, rate_stats(weak, strong, cfgs)):
            cell[f"{run}_sum_rate"], cell[f"{run}_stderr"] = mc
            cell["sched_prob" if run == "mc" else f"{run}_sched_prob"] = sched_prob
    if "oma_sum_rate" in values and not closed:
        oma = [oma_gain_thresholds(cfg, xc.oma_mode) for cfg in cfgs]
        for cell, (mean, _) in zip(cells, rate_stats(*gains["mc"], cfgs, oma)):
            cell["oma_sum_rate"] = mean
    if "gap" in values:
        for cell in cells:
            cell["gap"] = cell["clean_sum_rate"] - cell["noisy_sum_rate"]
    return cells


def _analytic_cells(xc: ExperimentConfig, cfgs, model: MobilityModel, values):
    """Closed-form cells of each point of a collection group, from one call of each family."""
    oma = "oma_sum_rate" in values
    found = outage_pair_analytic(
        cfgs, model, xc.led, total_users=xc.total_users, oma_mode=xc.oma_mode if oma else None
    )
    # Per point its NOMA and OMA outage pairs, or its NOMA pair alone.
    names = ("analytic_sum_rate", "oma_sum_rate")[: 1 + oma]
    return [
        {name: sum_rate_noma(*pair, cfg) for name, pair in zip(names, pairs if oma else [pairs])}
        for pairs, cfg in zip(found, cfgs)
    ]


def cmd_sweep(xc: ExperimentConfig, out: str | None, manifest: str):
    _, leading, values = SWEEPS[xc.command]
    noise = {
        "mc": xc.noise,
        "clean": dataclasses.replace(xc.noise, enabled=False),
        "noisy": dataclasses.replace(xc.noise, enabled=True),
    }
    runs = {run: n for run, n in noise.items() if f"{run}_sum_rate" in values}
    shared = dict(total_users=xc.total_users, seed=xc.seed, workers=xc.workers)
    closed = (
        "analytic_sum_rate" in values and FEEDBACK_MODES[xc.noma.feedback_mode].families is not None
    )
    rows = []
    # Picks depend on the thresholds and the model, not on SNR, powers or rates:
    # a run of points that share those is one collection group.
    groups = itertools.groupby(_sweep_points(xc), lambda point: (point[1].thresholds, point[2]))
    for (_, model), points in groups:
        leads, cfgs, _ = zip(*points)
        # One call for all the runs: they share one draw of the users.
        collected = collect_scheduled_gains(
            xc.trials, [(cfgs[0], n) for n in runs.values()], model, xc.led, **shared
        )
        gains = dict(zip(runs, collected))
        # Monte Carlo cells first: an empty collection reports so before any family call.
        cells = _sweep_cells(xc, cfgs, gains, closed, values)
        if closed:
            for cell, found in zip(cells, _analytic_cells(xc, cfgs, model, values)):
                cell.update(found)
        rows += [(*lead, *(cell[name] for name in values)) for lead, cell in zip(leads, cells)]
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
        p.add_argument("--seed", help="RNG seed (64-bit)")
        p.add_argument("--trials", help="Monte Carlo trial count")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument(
            "--mode", dest="feedback_mode", metavar="MODE", help="feedback mode override"
        )
        p.add_argument("--oma-mode", dest="oma_mode", help=f"one of {', '.join(OMA_MODES)}")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
        if name == "validate-channel-cdf":
            p.add_argument("--family", help=f"one of {', '.join(CDF_FAMILIES)}")
            p.add_argument("--rank", help="order-statistic rank (ordered family)")
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
