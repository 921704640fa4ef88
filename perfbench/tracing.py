"""Span tracer for the traced run: wraps the package's layer boundaries from outside.

Nothing under ``src/`` is edited.  ``install`` replaces each traced function
in every ``vlcnoma`` module namespace that binds it (names are imported by
value, e.g. ``simulate.dc_gain``), and ``uninstall`` puts the originals back,
so untraced jobs in the same process run the plain code.

Spans live in memory (name, layer, start, end, parent, thread, size) and are
written out at exit.  ``ThreadPoolExecutor`` does not carry context into its
threads, so the pool used by ``simulate`` is swapped for a subclass that hands
the submitting span to each chunk: chunk spans carry their own thread id and
attach to the open collect span.  Their time is busy time, while the main
thread's ``simulate.pool`` span is time spent waiting for the pool.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "simulate", "mobility", "geometry", "gain_cdf", "quadrature", "rates")

FAMILIES = {
    "cdf_gain_unordered": "unordered",
    "cdf_gain_ranked": "ordered",
    "cdf_weak_twobit_inst": "twobit_inst_weak",
    "cdf_strong_twobit_inst": "twobit_inst_strong",
    "cdf_weak_twobit_mean": "twobit_mean_weak",
    "cdf_strong_twobit_mean": "twobit_mean_strong",
}

# Monte Carlo entry points; each outermost one roots a "collect tree".
COLLECT = ("collect_scheduled_gains", "estimate", "nonzero_count_histogram")
# Functions timed as plain spans, by defining module.
PLAIN = {
    "simulate": ("rate_stats",),
    "mobility": ("sample_users",),
    "geometry": ("dc_gain", "mean_dc_gain", "incidence_angle"),
    "quadrature": ("ks_distance_bound",),
    "rates": ("outage_pair_analytic", "sum_rate_oma"),
    "cli": ("emit_csv",),
}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "thread", "start", "end", "size", "info")

    def __init__(self, id_, name, layer, parent, thread):
        self.id, self.name, self.layer = id_, name, layer
        self.parent, self.thread = parent, thread
        self.start = self.end = 0
        self.size = 0
        self.info = None

    @property
    def dur(self):
        return self.end - self.start


def _layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2] or "unknown"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1].id if stack else 0

    def open(self, name: str, layer: str, parent: int | None = None) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids), name, layer,
            self.current() if parent is None else parent, threading.get_ident(),
        )
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span: Span):
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def call(self, name, layer, fn, args, kwargs, parent=None):
        span = self.open(name, layer, parent)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        return result, span

    # -- wrappers ----------------------------------------------------------

    def _plain(self, name, layer, orig, info=None):
        """Span around ``orig``; ``info(result)`` fills ``span.size`` and ``span.info``."""

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result, span = self.call(name, layer, orig, args, kwargs)
            if info is not None:
                span.size, span.info = info(result)
            return result

        return wrapper

    def _family(self, name, orig):
        @functools.wraps(orig)
        def wrapper(x, *args, **kwargs):
            result, span = self.call(name, "gain_cdf", orig, (x, *args), kwargs)
            levels = np.atleast_1d(np.asarray(x, dtype=float))
            span.size = levels.size
            span.info = levels.tolist()
            return result

        return wrapper

    def _counted(self, fn, counter: list, kind: str, spanned: bool = True):
        """Integrand or support wrapper counting [abscissae, calls]; a span when ``spanned``."""
        name = f"{_layer_of(fn)}.{kind}"

        def wrapper(*args):
            counter[0] += int(np.size(args[0]))
            counter[1] += 1
            if not spanned:
                return fn(*args)
            return self.call(name, _layer_of(fn), fn, args, {})[0]

        return wrapper

    def _integrate_1d(self, orig):
        @functools.wraps(orig)
        def wrapper(f, a, b, spec=None):
            counter = [0, 0]
            # The nested rule's outer integrand is quadrature's own loop: it stays self time.
            g = self._counted(f, counter, "integrand", spanned=_layer_of(f) != "quadrature")
            result, span = self.call(
                "quadrature.integrate_1d", "quadrature", orig, (g, a, b, spec), {}
            )
            span.size = counter[0]
            return result

        return wrapper

    def _integrate_2d(self, orig):
        @functools.wraps(orig)
        def wrapper(f, r_interval, inner_support, spec=None):
            supports = [0, 0]
            f2 = self._counted(f, [0, 0], "integrand")
            support = self._counted(inner_support, supports, "inner_support")
            result, span = self.call(
                "quadrature.integrate_2d_nested", "quadrature", orig,
                (f2, r_interval, support, spec), {},
            )
            span.size = supports[1]
            return result

        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._span = tracer.open("simulate.pool", "simulate")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(
                    lambda: tracer.call("simulate.chunk", "simulate", fn, args, kwargs, parent)[0]
                )

        return TracedPool

    # -- install -----------------------------------------------------------

    def install(self):
        """Wrap every traced function in each ``vlcnoma`` namespace that binds it."""
        import vlcnoma

        mods = {layer: sys.modules[f"vlcnoma.{layer}"] for layer in LAYERS}
        namespaces = [vlcnoma, *mods.values()]
        wrapped = {}
        for layer, names in PLAIN.items():
            for name in names:
                info = _elements if layer in ("mobility", "geometry") else None
                wrapped[(layer, name)] = self._plain(
                    f"{layer}.{name}", layer, getattr(mods[layer], name), info
                )
        for name in COLLECT:
            wrapped[("simulate", name)] = self._plain(
                f"simulate.{name}", "simulate", getattr(mods["simulate"], name), _scheduled
            )
        for name in FAMILIES:
            wrapped[("gain_cdf", name)] = self._family(
                f"gain_cdf.{name}", getattr(mods["gain_cdf"], name)
            )
        quad = mods["quadrature"]
        wrapped[("quadrature", "integrate_1d")] = self._integrate_1d(quad.integrate_1d)
        wrapped[("quadrature", "integrate_2d_nested")] = self._integrate_2d(
            quad.integrate_2d_nested
        )

        for (layer, name), wrapper in wrapped.items():
            orig = getattr(mods[layer], name)
            for ns in namespaces:
                if getattr(ns, name, None) is orig:
                    self._undo.append((ns, name, orig))
                    setattr(ns, name, wrapper)

        sim = mods["simulate"]
        self._undo.append((sim, "ThreadPoolExecutor", sim.ThreadPoolExecutor))
        sim.ThreadPoolExecutor = self._pool_class(sim.ThreadPoolExecutor)

        emp = quad.EmpiricalDistribution
        init = emp.__init__

        @functools.wraps(init)
        def emp_init(obj, samples):
            _, span = self.call(
                "quadrature.EmpiricalDistribution", "quadrature", init, (obj, samples), {}
            )
            span.size = obj.n

        self._undo.append((emp, "__init__", init))
        emp.__init__ = emp_init

    def uninstall(self):
        while self._undo:
            ns, name, orig = self._undo.pop()
            setattr(ns, name, orig)

    def traced_main(self, main, argv):
        """Run ``main(argv)`` under a root ``cli.main`` span."""
        return self.call("cli.main", "cli", main, (argv,), {})[0]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tthread\tlayer\tname\tstart_ns\tend_ns\tsize\n")
            for s in self.spans:
                fh.write(
                    f"{s.id}\t{s.parent}\t{s.thread}\t{s.layer}\t{s.name}\t"
                    f"{s.start}\t{s.end}\t{s.size}\n"
                )


def _elements(result):
    """Users in a sampled or evaluated array (the first one of a tuple)."""
    return int(np.size(result[0] if isinstance(result, tuple) else result)), None


def _scheduled(result):
    """(scheduled, trials) of a Monte Carlo entry point's result, when it has them."""
    if isinstance(result, tuple):
        return 0, (result[0].size, result[2])
    if hasattr(result, "scheduled_trials"):
        return 0, (result.scheduled_trials, result.trials)
    return 0, None


# -- per-layer metrics ------------------------------------------------------


def job_metrics(spans: list[Span], workers: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced job, and its per-level samples by family."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def self_ns(s):
        return s.dur - sum(c.dur for c in children[s.id] if c.thread == s.thread)

    def has_ancestor(s, pred):
        p = by_id.get(s.parent)
        while p is not None:
            if pred(p):
                return True
            p = by_id.get(p.parent)
        return False

    def tree(root):
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(children[s.id])
        return out

    def total(*names):
        return sum(s.dur for s in spans if s.name in names)

    collect_names = {f"simulate.{n}" for n in COLLECT}

    def is_collect(s):
        return s.name in collect_names

    def is_family(s):
        return s.name.startswith("gain_cdf.cdf_")

    roots = [s for s in spans if is_collect(s) and not has_ancestor(s, is_collect)]
    in_trees = [t for r in roots for t in tree(r)]
    busy = sum(self_ns(s) for s in in_trees if s.name != "simulate.pool")
    sim_self = sum(
        self_ns(s) for s in in_trees if s.layer == "simulate" and s.name != "simulate.pool"
    )
    sampled = [s for s in in_trees if s.name == "mobility.sample_users"]
    user_trials = sum(s.size for s in sampled)
    gains = [s for s in in_trees if s.name in ("geometry.dc_gain", "geometry.mean_dc_gain")]
    incidence = [s for s in in_trees if s.name == "geometry.incidence_angle"]
    sched = [r.info for r in roots if r.info is not None]
    collect_wall = sum(r.dur for r in roots)

    fam_roots = [s for s in spans if is_family(s) and not has_ancestor(s, is_family)]
    levels = sum(s.size for s in fam_roots)
    distinct = {(s.name, x) for s in fam_roots for x in s.info}
    per_level = defaultdict(list)
    for s in fam_roots:
        if s.size:
            per_level[FAMILIES[s.name.split(".", 1)[1]]].append(s.dur / s.size / 1e6)

    integrals = [s for s in spans if s.name == "quadrature.integrate_1d"]
    nested = [s for s in spans if s.name == "quadrature.integrate_2d_nested"]
    main = [s for s in spans if s.name == "cli.main"]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "cli.self_ms": sum(self_ns(s) for s in main) / 1e6,
        "cli.emit_ms": total("cli.emit_csv") / 1e6,
        "simulate.collect_ms": collect_wall / 1e6,
        "simulate.self_ns_per_user_trial": ratio(sim_self, user_trials),
        "simulate.parallel_eff": ratio(busy, workers * collect_wall),
        "simulate.scheduled_frac": ratio(sum(a for a, _ in sched), sum(b for _, b in sched)),
        "simulate.rate_stats_ms": total("simulate.rate_stats") / 1e6,
        "mobility.sample_ns_per_user_trial": ratio(sum(s.dur for s in sampled), user_trials),
        "geometry.gain_ns_per_user_trial": ratio(sum(s.dur for s in gains), user_trials),
        "geometry.gain_calls_per_chunk": ratio(len(gains), len(sampled)),
        "geometry.incidence_ns_per_user_trial": ratio(sum(s.dur for s in incidence), user_trials),
        "gain_cdf.levels": levels,
        "gain_cdf.distinct_level_frac": ratio(len(distinct), levels),
        "quadrature.integrals": len(integrals),
        # Each Gauss-Kronrod panel evaluates the integrand at 15 abscissae.
        "quadrature.panels_per_integral": ratio(
            sum(s.size for s in integrals) / 15, len(integrals)
        ),
        "quadrature.inner_supports": sum(s.size for s in nested),
        "quadrature.integrate_self_ms": sum(self_ns(s) for s in integrals + nested) / 1e6,
        "quadrature.ks_bound_ms": total("quadrature.ks_distance_bound") / 1e6,
        "quadrature.empirical_ms": total("quadrature.EmpiricalDistribution") / 1e6,
        "rates.analytic_ms": total("rates.outage_pair_analytic", "rates.sum_rate_oma") / 1e6,
    }
    return metrics, per_level


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100 * len(ordered))))
    return ordered[rank - 1]


def summarize(per_job: list[dict], per_level: dict) -> dict:
    """Median over traced jobs of each per-job metric, plus per-level percentiles."""
    out = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    for family in FAMILIES.values():
        samples = per_level.get(family, [])
        out[f"gain_cdf.{family}.level_ms.p50"] = statistics.median(samples) if samples else 0.0
        out[f"gain_cdf.{family}.level_ms.p99"] = percentile(samples, 99)
    return out
