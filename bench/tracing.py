"""Per-layer tracing of taperspec from outside the package.

`Tracer.install()` replaces the traced functions and methods of taperspec
with wrappers, in every taperspec module namespace that binds them (a
caller looks a function up in its own module, so `harness.parse_model`
and `models.parse_model` are both replaced).  A span wrapper records
(name, start, end, parent) and counts the call; a counter wrapper only
counts.  `Tracer.uninstall()` puts every original back.  Spans stay in
memory; `layer_metrics()` reduces them to the per-layer metrics.

Span names are the metric prefixes.  The package's private `_quad`
module reports as `quad.`, because a metric name must start with a
letter or a digit.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (span name, module, attribute).  Several attributes may share a name:
# their spans are pooled.
SPAN_TARGETS = (
    ("harness.run_experiment", "harness", "run_experiment"),
    ("harness.write_outputs", "harness", "write_csv"),
    ("harness.write_outputs", "harness", "write_json"),
    ("models.parse_model", "models", "parse_model"),
    ("taper.Taper", "taper", "Taper.__init__"),
    ("spectrum.tapered_periodogram", "spectrum", "tapered_periodogram"),
    ("functionals.plugin_estimate", "functionals", "plugin_estimate"),
    ("functionals.quadratic_form", "functionals", "quadratic_form"),
    ("functionals.population", "functionals", "true_functional"),
    ("functionals.population", "functionals", "asymptotic_variance"),
    ("whittle.whittle_estimate", "whittle", "whittle_estimate"),
    ("whittle.objective", "whittle", "whittle_objective"),
    ("whittle.objective", "whittle", "_profile_scale"),
    ("whittle.info_matrices", "whittle", "info_matrices"),
    ("quad.spectral_integral", "_quad", "spectral_integral"),
    ("gof.phi_vector", "gof", "phi_vector"),
    ("gof.b_matrix", "gof", "b_matrix"),
    ("gof.basis_build", "harness", "_build_basis"),
    ("gof.composite_test", "gof", "composite_test"),
)

# (counter name, module, attribute, only in that module's namespace)
COUNT_TARGETS = (
    ("harness.resolve_taper", "harness", "resolve_taper", False),
    # every Taper.moment cache miss runs one adaptive Simpson quadrature
    ("taper.moment.quadratures", "taper", "adaptive_simpson", True),
    ("taper.tapering_factor", "taper", "tapering_factor", False),
    ("quad.cosine_coefficient", "_quad", "cosine_coefficient", False),
    ("gof.gamma_matrix", "gof", "gamma_matrix", False),
)

# Model.simulate is a method of each family class; all report as one span.
SIMULATE_SPAN = "models.simulate"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at the root


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Wrappers around taperspec's layers, with spans and counts in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = Span(name, time.perf_counter(), 0.0,
                        tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer.counts[name] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_integrand(self, args, kwargs):
        counts = self.counts
        if args:
            fn, args = args[0], args[1:]
        else:
            fn = kwargs.pop("fn")

        def counted(lam):
            counts["quad.integrand_evals"] += getattr(lam, "size", 1)
            return fn(lam)

        return (counted,) + tuple(args), kwargs

    def _after_periodogram(self, pgram):
        self.counts["spectrum.fft_points"] += pgram.grid.N

    def _after_fit(self, fit):
        self.counts["whittle.fits"] += 1
        self.counts["whittle.converged_fits"] += int(bool(fit.converged))

    # -- install / uninstall ---------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, module, attr, make_wrapper, only_here=False):
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        modules = [module] if only_here else _package_modules()
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every traced layer of an imported taperspec."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "quad.spectral_integral": (self._count_integrand, None),
            "spectrum.tapered_periodogram": (None, self._after_periodogram),
            "whittle.whittle_estimate": (None, self._after_fit),
        }
        try:
            for name, mod_name, attr in SPAN_TARGETS:
                module = sys.modules[f"taperspec.{mod_name}"]
                before, after = hooks.get(name, (None, None))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._replace(cls, meth, self._span(name, cls.__dict__[meth],
                                                        before, after))
                    continue
                self._replace_everywhere(
                    module, attr,
                    lambda fn, name=name, b=before, a=after: self._span(name, fn, b, a))
            for name, mod_name, attr, only_here in COUNT_TARGETS:
                module = sys.modules[f"taperspec.{mod_name}"]
                self._replace_everywhere(
                    module, attr, lambda fn, name=name: self._counter(name, fn),
                    only_here=only_here)
            models = sys.modules["taperspec.models"]
            for cls in vars(models).values():
                if (isinstance(cls, type) and issubclass(cls, models.Model)
                        and "simulate" in cls.__dict__):
                    self._replace(cls, "simulate",
                                  self._span(SIMULATE_SPAN, cls.__dict__["simulate"]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every original function and method, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        """Start a fresh trace: clear spans and counts, then install."""
        self.reset()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "taperspec" or name.startswith("taperspec.")) and mod is not None]


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

# span names reported as `<name>.self_s`
SELF_TIMED = (
    "harness.run_experiment", "harness.write_outputs", "models.parse_model",
    "models.simulate", "taper.Taper", "spectrum.tapered_periodogram",
    "functionals.plugin_estimate", "functionals.quadratic_form",
    "functionals.population", "whittle.whittle_estimate", "whittle.objective",
    "whittle.info_matrices", "quad.spectral_integral", "gof.phi_vector",
    "gof.b_matrix", "gof.basis_build", "gof.composite_test",
)
# counters reported as `<name>.calls`
CALL_COUNTED = (
    "harness.resolve_taper", "models.parse_model", "models.simulate",
    "taper.Taper", "taper.tapering_factor", "spectrum.tapered_periodogram",
    "whittle.whittle_estimate", "whittle.objective", "whittle.info_matrices",
    "quad.spectral_integral", "quad.cosine_coefficient", "gof.b_matrix",
    "gof.gamma_matrix", "gof.basis_build",
)
# counters reported under their own name
WORK_COUNTS = ("taper.moment.quadratures", "spectrum.fft_points",
               "quad.integrand_evals")
# span names whose median duration is reported as `<name>.p50_ms`
P50_TIMED = ("models.simulate", "whittle.whittle_estimate")


METRIC_NAMES = (tuple(f"{n}.calls" for n in CALL_COUNTED) + WORK_COUNTS
                + tuple(f"{n}.self_s" for n in SELF_TIMED)
                + tuple(f"{n}.p50_ms" for n in P50_TIMED)
                + ("whittle.objective_per_fit", "whittle.converged_frac"))


def study_profile(tracer: Tracer) -> dict:
    """Reduce the spans and counts of one traced study to plain numbers."""
    self_s = defaultdict(float)
    durations = defaultdict(list)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span.name] += own
        if span.name in P50_TIMED:
            durations[span.name].append(span.end - span.start)
    return {"self_s": {n: self_s.get(n, 0.0) for n in SELF_TIMED},
            "counts": {n: tracer.counts.get(n, 0)
                       for n in CALL_COUNTED + WORK_COUNTS
                       + ("whittle.fits", "whittle.converged_fits")},
            "durations": {n: durations.get(n, []) for n in P50_TIMED}}


def layer_metrics(profiles: list) -> dict:
    """Per-layer metrics over several traced studies of the same size.

    Counts are the lower median over studies, so each is the exact count
    of one study; self times are the median; p50 durations and the
    ratios pool every study.
    """
    out = {}
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = statistics.median_low(p["counts"][name] for p in profiles)
    for name in WORK_COUNTS:
        out[name] = statistics.median_low(p["counts"][name] for p in profiles)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = statistics.median(p["self_s"][name] for p in profiles)
    for name in P50_TIMED:
        pooled = [d for p in profiles for d in p["durations"][name]]
        out[f"{name}.p50_ms"] = 1e3 * statistics.median(pooled) if pooled else 0.0
    fits = sum(p["counts"]["whittle.fits"] for p in profiles)
    converged = sum(p["counts"]["whittle.converged_fits"] for p in profiles)
    evals = sum(p["counts"]["whittle.objective"] for p in profiles)
    out["whittle.objective_per_fit"] = evals / fits if fits else 0.0
    # a study without fits has no failed fit
    out["whittle.converged_frac"] = converged / fits if fits else 1.0
    return out
