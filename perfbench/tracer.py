"""Traced mode: time every call into probcert's public functions from outside.

``Tracer.install()`` replaces each public function of the five working modules
(``tail_bounds``, ``estimator``, ``chernoff_opt``, ``verification``, ``cli``)
at every module attribute that binds it, plus the few public methods the
layer metrics name. ``errors`` does no work and is not traced. Nothing under
``src/`` changes; ``uninstall()`` puts the original objects back.

Two kinds of call are recorded:

* spans, for coarse calls (a descent, a suite, ``cli.main``): name, start,
  end, parent span and job id, kept in memory and written out at the end;
* counters, for hot leaf calls that run thousands of times per job (tail
  exponents, draws, surrogate evaluations): calls, inclusive and self time.

A call's self time is its duration minus the time of the traced calls it made
directly. For spans it is derived from the span list: duration minus child
spans minus the hot calls made directly under the span. No span is ever
opened under a hot call, so the two accounts never overlap.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import sys
import time
from collections import defaultdict

import probcert
from probcert import chernoff_opt, cli, estimator, tail_bounds, verification

LAYER_MODULES = {
    "tail_bounds": tail_bounds,
    "estimator": estimator,
    "chernoff_opt": chernoff_opt,
    "verification": verification,
    "cli": cli,
}

# Functions that run thousands of times per job: counted, never spanned.
HOT = {
    "tail_bounds.hoeffding_exponent",
    "tail_bounds.hoeffding_exponent_dmu",
    "tail_bounds.upper_tail_bound",
    "tail_bounds.lower_tail_bound",
    "tail_bounds.minimum_sample_size",
    "tail_bounds.achieved_confidence",
    "tail_bounds.validate_spec",
    "estimator.estimate_with_plan",
    "estimator.estimate_from_batch",
    "estimator.stable_mean",
    "estimator.draw",
    "chernoff_opt.performance_values",
    "chernoff_opt.empirical_moment",
    "chernoff_opt.empirical_moment_gradient",
    "verification.binomial_tail_exact",
}

# Public methods the layer metrics name: (layer, class, attribute, metric name).
METHODS = (
    ("estimator", estimator.SampleSource, "draw", "draw"),
    ("chernoff_opt", chernoff_opt.ChernoffObjective, "performance_values", "performance_values"),
    ("chernoff_opt", chernoff_opt.ScenarioSet, "from_model", "scenario_set"),
    ("chernoff_opt", chernoff_opt.ScenarioSet, "from_array", "scenario_set"),
)

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("tail_bounds.minimum_sample_size.calls", "count"),
    ("tail_bounds.minimum_sample_size.s", "s"),
    ("tail_bounds.achieved_confidence.calls", "count"),
    ("tail_bounds.achieved_confidence.s", "s"),
    ("tail_bounds.hoeffding_exponent.calls", "count"),
    ("tail_bounds.hoeffding_exponent.s", "s"),
    ("estimator.estimate_with_plan.calls", "count"),
    ("estimator.estimate_with_plan.self_s", "s"),
    ("estimator.draw.calls", "count"),
    ("estimator.draw.s", "s"),
    ("estimator.draws", "count"),
    ("estimator.stable_mean.s", "s"),
    ("estimator.ns_per_draw", "ns"),
    ("estimator.max_batch_bytes", "B"),
    ("chernoff_opt.scenario_set.s", "s"),
    ("chernoff_opt.performance_values.calls", "count"),
    ("chernoff_opt.performance_values.s", "s"),
    ("chernoff_opt.rows_evaluated", "count"),
    ("chernoff_opt.ns_per_row", "ns"),
    ("chernoff_opt.empirical_moment.calls", "count"),
    ("chernoff_opt.empirical_moment.self_s", "s"),
    ("chernoff_opt.empirical_moment_gradient.calls", "count"),
    ("chernoff_opt.empirical_moment_gradient.self_s", "s"),
    ("chernoff_opt.minimize.self_s", "s"),
    ("chernoff_opt.minimize.iterations", "count"),
    ("chernoff_opt.line_search.trials", "count"),
    ("chernoff_opt.line_search.accept_ratio", "ratio"),
    ("chernoff_opt.certify_probability.self_s", "s"),
    ("chernoff_opt.certify_probability.draws", "count"),
    ("verification.lemma_scan.s", "s"),
    ("verification.lemma56_check.s", "s"),
    ("verification.binomial_tail_exact.calls", "count"),
    ("verification.binomial_tail_exact.s", "s"),
    ("verification.coverage_experiment.self_s", "s"),
    ("verification.coverage_experiment.trials", "count"),
    ("verification.domination_experiment.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
)


def _public_functions():
    """(qualified name, function) for every public function of each layer."""
    for layer, module in LAYER_MODULES.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield f"{layer}.{attr}", fn
        if layer == "cli":
            yield "cli.main", cli.main


class Tracer:
    """Collects spans and counters while installed; one instance per traced run."""

    def __init__(self):
        self.job = None
        self.spans = []  # [name, start, end, parent index, job, hot child seconds]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)  # counts taken from arguments and results
        self._stack = []  # open frames: [start, child seconds, hot child seconds, span index]
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [probcert, *LAYER_MODULES.values()]
        for name, fn in _public_functions():
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        for layer, cls, attr, metric in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"{layer}.{metric}", raw.__func__))
            else:
                wrapped = self._wrap(f"{layer}.{metric}", raw)
            self._patch(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        hot = name in HOT
        observe = _OBSERVERS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                before = observe(self, args, kwargs, None)
            frame = [clock(), 0.0, 0.0, None]
            if not hot:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                frame[3] = len(spans)
                spans.append([name, frame[0], None, parent, self.job, 0.0])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                    if hot:
                        stack[-1][2] += duration
                if not hot:
                    span = spans[frame[3]]
                    span[2] = end
                    span[5] = frame[2]
            if observe is not None:
                observe(self, args, kwargs, (before, result))
            return result

        return traced

    # -- results ------------------------------------------------------------

    def span_self_times(self):
        """Self seconds per span name, derived from the span list alone."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _hot in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent, _job, hot_s) in enumerate(self.spans):
            out[name] += end - start - child_s[i] - hot_s
        return out

    def layer_metrics(self, overhead_ratio):
        """(values, n/a names) for every LAYER_METRICS entry."""
        c, t, s, x = self.calls, self.total_s, self.self_s, self.extra
        span_self = self.span_self_times()

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else None

        values = {
            "tail_bounds.minimum_sample_size.calls": c["tail_bounds.minimum_sample_size"],
            "tail_bounds.minimum_sample_size.s": t["tail_bounds.minimum_sample_size"],
            "tail_bounds.achieved_confidence.calls": c["tail_bounds.achieved_confidence"],
            "tail_bounds.achieved_confidence.s": t["tail_bounds.achieved_confidence"],
            "tail_bounds.hoeffding_exponent.calls": c["tail_bounds.hoeffding_exponent"],
            "tail_bounds.hoeffding_exponent.s": t["tail_bounds.hoeffding_exponent"],
            "estimator.estimate_with_plan.calls": c["estimator.estimate_with_plan"],
            "estimator.estimate_with_plan.self_s": s["estimator.estimate_with_plan"],
            "estimator.draw.calls": c["estimator.draw"],
            "estimator.draw.s": t["estimator.draw"],
            "estimator.draws": x["draws"],
            "estimator.stable_mean.s": t["estimator.stable_mean"],
            "estimator.ns_per_draw": ratio(t["estimator.draw"], x["draws"], 1e9),
            # computed, not measured: the largest single draw held as float64
            "estimator.max_batch_bytes": x["max_draw"] * 8,
            "chernoff_opt.scenario_set.s": t["chernoff_opt.scenario_set"],
            "chernoff_opt.performance_values.calls": c["chernoff_opt.performance_values"],
            "chernoff_opt.performance_values.s": t["chernoff_opt.performance_values"],
            "chernoff_opt.rows_evaluated": x["rows"],
            "chernoff_opt.ns_per_row": ratio(t["chernoff_opt.performance_values"], x["rows"], 1e9),
            "chernoff_opt.empirical_moment.calls": c["chernoff_opt.empirical_moment"],
            "chernoff_opt.empirical_moment.self_s": s["chernoff_opt.empirical_moment"],
            "chernoff_opt.empirical_moment_gradient.calls": c["chernoff_opt.empirical_moment_gradient"],
            "chernoff_opt.empirical_moment_gradient.self_s": s["chernoff_opt.empirical_moment_gradient"],
            "chernoff_opt.minimize.self_s": span_self["chernoff_opt.minimize"],
            "chernoff_opt.minimize.iterations": x["iterations"],
            "chernoff_opt.line_search.trials": x["trials"],
            "chernoff_opt.line_search.accept_ratio": ratio(x["iterations"], x["trials"]),
            "chernoff_opt.certify_probability.self_s": span_self["chernoff_opt.certify_probability"],
            "chernoff_opt.certify_probability.draws": x["certify_draws"],
            "verification.lemma_scan.s": t["verification.lemma_scan"],
            "verification.lemma56_check.s": t["verification.lemma56_check"],
            "verification.binomial_tail_exact.calls": c["verification.binomial_tail_exact"],
            "verification.binomial_tail_exact.s": t["verification.binomial_tail_exact"],
            "verification.coverage_experiment.self_s": span_self["verification.coverage_experiment"],
            "verification.coverage_experiment.trials": x["coverage_trials"],
            "verification.domination_experiment.self_s": span_self["verification.domination_experiment"],
            "cli.main.self_s": span_self["cli.main"],
            "cli.output_bytes": x["output_bytes"],
            "trace.overhead_ratio": overhead_ratio,
        }
        # a metric is n/a when the workload never calls the function behind it
        source = {
            "estimator.draws": "estimator.draw",
            "estimator.ns_per_draw": "estimator.draw",
            "estimator.max_batch_bytes": "estimator.draw",
            "chernoff_opt.rows_evaluated": "chernoff_opt.performance_values",
            "chernoff_opt.ns_per_row": "chernoff_opt.performance_values",
            "chernoff_opt.line_search.trials": "chernoff_opt.minimize",
            "chernoff_opt.line_search.accept_ratio": "chernoff_opt.minimize",
            "cli.output_bytes": "cli.main",
        }
        na = []
        for metric, _unit in LAYER_METRICS:
            if metric == "trace.overhead_ratio":
                continue
            fn = source.get(metric, metric.rsplit(".", 1)[0])
            if not c[fn] or values[metric] is None:
                na.append(metric)
        return values, na

    def dump(self, path, record):
        """Write the run record, spans and counters as one JSON file."""
        keys = ("name", "start", "end", "parent", "job", "hot_child_s")
        payload = {
            "record": record,
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "counters": {
                name: {"calls": self.calls[name], "s": self.total_s[name], "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "extra": dict(self.extra),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# -- observers: counts taken from a call's arguments and result ---------------
# Called once before the call (result is None) and once after it with
# (value returned before, result).


def _observe_draw(tracer, args, kwargs, after):
    if after is None:
        k = int(args[1] if len(args) > 1 else kwargs["k"])
        tracer.extra["draws"] += k
        tracer.extra["max_draw"] = max(tracer.extra["max_draw"], k)


def _observe_performance_values(tracer, args, kwargs, after):
    if after is None:
        tracer.extra["rows"] += args[0].scenarios.scenarios.shape[0]


def _observe_minimize(tracer, args, kwargs, after):
    if after is None:
        return tracer.calls["chernoff_opt.empirical_moment"]
    before, outcome = after
    # the first empirical_moment call is the starting value, not a line-search trial
    tracer.extra["trials"] += tracer.calls["chernoff_opt.empirical_moment"] - before - 1
    tracer.extra["iterations"] += outcome.iterations


def _observe_certify(tracer, args, kwargs, after):
    source = args[3] if len(args) > 3 else kwargs["source"]
    if after is None:
        return source.draws_made
    tracer.extra["certify_draws"] += source.draws_made - after[0]


def _observe_coverage(tracer, args, kwargs, after):
    if after is None:
        mu_grid = args[1] if len(args) > 1 else kwargs["mu_grid"]
        trials = args[2] if len(args) > 2 else kwargs["trials"]
        tracer.extra["coverage_trials"] += trials * len(list(mu_grid))


def _observe_cli_main(tracer, args, kwargs, after):
    # the job captures stdout in a StringIO; its JSON output is ASCII, so
    # characters written are bytes written
    if not isinstance(sys.stdout, io.StringIO):
        return None
    if after is None:
        return sys.stdout.tell()
    if after[0] is not None:
        tracer.extra["output_bytes"] += sys.stdout.tell() - after[0]


_OBSERVERS = {
    "cli.main": _observe_cli_main,
    "estimator.draw": _observe_draw,
    "chernoff_opt.performance_values": _observe_performance_values,
    "chernoff_opt.minimize": _observe_minimize,
    "chernoff_opt.certify_probability": _observe_certify,
    "verification.coverage_experiment": _observe_coverage,
}
