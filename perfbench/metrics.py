"""Metric definitions.

End-to-end metrics come from untraced passes.  Per-layer metrics are read
off the spans of the traced passes; each names the end-to-end metric, and
the workload, that a change to its layer should move.  Per-pass values are
medians over the traced passes of a run; per-call percentiles pool every
call of every traced pass.
"""

import statistics

from spans import EXTRA, NAME, PARENT, PASS, START, END, percentile, self_times

# name, unit, better; wall_s sums the operations' median seconds over the
# run's passes, setup_s is the median over the run's fresh processes timed
# from spawn to `ready`, both in reference seconds (run.py); peak_rss_mib is
# the largest of the workers
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def op_seconds(samples):
    """Seconds of one operation in a run: the mean of its samples.

    The host speed that scales it is a mean over the same stretch of time,
    and with the few runs of an operation that fit in a run the mean varies
    less from run to run than the median.
    """
    return statistics.mean(samples)


class TraceView:
    """Spans of a set of passes, indexed by pass and by span name."""

    def __init__(self, spans, pass_ids, selfs=None):
        self.spans = spans
        self.selfs = self_times(spans) if selfs is None else selfs
        self.index = {pid: {} for pid in pass_ids}
        for i, rec in enumerate(spans):
            by_name = self.index.get(rec[PASS])
            if by_name is not None:
                by_name.setdefault(rec[NAME], []).append(i)

    def ids(self, pid, match):
        return [i for name, ids in self.index[pid].items() if match(name)
                for i in ids]

    def per_pass(self, value):
        vals = [value(pid) for pid in self.index]
        return statistics.median(vals) if vals else 0.0

    def self_s(self, match):
        return self.per_pass(
            lambda pid: sum(self.selfs[i] for i in self.ids(pid, match)))

    def calls(self, match):
        return self.per_pass(lambda pid: len(self.ids(pid, match)))

    def extra_sum(self, match, key):
        return self.per_pass(lambda pid: sum(
            self.spans[i][EXTRA].get(key, 0) for i in self.ids(pid, match)
            if self.spans[i][EXTRA]))

    def extra_max(self, match, key):
        return max((self.spans[i][EXTRA].get(key, 0) for pid in self.index
                    for i in self.ids(pid, match) if self.spans[i][EXTRA]),
                   default=0)

    def percentile_us(self, match, q):
        durs = [1e6 * (self.spans[i][END] - self.spans[i][START])
                for pid in self.index for i in self.ids(pid, match)]
        return percentile(durs, q) if durs else 0.0

    def outermost(self, match):
        """Matching spans of all passes with no matching ancestor."""
        out = []
        for pid in self.index:
            for i in self.ids(pid, match):
                parent = self.spans[i][PARENT]
                while parent is not None and not match(self.spans[parent][NAME]):
                    parent = self.spans[parent][PARENT]
                if parent is None:
                    out.append(i)
        return out


def _named(*names):
    names = frozenset(names)
    return lambda name: name in names


def _module(prefix):
    return lambda name: name.startswith(prefix + ".")


def _build_sequence(name):
    return name.startswith("pulses.build_") and name.endswith("_sequence")


def _fit_ratio(key):
    def value(ctx):
        fits = ctx.view.outermost(_module("fitting"))
        if not fits:
            return 0.0
        # a fit that raised counts as neither converged nor clean
        return sum(bool(ctx.view.spans[i][EXTRA].get(key, key == "flagged"))
                   for i in fits) / len(fits)
    return value


def _layer_self(name, moves):
    return (f"{name}.self_s", "s", "lower",
            lambda ctx: ctx.view.self_s(_named(name)), moves)


def _per_call(name, moves):
    match = _named(name)
    return [_layer_self(name, moves),
            (f"{name}.calls", "count", "lower",
             lambda ctx: ctx.view.calls(match), moves),
            (f"{name}.p50_us", "us", "lower",
             lambda ctx: ctx.view.percentile_us(match, 50), moves),
            (f"{name}.p90_us", "us", "lower",
             lambda ctx: ctx.view.percentile_us(match, 90), moves)]


_PULSED = "wall_s on pulsed-sweep"
_MC = "wall_s and peak_rss_mib on mc-dephasing"
_JC = "wall_s and peak_rss_mib on jc-master"
_READOUT = "wall_s on readout-shots"
_PIPELINE = "wall_s on every workload with a readout pipeline"
_SEQUENCES = "wall_s on pulsed-sweep and mc-dephasing"

# name, unit, better, value(ctx), end-to-end metric it should move
PER_LAYER = (
    _layer_self("dynamics.simulate_sequence", _PULSED),
    ("dynamics.simulate_sequence.calls", "count", "lower",
     lambda ctx: ctx.view.calls(_named("dynamics.simulate_sequence")), _PULSED),
    _layer_self("dynamics.compile_sequence", _PULSED),
    ("dynamics.compile_sequence.steps", "count", "lower",
     lambda ctx: ctx.view.extra_sum(_named("dynamics.compile_sequence"),
                                    "steps"), _PULSED),
    _layer_self("dynamics.monte_carlo_dephasing", _MC),
    ("dynamics.monte_carlo_dephasing.realization_steps", "count", "lower",
     lambda ctx: ctx.view.extra_sum(_named("dynamics.monte_carlo_dephasing"),
                                    "realization_steps"), _MC),
    _layer_self("dynamics.sample_ou_detuning", _MC),
    _layer_self("dynamics.evolve", _JC),
    ("dynamics.evolve.steps", "count", "lower",
     lambda ctx: ctx.view.extra_sum(_named("dynamics.evolve"), "steps"), _JC),
    _layer_self("dynamics.steady_state", _JC),
    ("dynamics.steady_state.calls", "count", "lower",
     lambda ctx: ctx.view.calls(_named("dynamics.steady_state")), _JC),
    ("dynamics.steady_state.liouvillian_dim", "count", "lower",
     lambda ctx: ctx.view.extra_max(_named("dynamics.steady_state"),
                                    "liouvillian_dim"), _JC),
    _layer_self("device.build_rotating_frame_hamiltonian", _JC),
    *_per_call("readout.heterodyne_record", _READOUT),
    *_per_call("readout.demodulate", _READOUT),
    *_per_call("readout.estimate_population", _READOUT),
    *_per_call("experiments.measure_population", _READOUT),
    _layer_self("dynamics.semiclassical_cavity_response", _PIPELINE),
    _layer_self("experiments.build_readout_pipeline", _PIPELINE),
    ("pulses.build_sequence.self_s", "s", "lower",
     lambda ctx: ctx.view.self_s(_build_sequence), _SEQUENCES),
    ("pulses.build_sequence.calls", "count", "lower",
     lambda ctx: ctx.view.calls(_build_sequence), _SEQUENCES),
    ("fitting.self_s", "s", "lower",
     lambda ctx: ctx.view.self_s(_module("fitting")), _READOUT),
    ("fitting.calls", "count", "lower",
     lambda ctx: len(ctx.view.outermost(_module("fitting")))
     / max(1, len(ctx.view.index)), _READOUT),
    ("fitting.converged_ratio", "ratio", "higher", _fit_ratio("converged"),
     _READOUT),
    ("fitting.flagged_ratio", "ratio", "lower", _fit_ratio("flagged"),
     _READOUT),
    ("qops.self_s", "s", "lower",
     lambda ctx: ctx.view.self_s(_module("qops")), "wall_s on jc-master"),
    ("experiments.validate_config.self_s", "s", "lower",
     lambda ctx: ctx.setup.self_s(_named("experiments.validate_config")),
     "setup_s on every workload"),
    _layer_self("experiments.run_experiment", _READOUT),
    _layer_self("experiments.RunManifest.build", _READOUT),
    ("experiments.artifact_bytes", "B", "lower",
     lambda ctx: ctx.view.extra_sum(_named("experiments.RunManifest.build"),
                                    "artifact_bytes"), _READOUT),
    ("process.cpu_s", "s", "lower", lambda ctx: ctx.cpu_s,
     "whole run: CPU seconds per traced pass"),
    ("trace.coverage", "ratio", "higher", lambda ctx: ctx.coverage,
     "whole run: share of traced passes inside top-level spans"),
    ("trace.overhead_s", "s", "lower", lambda ctx: ctx.overhead_s,
     "whole run: traced minus untraced median pass seconds"),
)
