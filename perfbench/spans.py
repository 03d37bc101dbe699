"""Span recording around dotqed's public functions, and the arithmetic on spans.

Recording: `Tracer.install` replaces every public function defined in a
dotqed module (plus `RunManifest.build`) with a wrapper that appends one
span per call: [name, start, end, parent, pass_id, extra].  `parent` is the
index of the enclosing span or None, `extra` holds counts read off the
call's arguments or result.  Spans stay in memory until `Tracer.write`.

Arithmetic (stdlib only, so the parent process can run it without dotqed):
a span's self time is its duration minus the part of it that its child
spans cover; coverage is the share of a pass covered by top-level spans.
"""

import inspect
import json
import math
import time

NAME, START, END, PARENT, PASS, EXTRA = range(6)

TRACED_MODULES = ("device", "qops", "dynamics", "pulses", "readout",
                  "fitting", "experiments")


# ------------------------------------------------------------- recording
# counts read off a call: function(arguments by parameter name, result) -> extra

def _steps(args, result):
    return {"steps": len(result.times) - 1}


def _compiled_steps(args, result):
    return {"steps": len(result.dts)}


def _realization_steps(args, result):
    n = args.get("n_realizations") or args["noise"].n_realizations
    return {"realization_steps": int(n) * (len(result.times) - 1)}


def _liouvillian_dim(args, result):
    return {"liouvillian_dim": len(args["h_hz"]) ** 2}


def _fit_health(args, result):
    return {"converged": bool(getattr(result, "converged", True)),
            "flagged": bool(getattr(result, "flags", ()))}


def _artifact_bytes(args, result):
    return {"artifact_bytes": sum(int(f["bytes"]) for f in result.files)}


ANNOTATORS = {
    "dynamics.compile_sequence": _compiled_steps,
    "dynamics.evolve": _steps,
    "dynamics.monte_carlo_dephasing": _realization_steps,
    "dynamics.steady_state": _liouvillian_dim,
    "experiments.RunManifest.build": _artifact_bytes,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATORS.get(name)
        if annotate is None and name.startswith("fitting."):
            annotate = _fit_health
        signature = inspect.signature(fn) if annotate else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[END] = clock()
                rec[EXTRA] = {"raised": True}
                raise
            finally:
                stack.pop()
            rec[END] = clock()
            if annotate is not None:
                rec[EXTRA] = annotate(
                    signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap the public functions of each traced module of `package`."""
        for mod_name in TRACED_MODULES:
            module = getattr(package, mod_name)
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                self._patch(module, attr, self.wrap(f"{mod_name}.{attr}", value))
        manifest = package.experiments.RunManifest
        build = vars(manifest)["build"].__func__
        self._patch(manifest, "build", classmethod(
            self.wrap("experiments.RunManifest.build", build)))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# ------------------------------------------------------------ arithmetic

def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        kids = children.get(i)
        out.append(dur - covered_length(kids, rec[START], rec[END])
                   if kids else dur)
    return out


def coverage(spans, passes):
    """Share of the passes' wall time covered by top-level spans.

    `passes` maps pass id -> (start, end); only spans of those passes count.
    """
    roots = {}
    for rec in spans:
        if rec[PARENT] is None and rec[PASS] in passes:
            roots.setdefault(rec[PASS], []).append((rec[START], rec[END]))
    covered = sum(covered_length(roots.get(pid, []), lo, hi)
                  for pid, (lo, hi) in passes.items())
    total = sum(hi - lo for lo, hi in passes.values())
    return covered / total if total > 0 else 0.0


def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
