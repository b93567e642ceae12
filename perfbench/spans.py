"""In-memory span recorder that wraps fspdelab's public functions from outside.

The program is not edited: `install_layer_wrappers` replaces module and class
attributes with thin wrappers that record a span (name, start, end, parent)
per call, plus a few counts read off the returned values.  `Tracer.uninstall`
puts every original attribute back and checks that it did.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

class Tracer:
    """Spans and counts of one process, kept in parallel lists until written out."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []      # -1 for a root span
        self.roots: list[int] = []        # index of the root each span belongs to
        self.counts: dict[int, Counter] = defaultdict(Counter)  # per root
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else idx)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def count(self, key: str, value) -> None:
        """Add to a count of the root span currently open."""
        if self._stack:
            self.counts[self.roots[self._stack[-1]]][key] += value

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording one span per call while the tracer is active."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace `owner.attr` by `make_wrapper(original function)`.

        Static lookup keeps a classmethod a classmethod; the raw descriptor
        is what `uninstall` puts back.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr: str, make_wrapper) -> None:
        """Patch a module function and every fspdelab module that imported it by name."""
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        for mod_name, mod in sorted(sys.modules.items()):
            if (mod_name == "fspdelab" or mod_name.startswith("fspdelab.")) \
                    and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return those that did not come back."""
        self.active = False
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        broken = [f"{getattr(owner, '__name__', owner)}.{attr}"
                  for owner, attr, raw in self._patches
                  if inspect.getattr_static(owner, attr) is not raw]
        self._patches.clear()
        return broken

    # -- aggregation -------------------------------------------------------

    def to_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]

    def root_totals(self, root: int) -> dict:
        """Raw per-name totals of the spans under one root.

        Self time is the span's duration minus the union of its children's
        intervals; `nesting_gap` is how far that differs from duration minus
        the sum of the children's durations, which is zero when children
        neither overlap nor leave their parent.
        """
        members = [i for i, r in enumerate(self.roots) if r == root]
        children = defaultdict(list)
        for i in members:
            if self.parents[i] >= 0:
                children[self.parents[i]].append(i)
        calls, busy, self_time = Counter(), Counter(), Counter()
        nesting_gap = 0.0
        for i in members:
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            kids = children.get(i, [])
            covered = _union_length([(self.starts[k], self.ends[k]) for k in kids],
                                    self.starts[i], self.ends[i])
            calls[name] += 1
            busy[name] += dur
            self_time[name] += dur - covered
            kid_busy = sum(self.ends[k] - self.starts[k] for k in kids)
            nesting_gap = max(nesting_gap, abs(kid_busy - covered))
        theta_iterations = sum(
            1 for i in members if self.names[i] == "zvonkin.u_at"
            and self.parents[i] >= 0 and self.names[self.parents[i]] == "zvonkin.invert_theta")
        return {"calls": calls, "busy": busy, "self": self_time,
                "counts": Counter(self.counts.get(root, {})),
                "invert_theta_iterations": theta_iterations,
                "nesting_gap": nesting_gap}


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


# ---------------------------------------------------------------------------
# The layer boundaries of fspdelab.

def _count_sweeps(tracer: Tracer, field) -> None:
    tracer.count("solve_u.sweeps", field.iterations + 1)  # Picard sweeps + the Hessian sweep


def _count_chosen(tracer: Tracer, field) -> None:
    tracer.count("solve_u.chosen", 1)


def _count_paths(tracer: Tracer, result) -> None:
    steps = round(result.horizon / result.grid_step)
    tracer.count("simulate_ensemble.path_steps", result.n_paths * steps)
    tracer.count("simulator.exploded_paths", int(result.exploded.sum()))


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of zvonkin, simulator and harnack."""
    from fspdelab import harnack, simulator, zvonkin

    def span(name, on_result=None):
        return lambda fn: tracer.wrap(name, fn, on_result)

    tracer.patch_function(zvonkin, "solve_u", span("zvonkin.solve_u", _count_sweeps))
    tracer.patch_function(zvonkin, "lambda_threshold",
                          span("zvonkin.lambda_threshold", _count_chosen))
    tracer.patch_function(zvonkin, "transform_coeffs", span("zvonkin.transform_coeffs"))
    field_cls = zvonkin.RegularizingField
    for method in ("u_at", "grad_at", "hess_at", "invert_theta"):
        tracer.patch(field_cls, method, span(f"zvonkin.{method}"))

    tracer.patch_function(simulator, "simulate_ensemble",
                          span("simulator.simulate_ensemble", _count_paths))
    tracer.patch(simulator.SegmentView, "sup_norm", span("simulator.sup_norm"))
    tracer.patch(simulator.NoisePath, "generate", span("simulator.noise"))

    def traced_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap("simulator.drift_eval", factory(*args, **kwargs))
        return make

    tracer.patch_function(simulator, "dini_drift", traced_factory)

    tracer.patch_function(harnack, "collect_pair_estimates",
                          span("harnack.collect_pair_estimates"))
    tracer.patch_function(harnack, "conjugation_check", span("harnack.conjugation_check"))
    tracer.active = True


# ---------------------------------------------------------------------------
# Per-layer metrics.

COUNT_METRICS = (
    "zvonkin.solve_u.calls", "zvonkin.solve_u.sweeps", "zvonkin.field_eval.calls",
    "zvonkin.invert_theta.calls", "zvonkin.invert_theta.iterations",
    "simulator.simulate_ensemble.calls", "simulator.simulate_ensemble.path_steps",
    "simulator.sup_norm.calls", "simulator.drift_eval.calls", "simulator.exploded_paths",
)

FIELD_EVAL = ("zvonkin.u_at", "zvonkin.grad_at", "zvonkin.hess_at")


def raw_layer_values(totals: dict) -> dict:
    """Additive layer values of one root span: counts and busy/self seconds."""
    calls, busy, self_time, counts = (totals["calls"], totals["busy"], totals["self"],
                                      totals["counts"])
    return {
        "zvonkin.solve_u.calls": calls["zvonkin.solve_u"],
        "zvonkin.solve_u.busy_s": busy["zvonkin.solve_u"],
        "zvonkin.solve_u.sweeps": counts["solve_u.sweeps"],
        "zvonkin.solve_u.chosen": counts["solve_u.chosen"],
        "zvonkin.field_eval.calls": sum(calls[n] for n in FIELD_EVAL),
        "zvonkin.field_eval.busy_s": sum(busy[n] for n in FIELD_EVAL),
        "zvonkin.invert_theta.calls": calls["zvonkin.invert_theta"],
        "zvonkin.invert_theta.iterations": totals["invert_theta_iterations"],
        "zvonkin.invert_theta.busy_s": busy["zvonkin.invert_theta"],
        "zvonkin.transform_coeffs.busy_s": busy["zvonkin.transform_coeffs"],
        "simulator.simulate_ensemble.calls": calls["simulator.simulate_ensemble"],
        "simulator.simulate_ensemble.busy_s": busy["simulator.simulate_ensemble"],
        "simulator.simulate_ensemble.path_steps": counts["simulate_ensemble.path_steps"],
        "simulator.sup_norm.calls": calls["simulator.sup_norm"],
        "simulator.sup_norm.busy_s": busy["simulator.sup_norm"],
        "simulator.drift_eval.calls": calls["simulator.drift_eval"],
        "simulator.drift_eval.busy_s": busy["simulator.drift_eval"],
        "simulator.noise.busy_s": busy["simulator.noise"],
        "simulator.exploded_paths": counts["simulator.exploded_paths"],
        "harnack.collect_pair_estimates.busy_s": busy["harnack.collect_pair_estimates"],
        "harnack.collect_pair_estimates.self_s": self_time["harnack.collect_pair_estimates"],
        "harnack.conjugation_check.busy_s": busy["harnack.conjugation_check"],
        "harnack.conjugation_check.self_s": self_time["harnack.conjugation_check"],
        "experiments.busy_s": busy["experiments"],
        "experiments.self_s": self_time["experiments"],
    }


def layer_metrics(setup: dict, calls: list[dict]) -> dict:
    """One set-up plus the median traced call, with the derived ratios."""
    keys = setup.keys()
    merged = {k: setup[k] + statistics.median(c[k] for c in calls) for k in keys}
    for k in COUNT_METRICS + ("zvonkin.solve_u.chosen",):
        merged[k] = int(round(merged[k]))
    solves, sweeps = merged["zvonkin.solve_u.calls"], merged["zvonkin.solve_u.sweeps"]
    steps = merged["simulator.simulate_ensemble.path_steps"]
    merged["zvonkin.solve_u.s_per_sweep"] = (
        merged["zvonkin.solve_u.busy_s"] / sweeps if sweeps else 0.0)
    chosen = merged.pop("zvonkin.solve_u.chosen")
    merged["zvonkin.solve_u.useful_ratio"] = chosen / solves if solves else 0.0
    merged["simulator.simulate_ensemble.ns_per_path_step"] = (
        1e9 * merged["simulator.simulate_ensemble.busy_s"] / steps if steps else 0.0)
    return merged


def count_signature(raw: dict) -> tuple:
    """The exact-repeat part of one call's layer values."""
    return tuple(int(raw[k]) for k in COUNT_METRICS)
