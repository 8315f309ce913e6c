"""Outside-in span recorder for the traced run.

``install`` wraps the public functions named below and rebinds each wrapper
under every name that any hausnorm module bound the function to, so calls
through ``from .spaces import space_norm`` bindings are seen as well as
calls through the defining module. ``uninstall`` puts the originals back.
The library itself is not changed.

A span is (id, name, start, end, parent id), kept in memory. A layer's self
time is its span's duration minus the time covered by its child spans. A
span opened on a pool thread with no open span of its own belongs to the
call that submitted the work, which is the innermost span open on the main
thread; its children then overlap, so coverage is the union of their
intervals.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

# functions that get a span, by hausnorm module
SPANNED = {
    "hausdorff": ("apply_pointwise", "apply_on_grid", "operator_ratio"),
    "spaces": ("shell_norm", "herz_norm", "morrey_herz_norm", "central_morrey_norm",
               "space_norm"),
    "luxemburg": ("weighted_vexp_norm", "luxemburg_norm", "norm_of_one"),
    "harness": ("upper_bound_suite", "random_test_functions", "sharpness_sweep"),
    "_quad": ("quad_s",),
    "bounds": ("evaluate_constant",),
    "cli": ("main",),
    "config": ("load_config",),
}
# Leaf functions that are only counted; their time stays in the self time
# of their callers.
COUNTED = {
    "_quad": ("power_integral", "log_power_integral", "linear_cutoff", "search_cutoff"),
    "exponents": ("pullback_exponent",),
}
# spans whose non-zero results are counted as well
NONZERO = ("spaces.shell_norm",)

MARK = "_perfbench_wrapper"


def label(module: str, fn: str) -> str:
    """Metric prefix of a function; metric names cannot start with '_'."""
    return f"{module.lstrip('_')}.{fn}"


def installed_wrappers() -> list[str]:
    """Names in hausnorm modules that are bound to a recorder wrapper."""
    return [
        f"{mod_name}.{attr}"
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "hausnorm" or mod_name.startswith("hausnorm.")
        for attr, val in list(vars(mod).items())
        if getattr(val, MARK, False)
    ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanRecorder:
    """Records spans and counts while installed; collect() reduces them."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        self._main_stack = self._stack()
        self._bindings: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        return counter

    def _span_wrapper(self, name: str, fn):
        spans, ids, stack_of, main_stack = self.spans, self._ids, self._stack, self._main_stack
        counter_of = self._counter
        nonzero = name in NONZERO

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = None
            sid = next(ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent))
            if nonzero and out != 0.0:
                counter_of()[name + ".nonzero"] += 1
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counter_of = self._counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter_of()[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if n == "hausnorm" or n.startswith("hausnorm.")]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod_name, fns in table.items():
                mod = sys.modules["hausnorm." + mod_name]
                for fn_name in fns:
                    original = getattr(mod, fn_name)
                    wrapper = make(label(mod_name, fn_name), original)
                    for m in mods:
                        for attr, val in list(vars(m).items()):
                            if val is original:
                                setattr(m, attr, wrapper)
                                self._bindings.append((m, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def reset(self) -> None:
        """Drop what was recorded; call only while no span is open."""
        self.spans.clear()
        with self._lock:
            for counter in self._counters:
                counter.clear()

    def collect(self) -> "RepStats":
        """Reduce the recorded spans and counts of one repetition."""
        spans = list(self.spans)
        counts = Counter()
        with self._lock:
            for counter in self._counters:
                counts.update(counter)
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for sid, _name, t0, t1, parent in spans:
            if parent is not None:
                children[parent].append((t0, t1))

        stats = RepStats()
        for sid, name, t0, t1, parent in spans:
            stats.calls[name] += 1
            stats.self_s[name] += (t1 - t0) - _covered(children.get(sid, []))
            stats.durations[name].append(t1 - t0)
        stats.calls.update(counts)

        def under(name: str, ancestor: str) -> int:
            n = 0
            for _sid, sname, _t0, _t1, parent in spans:
                if sname != name:
                    continue
                while parent is not None:
                    p = by_id[parent]
                    if p[1] == ancestor:
                        n += 1
                        break
                    parent = p[4]
            return n

        stats.calls["grid_points"] = under("hausdorff.apply_pointwise", "hausdorff.apply_on_grid")
        stats.calls["quad_in_norms"] = under("quad.quad_s", "luxemburg.luxemburg_norm")
        stats.calls["nodes_in_constants"] = under("luxemburg.norm_of_one",
                                                  "bounds.evaluate_constant")
        return stats


class RepStats:
    """Counts, self times and durations of one or more traced repetitions."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.reps = 1

    def merge(self, other: "RepStats") -> None:
        self.calls.update(other.calls)
        for k, v in other.self_s.items():
            self.self_s[k] += v
        for k, v in other.durations.items():
            self.durations[k].extend(v)
        self.reps += other.reps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct_ms(durations: list[float], pct: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[pct - 1]


def layer_metrics(stats: RepStats, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per repetition, in the order BENCHMARK.json lists them."""
    reps = stats.reps

    def calls(name):
        return stats.calls[name] / reps

    def self_s(name):
        return stats.self_s[name] / reps

    c = stats.calls
    out: dict[str, tuple[float, str]] = {}
    out["hausdorff.apply_pointwise.calls"] = (calls("hausdorff.apply_pointwise"), "count")
    out["hausdorff.apply_pointwise.self_s"] = (self_s("hausdorff.apply_pointwise"), "s")
    out["hausdorff.apply_on_grid.self_s"] = (self_s("hausdorff.apply_on_grid"), "s")
    out["hausdorff.grid_points_per_image"] = (
        _ratio(c["grid_points"], c["hausdorff.apply_on_grid"]), "points/image")
    for name in ("hausdorff.operator_ratio",):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
        out[f"{name}.p50_ms"] = (_pct_ms(stats.durations[name], 50), "ms")
        out[f"{name}.p90_ms"] = (_pct_ms(stats.durations[name], 90), "ms")
    out["spaces.shell_norm.calls"] = (calls("spaces.shell_norm"), "count")
    out["spaces.shell_norm.self_s"] = (self_s("spaces.shell_norm"), "s")
    out["spaces.shell_norm.nonzero_frac"] = (
        _ratio(c["spaces.shell_norm.nonzero"], c["spaces.shell_norm"]), "fraction")
    for name in ("spaces.herz_norm", "spaces.morrey_herz_norm", "spaces.central_morrey_norm",
                 "luxemburg.weighted_vexp_norm"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["spaces.space_norm.calls"] = (calls("spaces.space_norm"), "count")
    out["spaces.space_norm.self_s"] = (self_s("spaces.space_norm"), "s")
    out["harness.space_norms_per_ratio"] = (
        _ratio(c["spaces.space_norm"], c["hausdorff.operator_ratio"]), "norms/ratio")
    for name in ("harness.upper_bound_suite", "harness.random_test_functions",
                 "harness.sharpness_sweep"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    name = "luxemburg.luxemburg_norm"
    out[f"{name}.calls"] = (calls(name), "count")
    out[f"{name}.self_s"] = (self_s(name), "s")
    out[f"{name}.p50_ms"] = (_pct_ms(stats.durations[name], 50), "ms")
    out[f"{name}.p90_ms"] = (_pct_ms(stats.durations[name], 90), "ms")
    out["luxemburg.quad_per_norm"] = (_ratio(c["quad_in_norms"], c[name]), "calls/norm")
    out["quad.quad_s.calls"] = (calls("quad.quad_s"), "count")
    out["quad.quad_s.self_s"] = (self_s("quad.quad_s"), "s")
    out["quad.power_integral.calls"] = (calls("quad.power_integral"), "count")
    out["quad.log_power_integral.calls"] = (calls("quad.log_power_integral"), "count")
    out["quad.cutoff.calls"] = (
        (c["quad.linear_cutoff"] + c["quad.search_cutoff"]) / reps, "count")
    out["bounds.evaluate_constant.calls"] = (calls("bounds.evaluate_constant"), "count")
    out["bounds.evaluate_constant.self_s"] = (self_s("bounds.evaluate_constant"), "s")
    out["bounds.nodes_per_constant"] = (
        _ratio(c["nodes_in_constants"], c["bounds.evaluate_constant"]), "nodes/constant")
    out["luxemburg.norm_of_one.calls"] = (calls("luxemburg.norm_of_one"), "count")
    out["exponents.pullback_exponent.calls"] = (calls("exponents.pullback_exponent"), "count")
    out["cli.main.self_s"] = (self_s("cli.main"), "s")
    out["config.load_config.self_s"] = (self_s("config.load_config"), "s")
    out["trace_overhead_s"] = (overhead_s, "s")
    return out
