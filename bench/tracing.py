"""Per-layer tracing of the package from the benchmark's side.

:class:`Tracer` wraps the public functions of each module of
``src/chebconvex`` (the layers), records one span per call (name, start,
end, parent span, request id) in memory, and rebinds every module-level
name that refers to a wrapped function, so names imported by name (such
as ``det_and_scale`` inside ``convexity`` and ``divdiff``) are traced
where they are looked up. Methods are wrapped on their class. The package
itself is not modified; :meth:`Tracer.uninstall` restores every binding.

Self time is a span's duration minus the durations of its child spans and
the tracer's own work around them (span bookkeeping and counting hooks).
The process is single-threaded, so no layer waits on another and no wait
time is recorded.
"""

from __future__ import annotations

import array
import gzip
import inspect
import math
import time
from collections import defaultdict

#: (module, attribute, span name). Attributes with a dot are methods.
LAYERS = (
    ("determinants", "det_and_scale", "determinants.det_and_scale"),
    ("determinants", "solve_with_det", "determinants.solve_with_det"),
    ("determinants", "check_points", "determinants.check_points"),
    ("sampling", "ordered_index_tuples", "sampling.ordered_index_tuples"),
    ("convexity", "certify_theorem_a", "convexity.certify_theorem_a"),
    ("convexity", "certify_corollary1", "convexity.certify_corollary1"),
    ("convexity", "scan_theorem2", "convexity.scan_theorem2"),
    ("convexity", "verify_definition", "convexity.verify_definition"),
    ("convexity", "require_positive", "convexity.require_positive"),
    ("systems", "classify_on_grid", "systems.classify_on_grid"),
    ("systems", "validate_grid", "systems.validate_grid"),
    ("systems", "ChebyshevSystem.evaluate_basis", "systems.evaluate_basis"),
    ("divdiff", "gdd", "divdiff.gdd"),
    ("support", "build_support", "support.build_support"),
    ("support", "estimate_cn", "support.estimate_cn"),
    ("support", "verify_sign_pattern", "support.verify_sign_pattern"),
    ("interpolation", "interpolate", "interpolation.interpolate"),
    ("interpolation", "constrained_interpolate", "interpolation.constrained_interpolate"),
    ("interpolation", "OmegaCombination.__call__", "interpolation.omega_eval"),
    ("functions", "FunctionSource.__call__", "functions.source_eval"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "render", "cli.render"),
    ("cli", "main", "cli.main"),
)

#: Matrix orders of the elimination-kernel breakdown.
KERNEL_ORDERS = range(2, 7)


def kernel_flops(n: int) -> float:
    """Computed operation count of one n x n elimination: about 2n^3/3."""
    return 2.0 * n ** 3 / 3.0


class Tracer:
    """Span recorder and layer wrapper for one imported package."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules  # short name -> module
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_request = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._seen: set = set()
        self._restore: list = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "determinants.det_and_scale": self._on_det,
            "sampling.ordered_index_tuples": self._on_sample,
            "convexity.certify_theorem_a": self._on_certificate,
            "convexity.certify_corollary1": self._on_certificate,
            "divdiff.gdd": self._on_gdd,
            "support.estimate_cn": self._on_limit,
            "support.verify_sign_pattern": self._on_pattern,
            "functions.source_eval": self._on_source,
        }
        self._sign_of = self.modules["determinants"].sign_of
        self._sample_sig = inspect.signature(
            self.modules["sampling"].ordered_index_tuples)
        for module_name, attr, span in LAYERS:
            owner = self.modules[module_name]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            else:
                method = attr
            original = getattr(owner, method)
            wrapped = self._wrap(span, original, hooks.get(span))
            if cls_name:
                self._rebind(owner, method, wrapped)
                continue
            for module in self.modules.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapped)

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def start_request(self, rid: int) -> None:
        self.request = rid
        self._seen.clear()

    def _wrap(self, span: str, fn, hook):
        nid = len(self.names)
        self.names.append(span)
        clock = time.perf_counter
        stack, child = self._stack, self._child

        def traced(*args, **kwargs):
            entered = clock()
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_request.append(self.request)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                duration = end - start
                self.span_start[idx] = start
                self.span_end[idx] = end
                self.calls[span] += 1
                self.total[span] += duration
                self.self_time[span] += duration - inner
                if child:
                    # The caller's self time excludes this call and the
                    # tracer's own work around it, the hook included.
                    child[-1] += end - entered
            if hook is not None:
                hook(args, kwargs, result, duration)
                if child:
                    child[-1] += clock() - end
            return result

        return traced

    # -- counters at the layer boundaries -------------------------------

    def _on_det(self, args, kwargs, result, duration) -> None:
        n = len(args[0])
        self.counts[f"det.calls.n{n}"] += 1
        self.counts[f"det.s.n{n}"] += duration
        self.counts["det.flops"] += kernel_flops(n)
        if self._sign_of(*result) == "0":
            self.counts["det.zero"] += 1

    def _on_sample(self, args, kwargs, result, duration) -> None:
        bound = self._sample_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        m, k = bound.arguments["m"], bound.arguments["k"]
        if bound.arguments["windows_only"]:
            wanted = max(m - k + 1, 0)
        else:
            wanted = min(math.comb(m, k), bound.arguments["budget"])
        self.counts["sample.tuples"] += len(result)
        self.counts["sample.wanted"] += wanted

    def _on_certificate(self, args, kwargs, result, duration) -> None:
        self.counts["cert.checked"] += result.tuples_checked
        self.counts["cert.skipped"] += result.skipped

    def _on_gdd(self, args, kwargs, result, duration) -> None:
        self.counts["gdd.ill"] += result.ill_conditioned

    def _on_limit(self, args, kwargs, result, duration) -> None:
        self.counts["limit.halvings"] += len(result.h_sequence)

    def _on_pattern(self, args, kwargs, result, duration) -> None:
        self.counts["pattern.points"] += (
            sum(s.points_checked for s in result.segments) + result.excluded)

    def _on_source(self, args, kwargs, result, duration) -> None:
        key = (id(args[0]), args[1])
        if key not in self._seen:
            self._seen.add(key)
            self.counts["source.distinct"] += 1

    # -- output ----------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, ``name -> (value, unit)``; counts and times are
        per round, ratios and rates are over the whole traced run."""
        c = self.counts

        def per_round(value):
            return value / rounds

        out: dict = {}
        for _, _, span in LAYERS:
            out[f"{span}.calls"] = (per_round(self.calls[span]), "count")
            out[f"{span}.s"] = (per_round(self.total[span]), "s")
            out[f"{span}.self_s"] = (per_round(self.self_time[span]), "s")
        det = "determinants.det_and_scale"
        for n in KERNEL_ORDERS:
            out[f"{det}.us.n{n}"] = (_ratio(1e6 * c[f"det.s.n{n}"], c[f"det.calls.n{n}"]), "us")
        out[f"{det}.mflop_per_s_computed"] = (
            _ratio(c["det.flops"], 1e6 * self.total[det]), "MFLOP/s")
        out["determinants.zero_ratio"] = (_ratio(c["det.zero"], self.calls[det]), "ratio")
        sample = "sampling.ordered_index_tuples"
        out["sampling.tuples"] = (per_round(c["sample.tuples"]), "count")
        out["sampling.tuples_per_s"] = (_ratio(c["sample.tuples"], self.total[sample]), "1/s")
        out["sampling.fill_ratio"] = (_ratio(c["sample.tuples"], c["sample.wanted"]), "ratio")
        scan_s = (self.total["convexity.certify_theorem_a"]
                  + self.total["convexity.certify_corollary1"])
        out["convexity.tuples_checked"] = (per_round(c["cert.checked"]), "count")
        out["convexity.tuples_per_s"] = (_ratio(c["cert.checked"], scan_s), "1/s")
        out["convexity.skipped_ratio"] = (
            _ratio(c["cert.skipped"], c["cert.checked"] + c["cert.skipped"]), "ratio")
        gdd = "divdiff.gdd"
        out[f"{gdd}.us"] = (_ratio(1e6 * self.total[gdd], self.calls[gdd]), "us")
        out["divdiff.ill_conditioned_ratio"] = (_ratio(c["gdd.ill"], self.calls[gdd]), "ratio")
        out["support.halvings"] = (
            _ratio(c["limit.halvings"], self.calls["support.estimate_cn"]), "count")
        out["support.points_per_s"] = (
            _ratio(c["pattern.points"], self.total["support.verify_sign_pattern"]), "1/s")
        out["functions.distinct_ratio"] = (
            _ratio(c["source.distinct"], self.calls["functions.source_eval"]), "ratio")
        return out

    def kernel_table(self, scale: float = 1.0) -> list[str]:
        """Elimination-kernel breakdown by matrix order, as report lines;
        times are multiplied by ``scale``."""
        lines = ["order calls us_per_call flops_per_call_computed mflop_per_s_computed"]
        for n in KERNEL_ORDERS:
            calls, secs = self.counts[f"det.calls.n{n}"], scale * self.counts[f"det.s.n{n}"]
            rate = _ratio(calls * kernel_flops(n), 1e6 * secs)
            lines.append(f"n{n} {int(calls)} {_ratio(1e6 * secs, calls):.3f} "
                         f"{kernel_flops(n):.1f} {rate:.2f}")
        return lines

    def write_spans(self, path: str) -> int:
        """Write every span, in start order, as a gzip'd TSV with times in
        microseconds from the first span's start."""
        base = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tname\tparent\trequest\tstart_us\tend_us\n")
            for i in range(len(self.span_start)):
                handle.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                             f"{self.span_request[i]}\t{1e6 * (self.span_start[i] - base):.3f}\t"
                             f"{1e6 * (self.span_end[i] - base):.3f}\n")
        return len(self.span_start)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
