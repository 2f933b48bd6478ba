"""chebconvex benchmark: one workload, end to end or traced by layer.

Usage (from the repository root)::

    python3 bench/run.py --workload scan_exhaustive --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout the script sits in;
nothing is installed or built, and without ``src/chebconvex`` the script
exits with code 2 before measuring. From the seed it generates the
workload's requests (see ``workloads.py``) and issues them in-process
through ``chebconvex.cli.main(argv, stream)``: a closed loop with one
client in one single-threaded process, each request sent after the
previous one has completed and been checked against ``oracle.py``, which
never calls the package.

``--trace 0`` measures whole rounds until ``--seconds`` have passed in
them and reports the end-to-end metrics:

* ``setup_s``: median over 25 set-ups (between the measured rounds) of
  importing the package,
  generating the first rounds of requests with their oracle values and
  table files, and one warm-up request;
* ``requests_per_s``: requests in a round over the median time of a round
  (one request of each template; a median, so that one slow stretch of the
  host does not move it);
* ``latency_p50_ms``, ``latency_p90_ms``: per-request time through
  ``cli.main`` (the sample count is printed, at least 100 per run);
* ``peak_rss_mb``: peak resident memory of the process.

Times are scaled to a reference interpreter speed (see REFERENCE_S and,
for set-up, SETUP_REFERENCE_S); the raw wall-clock figures are printed
alongside. ``failed_ratio`` (requests
that raised, exited with the wrong code, or disagreed with the oracle,
over requests attempted) is printed too, and the last line carries the
same counts as ``attempted`` and ``failed``.

``--trace 1`` runs whole rounds untraced for a third of ``--seconds``, then
the same rounds traced (see ``tracing.py``), and reports the per-layer
metrics per round (one request of each template), ``failed_ratio``, the
tracing overhead, and a kernel table by matrix order. Spans are written to
``bench/out/spans-<workload>.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is
false when any request failed: the workloads are built so that none does.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import marshal
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import oracle
import tracing
from workloads import WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Set-ups per untraced run: the one whose session is measured, then the
#: others between rounds, spread evenly over the measured time (which does
#: not count them). One scaled
#: set-up varies by about 15% (interquartile range) within a process, so
#: many samples across the same stretch of host speeds as the requests are
#: needed for a steady median, which is ``setup_s``.
SETUP_REPEATS = 25

#: Rounds generated during set-up; later rounds are generated on demand.
SETUP_ROUNDS = 2

#: Nominal time of :func:`reference_kernel`. Reported times are scaled by
#: REFERENCE_S / t, with t the median of the kernel's timings nearest to the
#: request they belong to, the kernel being timed once before every request.
#: The host's speed drifts by up to a factor of two over seconds to
#: minutes, which raw wall times carry from run to run; the kernel moves
#: with it. REFERENCE_S is close to the kernel's typical time on the
#: machine the benchmark was written on (bench/results/), so scaled times
#: read as seconds there. Raw times are printed as well.
REFERENCE_S = 400e-6

#: Kernel timings around a request that set its speed factor.
KERNEL_WINDOW = 9

#: Nominal time of :func:`reference_setup`. Set-up times are scaled by
#: SETUP_REFERENCE_S / t, with t the median of KERNEL_WINDOW timings of it
#: before and KERNEL_WINDOW after the set-up. Set-up is mostly importing:
#: unmarshalling code and running module bodies that build classes, work
#: that speeds up and slows down with the host less than the request kernel
#: does. On the machine of bench/results/, the median scan_exhaustive
#: set-up time over groups of twelve set-ups varied by 43% (interquartile
#: range over sixteen groups in one process), by 8% when scaled by the
#: request kernel and by 5% when scaled by this reference. SETUP_REFERENCE_S
#: is close to the reference's typical time there.
SETUP_REFERENCE_S = 1.2e-3


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def at(self, z: float) -> float:
        return self.x * z + self.y


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds the package does: a pivoted
    elimination, sorting and dict building, JSON and float formatting, and
    small frozen dataclasses with one exception. It never calls the
    package, so no change to the package can move it."""
    a = [[1.0 / (i + j + 1) + (i == j) for j in range(5)] for i in range(5)]
    for col in range(5):
        piv = max(range(col, 5), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, 5):
            factor = a[r][col] / a[col][col]
            for c in range(col + 1, 5):
                a[r][c] -= factor * a[col][c]
    pairs = sorted(((i * 0.37) % 1.0, i) for i in range(200))
    table = {str(i): [x, x * x] for x, i in pairs[:60]}
    text = json.dumps({"t": table}, sort_keys=True) + " ".join(f"{x!r}" for x, _ in pairs[:40])
    acc = 0.0
    for i in range(60):
        acc += _Point(i * 0.5, 1.0).at(0.25)
    try:
        raise ValueError(acc)
    except ValueError:
        pass
    return len(text)


#: The benchmark's own oracle module, compiled once; see reference_setup.
with open(oracle.__file__, encoding="utf-8") as _handle:
    _SETUP_CODE = marshal.dumps(compile(_handle.read(), oracle.__file__, "exec"))


def reference_setup() -> None:
    """Fixed import-like work: unmarshal the code of ``oracle.py`` and run
    it in a fresh namespace, which imports cached modules and defines
    functions, constants and a dataclass. It never calls the package. The
    namespace keeps the module's name, which dataclasses look up."""
    exec(marshal.loads(_SETUP_CODE), {"__name__": oracle.__name__})


def timed(work) -> float:
    """One timing of ``work()``, with the garbage collector off so that the
    package's heap cannot add collection passes to it."""
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def kernel_time() -> float:
    return timed(reference_kernel)


def speed_factor(times) -> float:
    """REFERENCE_S over the median of the kernel ``times``."""
    return REFERENCE_S / statistics.median(times)


class Session:
    """One set-up: the imported package, the workload and its work files."""

    def __init__(self, workload: str, seed: int):
        reference = [timed(reference_setup) for _ in range(KERNEL_WINDOW)]
        started = time.perf_counter()
        self.cli = _import_package()
        self.workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
        self.workload = Workload(workload, seed, self.workdir)
        self.rounds = [self.workload.round(r) for r in range(SETUP_ROUNDS)]
        issue(self.cli, self.rounds[0][0])
        self.raw_setup_s = time.perf_counter() - started
        reference += [timed(reference_setup) for _ in range(KERNEL_WINDOW)]
        self.setup_s = self.raw_setup_s * SETUP_REFERENCE_S / statistics.median(reference)

    def round(self, r: int) -> list:
        """Round ``r``; rounds past set-up are generated afresh, not kept."""
        return self.rounds[r] if r < len(self.rounds) else self.workload.round(r)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _import_package():
    """Import ``chebconvex.cli`` afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "chebconvex" or n.startswith("chebconvex.")]:
        del sys.modules[name]
    cli = importlib.import_module("chebconvex.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"chebconvex imported from {cli.__file__}, not from {SRC}")
    return cli


class Outcome:
    """What one request left behind: its wall time and any disagreement."""

    __slots__ = ("template", "latency", "scaled", "problem")

    def __init__(self, template: str, latency: float, problem: Optional[str]):
        self.template = template
        self.latency = latency
        self.scaled = latency
        self.problem = problem


def issue(cli, request, tracer=None) -> Outcome:
    """Send one request through ``cli.main`` and check it against the oracle."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stderr
    if tracer is not None:
        tracer.start_request(request.rid)
    sys.stderr = err
    start = time.perf_counter()
    try:
        code = cli.main(list(request.argv), out)
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        code, crash = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - start
        sys.stderr = saved
    if code is None:
        return Outcome(request.template, latency, crash)
    problem = oracle.judge(request.expect, request.fmt, code, out.getvalue(),
                           err.getvalue())
    return Outcome(request.template, latency, problem)


def run_rounds(session: Session, rounds, tracer=None) -> list:
    """Issue whole rounds. The kernel is timed before every request and once
    after the last; each request's time is scaled by the speed factor of the
    KERNEL_WINDOW kernel timings nearest to it."""
    kernel, outcomes = [], []
    for r in rounds:
        for request in session.round(r):
            kernel.append(kernel_time())
            outcomes.append(issue(session.cli, request, tracer))
    kernel.append(kernel_time())
    half = KERNEL_WINDOW // 2
    for i, outcome in enumerate(outcomes):
        lo = min(max(i - half, 0), max(len(kernel) - KERNEL_WINDOW, 0))
        outcome.scaled = outcome.latency * speed_factor(kernel[lo:lo + KERNEL_WINDOW])
    return outcomes


def run_for(session: Session, seconds: float, between_rounds=None) -> list:
    """Whole rounds until ``seconds`` of wall time have passed in them; after
    each round ``between_rounds`` (if given) is called with that time, and
    the time it takes does not count."""
    outcomes: list = []
    elapsed = 0.0
    r = 0
    while True:
        start = time.perf_counter()
        outcomes.extend(run_rounds(session, [r]))
        r += 1
        elapsed += time.perf_counter() - start
        if elapsed >= seconds:
            return outcomes
        if between_rounds is not None:
            between_rounds(elapsed)


def summarize(outcomes: list, round_size: int) -> dict:
    """Counts, and the timing metrics from scaled times (raw ones too).
    ``outcomes`` are whole rounds of ``round_size`` requests each."""
    out = {"attempted": len(outcomes)}
    for prefix, times in (("", [o.scaled for o in outcomes]),
                          ("raw.", [o.latency for o in outcomes])):
        rounds = [sum(times[i:i + round_size]) for i in range(0, len(times), round_size)]
        out[prefix + "requests_per_s"] = round_size / statistics.median(rounds)
        out[prefix + "latency_p50_ms"] = 1e3 * statistics.median(times)
        out[prefix + "latency_p90_ms"] = 1e3 * statistics.quantiles(times, n=10)[8]
    failed = [o for o in outcomes if o.problem is not None]
    out["failures"] = failed
    out["failed"] = len(failed)
    out["failed_ratio"] = len(failed) / len(outcomes)
    out["beyond_p90"] = sum(1 for o in outcomes if 1e3 * o.scaled > out["latency_p90_ms"])
    return out


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report_failures(failures: list) -> None:
    """One line per template, with the first problem seen."""
    for template, count in sorted(Counter(o.template for o in failures).items()):
        first = next(o for o in failures if o.template == template)
        print(f"# failed {count}x {template}: {first.problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chebconvex", "__init__.py")):
        print(f"error: no chebconvex package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    print("# environment: " + json.dumps(environment(args), sort_keys=True))
    result = traced_run(args) if args.trace else untraced_run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


def untraced_run(args) -> dict:
    setup_times, raw_setup = [], []

    def set_up() -> Session:
        session = Session(args.workload, args.seed)
        setup_times.append(session.setup_s)
        raw_setup.append(session.raw_setup_s)
        return session

    def between_rounds(elapsed: float) -> None:
        while len(setup_times) < min(SETUP_REPEATS,
                                     1 + SETUP_REPEATS * elapsed / args.seconds):
            set_up().close()
            # A set-up leaves a whole imported package behind as garbage;
            # collect it here rather than inside a measured request.
            gc.collect()

    session = set_up()
    try:
        outcomes = run_for(session, args.seconds, between_rounds)
    finally:
        session.close()
    between_rounds(args.seconds)
    s = summarize(outcomes, len(session.workload.templates))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (s["requests_per_s"], "1/s"),
        "latency_p50_ms": (s["latency_p50_ms"], "ms"),
        "latency_p90_ms": (s["latency_p90_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# requests: {s['attempted']} in whole rounds of "
          f"{len(session.workload.templates)}; scaled latency samples beyond p90: "
          f"{s['beyond_p90']}")
    print(f"# speed factor (REFERENCE_S / reference kernel time): median "
          f"{statistics.median(o.scaled / o.latency for o in outcomes):.4f}")
    raw = {name: s["raw." + name]
           for name in ("requests_per_s", "latency_p50_ms", "latency_p90_ms")}
    raw["setup_s"] = statistics.median(raw_setup)
    print("# raw (unscaled): " + json.dumps(raw, sort_keys=True))
    print(f"# failed_ratio: {s['failed_ratio']:.6f} ratio "
          f"({s['failed']} of {s['attempted']})")
    report_failures(s["failures"])
    return _result(s, metrics)


def traced_run(args) -> dict:
    session = Session(args.workload, args.seed)
    try:
        reference = run_for(session, args.seconds / 3)
        rounds = range(len(reference) // len(session.workload.templates))
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("chebconvex.")}
        tracer = tracing.Tracer(modules)
        tracer.install()
        try:
            outcomes = run_rounds(session, rounds, tracer)
        finally:
            tracer.uninstall()
    finally:
        session.close()
    size = len(session.workload.templates)
    s, untraced = summarize(outcomes, size), summarize(reference, size)
    factor = statistics.median(o.scaled / o.latency for o in outcomes)
    metrics = {}
    for name, (value, unit) in tracer.metrics(len(rounds)).items():
        if unit in ("s", "us"):
            value *= factor
        elif unit in ("1/s", "MFLOP/s"):
            value /= factor
        metrics[name] = (value, unit)
    metrics["failed_ratio"] = (s["failed_ratio"], "ratio")
    metrics["trace.requests_per_s"] = (s["requests_per_s"], "1/s")
    metrics["trace.untraced_requests_per_s"] = (untraced["requests_per_s"], "1/s")
    metrics["trace.overhead_ratio"] = (
        untraced["requests_per_s"] / s["requests_per_s"], "ratio")
    print(f"# traced rounds: {len(rounds)} ({s['attempted']} requests); per-layer "
          f"counts and times are per round, times scaled by {factor:.4f}")
    for line in tracer.kernel_table(factor):
        print(f"# kernel {line}")
    path = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz")
    print(f"# spans: {tracer.write_spans(path)} written to {os.path.relpath(path, ROOT)}")
    report_failures(s["failures"])
    return _result(s, metrics)


def _result(s: dict, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
