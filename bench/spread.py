"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--seconds S] [--out PATH]

Runs ``bench/run.py --trace 0`` once per seed and workload, one process at
a time, and prints for every end-to-end metric of ``BENCHMARK.json`` the
median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), against the metric's bound and a
third of it; the exit code is 1 when any spread reaches a third of its
bound or any run's outputs are incorrect. The same figures are printed for
the raw (unscaled) wall times, which have no bound. ``--out`` also writes
every run's values and the environment of the runs as JSON, so that later
measurements can be compared like with like.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    """One untraced run: (last-line result, environment line, raw times)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    comment = {line[2:].split(": ", 1)[0]: json.loads(line.split(": ", 1)[1])
               for line in lines if line.startswith(("# environment: ", "# raw (unscaled): "))}
    return json.loads(lines[-1]), comment["environment"], comment["raw (unscaled)"]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    record = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs, raws = [], []
        for seed in seeds:
            result, env, raw = run_once(workload, seed, args.seconds)
            runs.append(result)
            raws.append(raw)
            ok &= result["correct"]
        record["environment"] = {k: env[k] for k in
                                 ("python", "implementation", "platform", "machine", "nproc")}
        record["environment"]["cpu_model"] = cpu_model()
        figures = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            steady = share < bound / 3
            ok &= steady
            figures[name] = {"median": median, "iqr_share": share, "bound": bound,
                             "unit": metric["unit"], "values": values}
            print(f"{workload:16s} {name:16s} median {median:12.5g} {metric['unit']:5s} "
                  f"iqr/median {share:7.4f}  bound {bound:.2f}  "
                  f"{'ok' if steady else 'WIDE'}  " + " ".join(f"{v:.4g}" for v in values))
            if name in raws[0]:
                raw_values = [raw[name] for raw in raws]
                raw_median, raw_share = spread(raw_values)
                figures[name]["raw"] = {"median": raw_median, "iqr_share": raw_share,
                                        "values": raw_values}
                print(f"{workload:16s} {'raw ' + name:20s} median {raw_median:8.5g} "
                      f"iqr/median {raw_share:7.4f}  " +
                      " ".join(f"{v:.4g}" for v in raw_values))
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        figures["failed_ratio"] = {"pooled": failed / attempted, "unit": "ratio"}
        print(f"{workload:16s} failed_ratio     {failed}/{attempted}; "
              f"correct in {sum(r['correct'] for r in runs)} of {len(runs)} runs")
        record["workloads"][workload] = figures
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
