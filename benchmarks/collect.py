"""Run the benchmark over several seeds and summarize it into one JSON file.

From the repository root:

    python3 benchmarks/collect.py --seeds 0-9 --out benchmarks/trajectory/NAME.json

runs ``benchmarks/run.py`` for BENCHMARK.json's run_seconds once per
workload and seed, one process at a time, untraced, then ``--traced-seeds`` traced runs per workload. For every
end-to-end metric the summary holds the values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the quartile distance as
a share of the median. Traced runs add the median of every per-layer metric
and of the tracing overhead. The machine record of the first run is kept.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("joint_c5", "bench_table", "desk_roundtrip")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace, threads, tmp):
    out = Path(tmp) / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--blas-threads", str(threads),
           "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads(out.read_text())
    print(f"{workload} seed {seed} trace {trace}: correct={last['correct']} "
          f"attempted={last['attempted']} failed={last['failed']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()
                     if isinstance(v["value"], (int, float))),
          flush=True)
    return last, full


def spread(values):
    values = [v for v in values if v is not None]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    p.add_argument("--traced-seeds", default="", help="seeds of the traced runs")
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--reference-out",
                   help="also write the per-scene quality values of every seed here, "
                        "in the format of reference.json")
    args = p.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    reference = {}
    summary = {"seconds": seconds, "blas_threads": args.blas_threads,
               "seeds": seed_list(args.seeds), "workloads": {}}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for workload in args.workloads.split(","):
            runs = [run_once(workload, s, seconds, 0, args.blas_threads, tmp)
                    for s in seed_list(args.seeds)]
            summary.setdefault("machine", runs[0][1]["machine"])
            reference[workload] = {str(s): full["quality"]
                                   for s, (_, full) in zip(seed_list(args.seeds), runs)}
            names = runs[0][1]["end_to_end"].keys()
            entry = {
                "correct": all(last["correct"] for last, _ in runs),
                "attempted": [last["attempted"] for last, _ in runs],
                "failed": [last["failed"] for last, _ in runs],
                "end_to_end": {n: spread([full["end_to_end"][n] for _, full in runs])
                               for n in names},
            }
            traced_seeds = seed_list(args.traced_seeds) if args.traced_seeds else []
            traced = [run_once(workload, s, seconds, 1, args.blas_threads, tmp)
                      for s in traced_seeds]
            if traced:
                entry["traced_correct"] = all(last["correct"] for last, _ in traced)
                layers = traced[0][1]["per_layer"].keys()
                entry["per_layer_median"] = {
                    n: statistics.median(full["per_layer"][n] for _, full in traced)
                    for n in layers}
                entry["trace_overhead_s"] = [full["trace_overhead_s"] for _, full in traced]
            summary["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if args.reference_out:
        Path(args.reference_out).write_text(
            json.dumps({"workloads": reference}, indent=1) + "\n")
    for workload, entry in summary["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(f"{workload:<15} {name:<20} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
