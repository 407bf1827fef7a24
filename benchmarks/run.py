"""Run one echosep benchmark workload and print its metrics.

From the repository root:

    python3 benchmarks/run.py --workload joint_c5 --seed 0 --seconds 35 --trace 0

The workload's scenes are drawn from --seed and run back to back in this one
process for about --seconds of timed work, after at least one pass over the
workload's scene pool. Every scene's outputs are checked (see workloads.py);
a scene fails on an exception, a non-zero CLI exit, a non-finite output or a
mismatch, including a mismatch against the quality values stored in
reference.json for the seeds of the committed baseline.

--trace 0 reports the end-to-end metrics with nothing wrapped. --trace 1
alternates traced and untraced scenes: traced scenes give the per-layer
metrics (self time and counts per scene, see tracer.py), and the difference
of the two scene-time medians is the tracing overhead.

The BLAS thread count is pinned (--blas-threads, default 1, at most nproc)
before numpy is imported. Human-readable lines go first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. --out FILE also writes the full result: machine record, every
metric, per-scene samples and, when traced, the spans.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Quality values may differ from the stored reference values by at most the
# CSV rounding (dB) and 1e-5 in misalignment.
REFERENCE_TOL = {"sier_db": 0.005, "erle_aec_db": 0.005, "misalignment": 1e-5}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("joint_c5", "bench_table", "desk_roundtrip"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--out", help="write the full result as JSON to this file")
    return p.parse_args(argv)


def blas_threads(requested):
    return max(1, min(requested, len(os.sched_getaffinity(0))))


def machine_record(numpy, scipy, threads):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": threads,
    }


def import_echosep():
    """Import echosep from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import echosep
    import echosep.cli  # noqa: F401  (cli is not imported by the package)

    if not Path(echosep.__file__).resolve().is_relative_to(src):
        raise ImportError(f"echosep imported from {echosep.__file__}, not {src}")
    return echosep


def percentile_line(samples):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return None
    q = int(100 * (n - 10) / n)
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Run:
    """One workload run: set-up, the timed scene loop, checks and metrics."""

    def __init__(self, echosep, workload_cls, args, workdir, reference):
        self.args = args
        self.workload = workload_cls(echosep, args.seed, workdir)
        self.reference = reference
        self.samples = []        # (seconds, traced) of every scene that passed
        self.failures = []       # (scene index, message)
        self.quality = {}        # pool index -> quality values of the first pass
        self.attempted = 0
        self.timed_s = 0.0

    def setup(self, import_s):
        prep = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            self.workload.prepare()
            prep.append(time.perf_counter() - t)
        self.import_s = import_s
        self.setup_s = import_s + statistics.median(prep)

    def loop(self, tracer):
        wl, pool = self.workload, self.workload.pool_size
        last = 0.0
        while self.attempted < pool or self.timed_s + last <= self.args.seconds:
            k = self.attempted % pool
            traced = tracer is not None and self.attempted % 2 == 1
            start = time.perf_counter()
            elapsed = None
            try:
                if traced:
                    tracer.install()
                    try:
                        out, _ = tracer.root(lambda: wl.run(k))
                    finally:
                        tracer.uninstall()
                else:
                    out = wl.run(k)
                elapsed = time.perf_counter() - start
                self.verify(k, wl.check(k, out))
            except Exception as exc:  # every failure is counted and reported
                self.fail(exc)
            else:
                self.samples.append((elapsed, traced))
            last = elapsed if elapsed is not None else time.perf_counter() - start
            self.timed_s += last
            self.attempted += 1
            if len(self.failures) == self.attempted >= pool:
                break  # nothing passes; stop after one pass

    def verify(self, k, quality):
        from workloads import OutputMismatch, quality_matches

        first = self.quality.get(k)
        if first is None:
            ref = self.reference.get(k)
            if ref is not None:
                for key, tol in REFERENCE_TOL.items():
                    if abs(quality[key] - ref[key]) > tol:
                        raise OutputMismatch(
                            f"scene {k}: {key}={quality[key]!r} differs from the "
                            f"reference {ref[key]!r}")
            self.quality[k] = quality
        elif not quality_matches(quality, first):
            raise OutputMismatch(f"scene {k}: a repeated pass changed the outputs")

    def fail(self, exc):
        self.failures.append((self.attempted, f"{type(exc).__name__}: {exc}"))
        if len(self.failures) <= 3:
            traceback.print_exception(exc, file=sys.stderr)

    def end_to_end(self):
        untraced = [s for s, traced in self.samples if not traced]
        n_ok = len(self.samples)
        q = [self.quality[k] for k in sorted(self.quality)]

        def mean(key):
            return statistics.fmean(v[key] for v in q) if q else None

        return {
            "scenes_per_s": n_ok / self.timed_s if self.timed_s else None,
            "scene_s_p50": statistics.median(untraced) if untraced else None,
            "setup_s": self.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sier_db_mean": mean("sier_db"),
            "erle_aec_db_mean": mean("erle_aec_db"),
            "misalignment_median": (statistics.median(v["misalignment"] for v in q)
                                    if q else None),
        }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "echosep" / "__init__.py").is_file():
        print(f"error: no echosep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = blas_threads(args.blas_threads)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    import numpy
    import scipy

    echosep = import_echosep()
    import_s = time.perf_counter() - T0

    from tracer import Tracer
    from workloads import WORKLOADS

    stored = json.loads((HERE / "reference.json").read_text())["workloads"][args.workload]
    reference = dict(enumerate(stored.get(str(args.seed), [])))

    workdir = HERE / "out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = None
    try:
        run = Run(echosep, WORKLOADS[args.workload], args, workdir, reference)
        run.setup(import_s)
        tracer = Tracer(echosep) if args.trace else None
        run.loop(tracer)
    finally:
        if run is not None:
            run.workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    machine = machine_record(numpy, scipy, threads)
    e2e = run.end_to_end()
    n_ok = len(run.samples)
    correct = not run.failures and n_ok > 0 and len(run.quality) == run.workload.pool_size
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"blas_threads {threads} pool {run.workload.pool_size}")
    print(f"scenes attempted {run.attempted} passed {n_ok} failed {len(run.failures)} "
          f"failed_ratio {len(run.failures) / max(run.attempted, 1):.4f} "
          f"timed_s {run.timed_s:.3f}")
    for index, message in run.failures:
        print(f"failed scene {index}: {message}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = [s for s, traced in run.samples if not traced]
    for metric in spec["end_to_end"]:
        name, value, extra = metric["name"], e2e[metric["name"]], ""
        if name == "scene_s_p50":
            extra = f" (n={len(untraced)})"
            tail = percentile_line(untraced)
            if tail:
                extra += f" p{tail[0]}={tail[1]:.4f} s"
        if name == "setup_s":
            extra = f" (import {run.import_s:.4f} s)"
        print(f"{name:<22} {value!r:>22} {metric['unit']}{extra}")

    result = {"machine": machine, "args": vars(args), "end_to_end": e2e,
              "samples": run.samples,
              "quality": [run.quality[k] for k in sorted(run.quality)],
              "failures": run.failures, "import_s": run.import_s}
    if args.trace:
        traced = [s for s, t in run.samples if t]
        layers = tracer.report(len(traced))
        overhead = (statistics.median(traced) - statistics.median(untraced)
                    if traced and untraced else None)
        for name, value in layers.items():
            print(f"{name:<40} {value!r:>24}")
        print(f"tracing overhead {overhead!r} s per scene "
              f"(traced p50 over {len(traced)}, untraced p50 over {len(untraced)})")
        result.update(per_layer=layers, trace_overhead_s=overhead,
                      spans=tracer.span_records())
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
