"""Span tracer for the benchmark's per-layer run.

The tracer wraps public echosep functions where the program looks them up:
every module attribute that is the function object (including names one
module imported from another, e.g. ``optimizer.covariance``) and every
function default argument that is it (``update_aec(score=score_spherical)``).
Each call records a span (name, start, end, parent) in memory plus per-name
call counts, inclusive time, self time and optional counters computed from
array shapes. ``uninstall`` puts every original object back, so untraced
scenes run the unwrapped code.
"""

import os
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("stft", "model", "optimizer", "scenegen", "metrics", "cli")
ROOT = "bench.scene"


def _covariance_counts(args, kwargs, result):
    # frames (..., T, M) -> (..., M, M): one complex Gram product, 8 real flops
    # per complex multiply-add; bytes are the complex128 input plus output.
    shape = np.shape(args[0] if args else kwargs["frames"])
    n_frames, m = shape[-2], shape[-1]
    batch = int(np.prod(shape[:-2], dtype=np.int64))
    return {
        "flops_computed": 8 * batch * n_frames * m * m,
        "bytes_computed": 16 * (batch * n_frames * m + batch * m * m),
    }


def _score_counts(args, kwargs, result):
    # complex128 input plus the three returned arrays
    n_in = int(np.size(args[0] if args else kwargs["s_hat"]))
    return {"bytes_computed": 16 * n_in + sum(int(a.nbytes) for a in result)}


def _run_counts(args, kwargs, result):
    records = result.diagnostics.records
    return {
        "bin_iters": result.state.n_freqs * len(records),
        "frozen_bin_iters": sum(int(r.frozen_bins) for r in records),
    }


def _wav_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, counter) for every traced function. The span name is
# "<module>.<attribute>"; per-layer metrics group these names in report().
TRACED = (
    ("optimizer", "run_joint", _run_counts),
    ("optimizer", "run_bnlms_ive", _run_counts),
    ("optimizer", "run_ive_only", _run_counts),
    ("optimizer", "run_ls_aec", None),
    ("optimizer", "update_aec", None),
    ("optimizer", "update_bse", None),
    ("optimizer", "normalize_w", None),
    ("optimizer", "backprojection_scale", None),
    ("model", "covariance", _covariance_counts),
    ("model", "score_spherical", _score_counts),
    ("model", "interference_whitener", None),
    ("model", "blocking_matrix", None),
    ("model", "cost", None),
    ("model", "score_stats", None),
    ("model", "transmission_matrix", None),
    ("model", "off_block_energy_db", None),
    ("stft", "analyze", None),
    ("stft", "synthesize", None),
    ("stft", "read_wav", _wav_counts),
    ("stft", "write_wav", _wav_counts),
    ("scenegen", "render_narrowband", None),
    ("scenegen", "save_scene", None),
    ("scenegen", "load_scene", None),
    ("metrics", "evaluate_run", None),
    ("metrics", "write_csv", None),
    ("cli", "main", None),
    ("cli", "run_algorithm", None),
)

DIAGNOSTICS = ("model.cost", "model.score_stats", "model.transmission_matrix",
               "model.off_block_energy_db")
RUNS = ("optimizer.run_joint", "optimizer.run_bnlms_ive", "optimizer.run_ive_only",
        "optimizer.run_ls_aec")
ITERATIVE_RUNS = RUNS[:3]


def namespaces(package):
    """The echosep package and its modules, where traced names are looked up."""
    return [package] + [getattr(package, name) for name in MODULES]


class Patcher:
    """Replace functions everywhere echosep looks them up, and undo it."""

    def __init__(self, package):
        self.package = package
        self.saved = []  # (owner, attribute, original value)

    def replace(self, replacements):
        """replacements: list of (original, replacement) function pairs."""
        by_id = {id(orig): new for orig, new in replacements}
        found, seen = set(), set()
        edits = []  # collected first, so wrapping one function never hides another
        for ns in namespaces(self.package):
            for attr, value in vars(ns).items():
                if id(value) in by_id:
                    edits.append((ns, attr, by_id[id(value)]))
                    found.add(id(value))
                if (isinstance(value, types.FunctionType) and value.__defaults__
                        and id(value) not in seen):
                    seen.add(id(value))
                    hits = [d for d in value.__defaults__ if id(d) in by_id]
                    if hits:
                        edits.append((value, "__defaults__", tuple(
                            by_id.get(id(d), d) for d in value.__defaults__)))
                        found.update(id(d) for d in hits)
        missing = [orig.__qualname__ for orig, _ in replacements if id(orig) not in found]
        if missing:
            raise RuntimeError(f"not reachable from echosep: {missing}")
        for owner, attr, value in edits:
            self.saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def restore(self):
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Records spans and per-name totals for calls made inside root spans."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # (name, start, end, parent index or -1)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []  # [span index, child seconds] of open spans
        self._patcher = Patcher(package)

    def install(self):
        pairs = []
        for module, attr, counter in TRACED:
            original = getattr(getattr(self.package, module), attr)
            pairs.append((original, self._wrap(f"{module}.{attr}", original, counter)))
        self._patcher.replace(pairs)

    def uninstall(self):
        self._patcher.restore()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if not self._open:  # only calls made inside a root span are recorded
                return fn(*args, **kwargs)
            self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, start, time.perf_counter())
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _enter(self):
        self._open.append([len(self.spans), 0.0])
        self.spans.append(None)

    def _exit(self, name, start, end):
        index, child_s = self._open.pop()
        parent = self._open[-1] if self._open else None
        duration = end - start
        self.spans[index] = (name, start, end, parent[0] if parent else -1)
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if parent is not None:
            parent[1] += duration

    def root(self, fn):
        """Run fn() as one root span (a scene); returns its result and seconds."""
        self._enter()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self._exit(ROOT, start, end)
        return result, end - start

    def report(self, n_scenes):
        """Per-layer metrics per traced scene, keyed by metric name."""
        n = max(n_scenes, 1)
        self_s, calls, counts = self.self_s, self.calls, self.counts

        def per(value):
            return value / n

        out = {}
        for name in ("optimizer.update_aec", "model.covariance", "model.score_spherical",
                     "stft.analyze", "stft.synthesize", "metrics.evaluate_run"):
            out[f"{name}.self_s"] = per(self_s[name])
            out[f"{name}.calls"] = per(calls[name])
        for name in ("optimizer.update_bse", "model.interference_whitener",
                     "model.blocking_matrix", "optimizer.normalize_w",
                     "optimizer.backprojection_scale", "scenegen.render_narrowband",
                     "scenegen.save_scene", "scenegen.load_scene", "metrics.write_csv",
                     "cli.main", "cli.run_algorithm"):
            out[f"{name}.self_s"] = per(self_s[name])
        out["model.covariance.flops_computed"] = per(counts["model.covariance.flops_computed"])
        out["model.covariance.bytes_computed"] = per(counts["model.covariance.bytes_computed"])
        out["model.score_spherical.bytes_computed"] = per(
            counts["model.score_spherical.bytes_computed"])
        out["optimizer.driver.self_s"] = per(sum(self_s[r] for r in RUNS))
        out["model.diagnostics.self_s"] = per(sum(self_s[d] for d in DIAGNOSTICS))
        out["model.diagnostics.calls"] = per(sum(calls[d] for d in DIAGNOSTICS))
        for run in RUNS:
            out[f"{run}.s"] = per(self.total_s[run])
        run_s = sum(self.total_s[r] for r in ITERATIVE_RUNS)
        bin_iters = sum(counts[f"{r}.bin_iters"] for r in ITERATIVE_RUNS)
        frozen = sum(counts[f"{r}.frozen_bin_iters"] for r in ITERATIVE_RUNS)
        out["optimizer.bin_iters_per_s"] = bin_iters / run_s if run_s else 0.0
        out["optimizer.active_bin_ratio"] = 1.0 - frozen / bin_iters if bin_iters else 0.0
        wav = ("stft.read_wav", "stft.write_wav")
        out["stft.wav_io.self_s"] = per(sum(self_s[w] for w in wav))
        out["stft.wav_io.bytes"] = per(sum(counts[f"{w}.bytes"] for w in wav))
        scene_s = self.total_s[ROOT]
        out["bench.unattributed.self_s"] = per(self_s[ROOT])
        out["bench.attributed_ratio"] = 1.0 - self_s[ROOT] / scene_s if scene_s else 0.0
        return out

    def span_records(self):
        """Spans as JSON-ready lists: [name, start, end, parent]."""
        return [list(s) for s in self.spans if s is not None]
