"""The benchmark's workloads: inputs from a seed, one timed scene, output checks.

Every workload draws a pool of scene seeds from the run seed during set-up
and cycles through the pool until the run's time is used up, so the quality
metrics (taken from the first pass over the pool) depend on the seed alone,
and later passes must reproduce the first one.

- joint_c5: the library call ``optimizer.run_joint`` (50 iterations, truth
  diagnostics) on narrowband scenes of the criterion-5 shape, F=256, T=300,
  M=4. The long frame axis makes the T-length passes (update_aec,
  covariance, score_spherical) dominate.
- bench_table: ``echosep bench`` through ``cli.main`` at the criterion-6
  shape: 2.5 s scenes, F=1025, T=39, all five algorithms, 50 iterations,
  results.csv written. Many bins and a short frame axis make the per-bin
  M x M work shared by joint, bnlms_ive and ive dominate.
- desk_roundtrip: the README's user path at desk scale (5 s, F=1025, T=79):
  ``echosep simulate`` to WAVs and a manifest, then ``echosep run`` with
  unprocessed, ls_aec and joint on the saved scene. The only workload that
  writes and reads files.
"""

import contextlib
import csv
import io
import json
import math

import numpy as np
from scipy.io import wavfile

from tracer import Patcher

ITERATIONS = 50
CLI_ALGORITHMS = ("unprocessed", "ls_aec", "ive", "bnlms_ive", "joint")
DESK_ALGORITHMS = ("unprocessed", "ls_aec", "joint")


class OutputMismatch(Exception):
    """An output failed a check; the scene counts as failed."""


def _finite(name, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise OutputMismatch(f"{name}: non-finite output")


def _misalignment(h, h_true):
    return float(np.linalg.norm(h - h_true) / np.linalg.norm(h_true))


def _cli(echosep, argv):
    """Run ``echosep <argv>`` in-process; raise on a non-zero exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = echosep.cli.main([str(a) for a in argv])
    if code != 0:
        raise OutputMismatch(f"echosep {argv[0]} exited {code}: {buf.getvalue().strip()}")


class Workload:
    """A pool of scenes drawn from the run seed; subclasses run and check one."""

    pool_size = 1

    def __init__(self, echosep, seed, workdir):
        self.echosep = echosep
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.scene_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.pool_size)]

    def prepare(self):
        """Inputs made outside the timed region (repeated to time set-up)."""

    def run(self, k):
        """The timed work of one scene; returns what check() needs."""
        raise NotImplementedError

    def check(self, k, out):
        """Verify the outputs of scene k; returns its quality values."""
        raise NotImplementedError

    def close(self):
        """Undo anything set up in __init__."""


class JointC5(Workload):
    name = "joint_c5"
    pool_size = 8

    def prepare(self):
        es = self.echosep
        self.scenes = []
        for s in self.scene_seeds:
            rng = np.random.default_rng(s)
            cfg = es.scenegen.ScenarioConfig(
                mics=4, ser_db=float(rng.uniform(5, 10)), ier_db=float(rng.uniform(0, 5)),
                enr_db=float(rng.uniform(25, 35)), seed=s)
            self.scenes.append(es.scenegen.render_narrowband(cfg, n_freqs=256, n_frames=300))

    def run(self, k):
        es, scene = self.echosep, self.scenes[k]
        res = es.optimizer.run_joint(scene.mixture, scene.loudspeaker,
                                     es.optimizer.RunConfig(iterations=ITERATIONS),
                                     truth=scene.truth)
        rep = es.metrics.evaluate_run(scene, res.state, res.diagnostics.bp_scale,
                                      algorithm="joint", seed=scene.config.seed,
                                      iterations=ITERATIONS)
        return res, rep

    def check(self, k, out):
        res, rep = out
        st = res.state
        _finite("run_joint", res.s_hat, res.e, st.h, st.w, st.a, res.diagnostics.bp_scale)
        if len(res.diagnostics.records) != ITERATIONS:
            raise OutputMismatch("run_joint: wrong number of iteration records")
        _finite("off_block_db", res.diagnostics.records[-1].off_block_db)
        _finite("evaluate_run", rep.sier_db, rep.erle_aec_db, rep.sir_db, rep.ser_db)
        return {"sier_db": rep.sier_db, "erle_aec_db": rep.erle_aec_db,
                "misalignment": _misalignment(st.h, self.scenes[k].truth.echo_atf)}


class BenchTable(Workload):
    name = "bench_table"
    pool_size = 5

    def __init__(self, echosep, seed, workdir):
        super().__init__(echosep, seed, workdir)
        # Observe evaluate_run so the CSV can be matched against the reports
        # cli.main computed in this process. The observer only appends.
        self.reports = []
        original = echosep.metrics.evaluate_run

        def observed(scene, state=None, *args, **kwargs):
            rep = original(scene, state, *args, **kwargs)
            self.reports.append((rep, state, scene.truth))
            return rep

        self.observer = Patcher(echosep)
        self.observer.replace([(original, observed)])

    def close(self):
        self.observer.restore()

    def run(self, k):
        del self.reports[:]
        out = self.workdir / f"bench{k}"
        _cli(self.echosep, ["bench", "--seed", self.scene_seeds[k], "--runs", 1,
                            "--duration", 2.5, "--iterations", ITERATIONS, "--out", out])
        return out / "results.csv", list(self.reports)

    def check(self, k, out):
        csv_path, reports = out
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        columns = self.echosep.metrics.CSV_COLUMNS
        if rows[0] != list(columns):
            raise OutputMismatch("results.csv: unexpected header")
        body = rows[1:]
        if [r.algorithm for r, _, _ in reports] != list(CLI_ALGORITHMS):
            raise OutputMismatch("bench: unexpected algorithms in the reports")
        if len(body) != 2 * len(reports):
            raise OutputMismatch("results.csv: expected one run row and one mean row each")
        for (rep, _, _), run_row, mean_row in zip(reports, body, body[len(reports):]):
            row = rep.row()
            _finite("evaluate_run", *[row[c] for c in columns[2:]])
            expect = [rep.algorithm, str(self.scene_seeds[k])]
            expect += [f"{row[c]:.2f}" for c in columns[2:]]
            if run_row != expect or mean_row != [rep.algorithm, "mean"] + expect[2:]:
                raise OutputMismatch(f"results.csv row for {rep.algorithm} does not match")
        rep, state, truth = reports[-1]  # joint is last
        _finite("joint filters", state.h, state.w)
        return {"sier_db": rep.sier_db, "erle_aec_db": rep.erle_aec_db,
                "misalignment": _misalignment(state.h, truth.echo_atf)}


class DeskRoundtrip(Workload):
    name = "desk_roundtrip"
    pool_size = 5

    def run(self, k):
        scene_dir = self.workdir / f"desk{k}"
        _cli(self.echosep, ["simulate", "--seed", self.scene_seeds[k], "--duration", 5.0,
                            "--mics", 4, "--out", scene_dir])
        for algo in DESK_ALGORITHMS:
            _cli(self.echosep, ["run", "--scene", scene_dir, "--algo", algo,
                                "--iterations", ITERATIONS, "--out", scene_dir / algo])
        return scene_dir

    def check(self, k, scene_dir):
        n_samples = 5 * 16000
        diags = {}
        for algo in DESK_ALGORITHMS:
            run_dir = scene_dir / algo
            diags[algo] = json.loads((run_dir / "diagnostics.json").read_text())
            _finite(f"{algo} metrics", *[v for c, v in diags[algo]["metrics"].items()
                                         if c not in ("algorithm", "seed")])
            rate, audio = wavfile.read(run_dir / "enhanced.wav")
            if rate != 16000 or audio.shape[0] != n_samples:
                raise OutputMismatch(f"{algo}: enhanced.wav has the wrong format")
            _finite(f"{algo} enhanced.wav", audio)
        if len(diags["joint"]["iterations"]) != ITERATIONS:
            raise OutputMismatch("joint: wrong number of iteration records")
        with np.load(scene_dir / "joint" / "filters.npz") as f:
            h = f["h"]
            _finite("joint filters", h, f["w"], f["a"], f["bp_scale"])
        with np.load(scene_dir / "truth.npz") as t:
            h_true = t["echo_atf"]
        joint = diags["joint"]["metrics"]
        return {"sier_db": joint["sier_db"], "erle_aec_db": joint["erle_aec_db"],
                "misalignment": _misalignment(h, h_true)}


WORKLOADS = {w.name: w for w in (JointC5, BenchTable, DeskRoundtrip)}


def quality_matches(a, b):
    """Quality values of two passes over the same scene agree."""
    return all(math.isclose(a[k], b[k], rel_tol=1e-9, abs_tol=1e-9) for k in a)
