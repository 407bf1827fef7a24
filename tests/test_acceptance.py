"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria are pinned to their stated tolerances. Criterion 5 holds the
echo-path misalignment to a reference computed from each scene's truth (a
target-known least-squares oracle and its closed-form floor); that reference
is never fitted to the estimator under test.
"""

import subprocess
import sys
import time

import numpy as np

from echosep import metrics, stft
from echosep.cli import ExperimentSpec, run_bench
from echosep.model import (
    DemixState,
    blocking_matrix,
    cost,
    covariance,
    interference_whitener,
    orthogonal_constraint_atf,
    score_gauss,
    score_spherical,
)
from echosep.optimizer import (
    DataStats,
    RunConfig,
    circularity_check,
    grad_h,
    grad_w,
    moments,
    run_joint,
    run_ls_aec,
    update_aec,
)
from echosep.scenegen import ScenarioConfig, render_narrowband


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_constraint_invariants():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst_block, worst_unit = 0.0, 0.0
    per_m = 1000 // 4
    for m in (2, 3, 4, 8):
        a = crandn(rng, (per_m, m))
        b = blocking_matrix(a)
        worst_block = max(worst_block, np.max(np.abs(np.einsum("fkm,fm->fk", b, a))))
        g = crandn(rng, (per_m, m, m))
        c_ee = g @ np.conj(np.swapaxes(g, 1, 2)) + 1e-3 * np.eye(m)[None]
        w = crandn(rng, (per_m, m))
        a_oc, _ = orthogonal_constraint_atf(c_ee, w)
        resp = np.einsum("fm,fm->f", w.conj(), a_oc)
        worst_unit = max(worst_unit, np.max(np.abs(resp - 1.0)))
    elapsed = time.time() - t0
    ok = worst_block <= 1e-12 and worst_unit <= 1e-10 and elapsed < 1.0
    assert report(1, ok, f"1000 instances: max|Ba|={worst_block:.2e} (<=1e-12), "
                         f"max|w^H a - 1|={worst_unit:.2e} (<=1e-10), {elapsed:.2f}s (<1s)")


# ---------------------------------------------------------------- criterion 2

def _gradient_instance(rng, n_freqs=4, n_frames=16, m=3):
    x = crandn(rng, (n_freqs, n_frames, m))
    u = crandn(rng, (n_freqs, n_frames))
    state = DemixState.initial(n_freqs, m)
    state.h = crandn(rng, (n_freqs, m))
    state.w = crandn(rng, (n_freqs, m))
    e = x - state.h[:, None, :] * u[:, :, None]
    state.C_ee = covariance(e)
    state.a, _ = orthogonal_constraint_atf(state.C_ee, state.w)
    b = blocking_matrix(state.a)
    z = np.einsum("fkm,ftm->ftk", b, e)
    state.R, _ = interference_whitener(state.a, covariance(z))
    return x, u, state


def _fd_wirtinger(fun, z, eps=1e-5):
    g = np.zeros_like(z)
    flat, gflat = z.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        jp = fun(z)
        flat[i] = orig - eps
        jm = fun(z)
        flat[i] = orig + 1j * eps
        jip = fun(z)
        flat[i] = orig - 1j * eps
        jim = fun(z)
        flat[i] = orig
        gflat[i] = 0.5 * ((jp - jm) / (2 * eps) + 1j * (jip - jim) / (2 * eps))
    return g


def test_criterion_2_gradient_oracle():
    rng = np.random.default_rng(1002)
    t0 = time.time()
    worst_h, worst_w, worst_score = 0.0, 0.0, 0.0
    for _ in range(50):
        x, u, state = _gradient_instance(rng)

        def cost_of_h(h):
            e = x - h[:, None, :] * u[:, :, None]
            s = np.einsum("fm,ftm->ft", state.w.conj(), e)
            return cost(state, covariance(e), s)

        fd_h = _fd_wirtinger(cost_of_h, state.h.copy())
        e = x - state.h[:, None, :] * u[:, :, None]
        s = np.einsum("fm,ftm->ft", state.w.conj(), e)
        mom = moments(x, u, state)
        g_h = grad_h(state, DataStats.of(x, u), mom, normalize=False)
        worst_h = max(worst_h, np.linalg.norm(fd_h - g_h) / np.linalg.norm(g_h))

        def contrast_of_w(w):
            sh = np.einsum("fm,ftm->ft", w.conj(), e)
            return float(np.mean(2.0 * np.sqrt(np.sum(np.abs(sh) ** 2, axis=0))))

        fd_w = _fd_wirtinger(contrast_of_w, state.w.copy())
        term = grad_w(state, mom, normalize=False) + state.a
        worst_w = max(worst_w, np.linalg.norm(fd_w - term) / np.linalg.norm(term))

        # the score's curvature rho_f against the frame mean of the central-
        # difference d phi_ft / d s_ft* at a few random bins
        _, rho = score_spherical(s)
        for _ in range(4):
            f = int(rng.integers(s.shape[0]))
            rng.integers(s.shape[1])  # the frame draw keeps rng 1002's instances

            def phi_ft(v, t):
                return score_spherical(v)[0][f, t]

            eps = 1e-5
            fd_conj = np.zeros(s.shape[1], dtype=complex)
            for t in range(s.shape[1]):
                s_re = s.copy(); s_re[f, t] += eps
                s_rm = s.copy(); s_rm[f, t] -= eps
                s_ip = s.copy(); s_ip[f, t] += 1j * eps
                s_im = s.copy(); s_im[f, t] -= 1j * eps
                d_re = (phi_ft(s_re, t) - phi_ft(s_rm, t)) / (2 * eps)
                d_im = (phi_ft(s_ip, t) - phi_ft(s_im, t)) / (2 * eps)
                fd_conj[t] = 0.5 * (d_re + 1j * d_im)
            fd_rho = np.mean(fd_conj)
            worst_score = max(worst_score, abs(fd_rho - rho[f]) / max(abs(rho[f]), 1e-9))
    elapsed = time.time() - t0
    ok = worst_h <= 1e-5 and worst_w <= 1e-5 and worst_score <= 1e-6 and elapsed < 10.0
    assert report(2, ok, f"50 instances: grad_h rel={worst_h:.2e} (<=1e-5), "
                         f"grad_w term rel={worst_w:.2e} (<=1e-5), "
                         f"score curvature rel={worst_score:.2e} (<=1e-6), {elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_bnlms_reduction():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(10):
        n_freqs, n_frames = 8, 64
        u = crandn(rng, (n_freqs, n_frames))
        x = crandn(rng, (n_freqs, n_frames, 1)) * 2.0
        h_ls = (np.mean(x[:, :, 0] * u.conj(), axis=1)
                / np.mean(np.abs(u) ** 2, axis=1))[:, None]
        state = DemixState.initial(n_freqs, 1)
        state.h = 5.0 * crandn(rng, (n_freqs, 1))
        state.R = np.zeros((n_freqs, 1, 1), dtype=complex)
        h_one, ok_mask = update_aec(state, x, u, DataStats.of(x, u), score=score_gauss)
        assert ok_mask.all()
        worst = max(worst, np.linalg.norm(h_one - h_ls) / np.linalg.norm(h_ls))
    ok = worst <= 1e-10
    assert report(3, ok, f"one Newton step vs closed-form LS: rel err={worst:.2e} (<=1e-10)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_circularity_justification():
    rng = np.random.default_rng(1004)
    u = crandn(rng, (256, 1000))
    ratios = circularity_check(u)
    frac = float(np.mean(ratios < 0.15))
    ok = frac >= 0.95
    assert report(4, ok, f"pseudo-power ratio < 0.15 in {100*frac:.1f}% of bins (>=95%)")


# ---------------------------------------------------------------- criterion 5

def _echo_path_references(scene):
    """Target-known oracle misalignment and its closed-form floor for one scene.

    The oracle regresses the mixture minus the true target image on the
    loudspeaker signal, bin by bin: it is least squares that is told the
    target. What remains in its residual is interference plus noise, with
    covariance Sigma_f = g_i^2 G_f G_f^H + g_n^2 I. Every channel shares the
    regressor u, so weighting by Sigma_f gains nothing over plain least
    squares (Zellner's seemingly unrelated regressions, 1962), and the
    expected squared error is sum_f tr Sigma_f / (T P_u,f). Both values are
    computed from the scene's truth, never from the estimator under test.
    """
    u = scene.loudspeaker
    n_frames = u.shape[1]
    echo_atf = scene.truth.echo_atf
    p_u = np.mean(np.abs(u) ** 2, axis=1)
    h_oracle = np.mean((scene.mixture - scene.images["soi"]) * u.conj()[:, :, None],
                       axis=1) / p_u[:, None]
    oracle = np.linalg.norm(h_oracle - echo_atf) / np.linalg.norm(echo_atf)
    g = scene.truth.bg_mix
    trace_sigma = (scene.gains["interference"] ** 2 * np.sum(np.abs(g) ** 2, axis=(1, 2))
                   + scene.gains["noise"] ** 2 * g.shape[1])
    floor = np.sqrt(np.sum(trace_sigma / (n_frames * p_u))) / np.linalg.norm(echo_atf)
    return float(oracle), float(floor)


def test_criterion_5_model_matched_convergence():
    """Joint estimation converges on model-matched scenes and beats separate updates.

    The echo-path misalignment is held to the statistical floor of the
    scene, not to a fixed number: with Gaussian interferers and one shared
    regressor, no estimator gets below the target-known oracle of
    `_echo_path_references`, which sits near 0.08 at T=300. The clauses:

    - joint / oracle, median over scenes, <= 1.25. The paper's claim allows
      a price for not knowing the target but does not set it; 1.25 is a
      chosen margin.
    - joint median <= 0.7 x batch least-squares median: the paper's
      joint-versus-individual claim, in the form of the unit test
      `test_update_aec_model_matched_misalignment`.
    - oracle / closed-form floor, median, within [0.9, 1.1]: guards the
      reference itself, so that an oracle drifting up towards least squares
      cannot loosen the first clause.
    - SIER gain median >= 10 dB, off-block median <= -20 dB, runtime < 60 s.
    """
    t0 = time.time()
    rng = np.random.default_rng(1005)
    misal, misal_ls, refs, sier_gain, off_block = [], [], [], [], []
    for seed in range(20):
        cfg = ScenarioConfig(
            mics=4,
            ser_db=float(rng.uniform(5, 10)),
            ier_db=float(rng.uniform(0, 5)),
            enr_db=float(rng.uniform(25, 35)),
            seed=seed,
        )
        scene = render_narrowband(cfg, n_freqs=256, n_frames=300)
        res = run_joint(scene.mixture, scene.loudspeaker, RunConfig(iterations=50),
                        truth=scene.truth)
        echo_atf = scene.truth.echo_atf
        misal.append(np.linalg.norm(res.state.h - echo_atf) / np.linalg.norm(echo_atf))
        _, h_ls = run_ls_aec(scene.mixture, scene.loudspeaker)
        misal_ls.append(np.linalg.norm(h_ls - echo_atf) / np.linalg.norm(echo_atf))
        refs.append(_echo_path_references(scene))
        rep_un = metrics.evaluate_run(scene, algorithm="unprocessed", seed=seed)
        rep_j = metrics.evaluate_run(scene, res.state, res.diagnostics.bp_scale,
                                     algorithm="joint", seed=seed)
        sier_gain.append(rep_j.sier_db - rep_un.sier_db)
        off_block.append(res.diagnostics.records[-1].off_block_db)
    elapsed = time.time() - t0
    misal = np.array(misal)
    oracle, floor = np.array(refs).T
    med_mis = float(np.median(misal))
    med_ls = float(np.median(misal_ls))
    med_oracle = float(np.median(oracle))
    med_floor = float(np.median(floor))
    med_ratio = float(np.median(misal / oracle))
    med_ref = float(np.median(oracle / floor))
    med_gain = float(np.median(sier_gain))
    med_off = float(np.median(off_block))
    ok_ratio = med_ratio <= 1.25
    ok_ls = med_mis <= 0.7 * med_ls
    ok_ref = 0.9 <= med_ref <= 1.1
    ok_gain = med_gain >= 10.0
    ok_off = med_off <= -20.0
    ok_time = elapsed < 60.0
    ok = ok_ratio and ok_ls and ok_ref and ok_gain and ok_off and ok_time

    def mark(flag):
        return "PASS" if flag else "FAIL"

    assert report(
        5, ok,
        f"20 scenes (M=4, F=256, T=300): misalignment medians joint={med_mis:.4f}, "
        f"oracle={med_oracle:.4f}, floor={med_floor:.4f}, LS={med_ls:.4f}; "
        f"joint/oracle median={med_ratio:.3f} (<=1.25: {mark(ok_ratio)}), "
        f"joint/LS={med_mis / med_ls:.3f} (<=0.7: {mark(ok_ls)}), "
        f"oracle/floor median={med_ref:.3f} (in [0.9, 1.1]: {mark(ok_ref)}), "
        f"SIER gain median={med_gain:.1f} dB (>=10: {mark(ok_gain)}), "
        f"off-block median={med_off:.1f} dB (<=-20: {mark(ok_off)}), "
        f"runtime={elapsed:.1f}s (<60: {mark(ok_time)})"
    )


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_table_ordering():
    spec = ExperimentSpec(seed=2000, runs=20, duration_s=2.5, iterations=50)
    reports = run_bench(spec)

    def mean_of(algo, field):
        vals = [getattr(r, field) for r in reports if r.algorithm == algo]
        return float(np.mean(vals))

    sier = {a: mean_of(a, "sier_db") for a in
            ("joint", "bnlms_ive", "ls_aec", "ive", "unprocessed")}
    erle_j = mean_of("joint", "erle_aec_db")
    erle_b = mean_of("bnlms_ive", "erle_aec_db")
    ok_order = (sier["joint"] > sier["bnlms_ive"]
                > max(sier["ls_aec"], sier["ive"])
                > sier["unprocessed"])
    ok_erle = erle_j > erle_b
    ok = ok_order and ok_erle
    assert report(6, ok, "mean SIER: " + " ".join(
        f"{a}={sier[a]:.2f}" for a in ("joint", "bnlms_ive", "ls_aec", "ive", "unprocessed"))
        + f"; ERLE_aec joint={erle_j:.2f} > bnlms_ive={erle_b:.2f}: "
        + ("yes" if ok_erle else "no"))


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_stft_round_trip():
    rng = np.random.default_rng(1007)
    spec = stft.FrameSpec.default(2048, 1024, 16000)
    sig = rng.standard_normal((4 * 16000, 2))
    rec = stft.synthesize(stft.analyze(sig, spec), spec, length=len(sig))
    lo, hi = spec.frame_len, len(sig) - spec.frame_len
    rt_err = np.linalg.norm(rec[lo:hi] - sig[lo:hi]) / np.linalg.norm(sig[lo:hi])

    y = rng.standard_normal(sig.shape)
    lin = stft.analyze(2.0 * sig - 0.5 * y, spec)
    lin_ref = 2.0 * stft.analyze(sig, spec) - 0.5 * stft.analyze(y, spec)
    lin_err = np.max(np.abs(lin - lin_ref)) / np.max(np.abs(lin_ref))

    spg = stft.analyze(sig[:, 0], spec)
    padded = np.concatenate(
        [sig[:, 0], np.zeros((spg.shape[1] - 1) * spec.hop + spec.frame_len - len(sig))]
    )
    spectral, direct = 0.0, 0.0
    for t in range(spg.shape[1]):
        seg = padded[t * spec.hop:t * spec.hop + spec.frame_len] * spec.window
        direct += np.sum(seg**2)
        mag2 = np.abs(spg[:, t, 0]) ** 2
        spectral += (mag2[0] + mag2[-1] + 2 * mag2[1:-1].sum()) / spec.frame_len
    par_err = abs(spectral - direct) / direct

    ok = rt_err <= 1e-10 and lin_err <= 1e-12 and par_err <= 1e-6
    assert report(7, ok, f"round trip={rt_err:.2e} (<=1e-10), linearity={lin_err:.2e} "
                         f"(<=1e-12), Parseval={par_err:.2e} (<=1e-6)")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_bench_determinism(tmp_path):
    args = ["bench", "--runs", "2", "--seed", "7", "--duration", "0.8",
            "--frame", "512", "--hop", "256", "--mics", "3", "--iterations", "5"]
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "echosep.cli", *args, "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    assert report(8, ok, f"two cmd_bench executions: CSV byte-identical={ok} "
                         f"({len(outputs[0])} bytes)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_desk_scale_runtime():
    cfg = ScenarioConfig(mics=4, seed=42, duration_s=5.0)
    spec = stft.FrameSpec.default(2048, 1024, 16000)
    scene = render_narrowband(cfg, frame_spec=spec)
    assert scene.mixture.shape[0] == 1025
    t0 = time.time()
    run_joint(scene.mixture, scene.loudspeaker, RunConfig(iterations=50))
    elapsed = time.time() - t0
    ok = elapsed < 30.0
    assert report(9, ok, f"50-iteration joint run on 5s/4ch/16kHz (F=1025, "
                         f"T={scene.mixture.shape[1]}): {elapsed:.1f}s (<30s)")
