"""Newton updates, iteration driver, baselines, and their invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from echosep import model, optimizer, scenegen
from echosep.model import (
    DEFAULT_LOADING,
    DemixState,
    NumericsError,
    blocking_matrix,
    cost,
    covariance,
    interference_whitener,
    load_diagonal,
    loaded_inverse,
    score_spherical,
)
from echosep.optimizer import (
    DataStats,
    RunConfig,
    backprojection_scale,
    grad_w,
    moments,
    normalize_w,
    run_bnlms_ive,
    run_ive_only,
    run_joint,
    run_ls_aec,
    run_unprocessed,
    update_aec,
    update_bse,
    _update_statistics,
)
from echosep.model import score_stats
from formulas import (background_covariance, circularity_check, grad_h, hessian_h,
                      refresh_batched, score_gauss)


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def echo_noise_scene(rng, n_freqs=64, n_frames=400, m=3, enr_db=30.0):
    """Echo plus weak sensor noise, no near-end sources."""
    u = scenegen._spherical_nongauss(rng, n_freqs, n_frames)
    echo_atf = crandn(rng, (n_freqs, m))
    echo = echo_atf[:, None, :] * u[:, :, None]
    noise = crandn(rng, (n_freqs, n_frames, m))
    noise *= np.sqrt(np.mean(np.abs(echo[:, :, 0]) ** 2)
                     * 10 ** (-enr_db / 10) / np.mean(np.abs(noise[:, :, 0]) ** 2))
    return echo + noise, u, echo_atf, echo


# ------------------------------------------------------------ gradients

def test_grad_h_zero_without_excitation():
    rng = np.random.default_rng(0)
    state = DemixState.initial(4, 3)
    e = crandn(rng, (4, 10, 3))
    state.C_ee = covariance(e)
    u = np.zeros((4, 10), dtype=complex)
    g = grad_h(state, DataStats.of(e, u), moments(e, u, state))  # h = 0: x = e
    assert np.all(g == 0)


def test_grad_h_zero_at_exact_cancellation():
    rng = np.random.default_rng(1)
    state = DemixState.initial(4, 3)
    u = crandn(rng, (4, 10))
    e = np.zeros((4, 10, 3), dtype=complex)
    state.C_ee = covariance(e)
    g = grad_h(state, DataStats.of(e, u), moments(e, u, state))  # h = 0: x = e, s = 0
    assert np.all(g == 0)


# -------------------------------------------------------------- hessian

def test_hessian_single_channel_gaussian_reduces_to_u_power():
    rng = np.random.default_rng(2)
    u = crandn(rng, (6, 50))
    state = DemixState.initial(6, 1)
    s = crandn(rng, (6, 50))
    state.C_ee = covariance(s[:, :, None])
    stats = score_stats(s, score=score_gauss)
    hess = hessian_h(state, DataStats.of(s[:, :, None], u), stats, normalize=False)
    np.testing.assert_allclose(hess[:, 0, 0], np.mean(np.abs(u) ** 2, axis=1), rtol=1e-12)


def test_hessian_zero_without_excitation():
    state = DemixState.initial(3, 2)
    state.C_ee = np.zeros((3, 2, 2), dtype=complex)
    s = np.ones((3, 10), dtype=complex)
    stats = score_stats(s)
    u = np.zeros((3, 10), dtype=complex)
    hess = hessian_h(state, DataStats.of(np.zeros((3, 10, 2), dtype=complex), u), stats)
    assert np.all(hess == 0)


def _instance(rng, n_freqs=4, n_frames=16, m=3):
    from echosep.model import orthogonal_constraint_atf

    x = crandn(rng, (n_freqs, n_frames, m))
    u = crandn(rng, (n_freqs, n_frames))
    state = DemixState.initial(n_freqs, m)
    state.h = crandn(rng, (n_freqs, m))
    state.w = crandn(rng, (n_freqs, m))
    e = x - state.h[:, None, :] * u[:, :, None]
    state.C_ee = load_diagonal(covariance(e), 1e-6)
    state.a, _ = orthogonal_constraint_atf(state.C_ee, state.w)
    return x, u, state


def test_hessian_hermitian_for_real_curvature_weight():
    rng = np.random.default_rng(3)
    x, u, state = _instance(rng)
    s = crandn(rng, (4, 16))
    stats = score_stats(s)  # spherical score: nu, rho real up to rounding
    hess = hessian_h(state, DataStats.of(x, u), stats)
    assert np.max(np.abs(hess - np.conj(np.swapaxes(hess, 1, 2)))) <= 1e-12


# ---------------------------------------------------------- circularity

def test_circularity_real_constant_is_one():
    u = np.ones((3, 100), dtype=complex)
    np.testing.assert_allclose(circularity_check(u), np.ones(3), rtol=1e-14)


def test_circularity_circular_gaussian_small():
    rng = np.random.default_rng(4)
    u = crandn(rng, (128, 1000))
    ratios = circularity_check(u)
    # sample pseudo-power of a circular signal decays as 1/sqrt(T)
    assert np.median(ratios) < 0.05
    assert np.mean(ratios < 0.15) >= 0.95


def test_circularity_speech_like_report_only():
    rng = np.random.default_rng(5)
    u = scenegen._spherical_nongauss(rng, 32, 300)
    ratios = circularity_check(u)
    assert ratios.shape == (32,)
    assert np.all(np.isfinite(ratios))


# ------------------------------------------------------------ update_aec

def test_update_aec_single_channel_one_step_least_squares():
    rng = np.random.default_rng(6)
    n_freqs, n_frames = 16, 120
    u = crandn(rng, (n_freqs, n_frames))
    echo_atf = crandn(rng, (n_freqs, 1))
    x = echo_atf[:, None, :] * u[:, :, None] + 0.5 * crandn(rng, (n_freqs, n_frames, 1))
    h_ls = (np.mean(x[:, :, 0] * u.conj(), axis=1)
            / np.mean(np.abs(u) ** 2, axis=1))[:, None]
    state = DemixState.initial(n_freqs, 1)
    state.h = 3.0 * crandn(rng, (n_freqs, 1))  # arbitrary start
    h_new, ok = update_aec(state, x, u, DataStats.of(x, u), score=score_gauss)
    assert ok.all()
    assert np.linalg.norm(h_new - h_ls) <= 1e-10 * np.linalg.norm(h_ls)


def test_update_aec_stationary_at_exact_cancellation():
    rng = np.random.default_rng(7)
    u = crandn(rng, (5, 30))
    echo_atf = crandn(rng, (5, 3))
    x = echo_atf[:, None, :] * u[:, :, None]
    state = DemixState.initial(5, 3)
    state.h = echo_atf.copy()
    h_new, _ = update_aec(state, x, u, DataStats.of(x, u))
    np.testing.assert_array_equal(h_new, echo_atf)


def test_update_aec_model_matched_misalignment():
    # long scene so the estimate settles well below the 5% mark, and far
    # below the plain least-squares estimate on the same data
    cfg = scenegen.ScenarioConfig(mics=4, ser_db=7.5, ier_db=2.5, enr_db=30.0, seed=21)
    scene = scenegen.render_narrowband(cfg, n_freqs=128, n_frames=1200)
    res = run_joint(scene.mixture, scene.loudspeaker, RunConfig(iterations=50))
    echo_atf = scene.truth.echo_atf
    mis = np.linalg.norm(res.state.h - echo_atf) / np.linalg.norm(echo_atf)
    h_ls = run_ls_aec(scene.mixture, scene.loudspeaker).state.h
    mis_ls = np.linalg.norm(h_ls - echo_atf) / np.linalg.norm(echo_atf)
    assert mis <= 0.05
    assert mis < 0.7 * mis_ls


# ------------------------------------------------------------ update_bse

def test_update_bse_fixed_point_when_gradient_vanishes():
    rng = np.random.default_rng(8)
    _, _, state = _instance(rng)
    e = crandn(rng, (4, 16, 3))
    s = np.einsum("fm,ftm->ft", state.w.conj(), e)
    phi, _, nu = score_spherical(s)
    state.a = np.mean(e * phi[:, :, None], axis=1) / nu[:, None]  # forces zero direction
    w_new, ok = update_bse(state, moments(e, np.zeros((4, 16), dtype=complex), state),
                           loaded_inverse(state.C_ee, DEFAULT_LOADING)[0])
    assert ok.all()
    np.testing.assert_allclose(w_new, state.w, atol=1e-12)


def test_update_bse_single_channel_is_passthrough():
    rng = np.random.default_rng(9)
    e = crandn(rng, (4, 60, 1))
    state = DemixState.initial(4, 1)
    state.C_ee = covariance(e)
    state.a = np.conj(1.0 / state.w)
    w_new, _ = update_bse(state, moments(e, np.zeros((4, 60), dtype=complex), state),
                          loaded_inverse(state.C_ee, DEFAULT_LOADING)[0])
    np.testing.assert_allclose(w_new, state.w, atol=1e-10)
    state.w = w_new
    normalize_w(state)
    s = np.einsum("fm,ftm->ft", state.w.conj(), e)
    np.testing.assert_allclose(np.mean(np.abs(s) ** 2, axis=1), np.ones(4), rtol=1e-10)


def test_update_bse_two_source_extraction():
    # M=2 toy with known mixing: one broadband non-Gaussian target plus one
    # Gaussian interferer; the converged response must null the interferer
    rng = np.random.default_rng(10)
    n_freqs, n_frames, m = 48, 500, 2
    s = scenegen._spherical_nongauss(rng, n_freqs, n_frames)
    q = crandn(rng, (n_freqs, n_frames, 1))
    a_soi = crandn(rng, (n_freqs, m))
    bg = crandn(rng, (n_freqs, m, 1))
    x = a_soi[:, None, :] * s[:, :, None] + np.einsum("fmk,ftk->ftm", bg, q)
    x += 1e-3 * crandn(rng, (n_freqs, n_frames, m))
    res = run_ive_only(x, RunConfig(iterations=60))
    resp_soi = np.einsum("fm,fm->f", res.state.w.conj(), a_soi)
    resp_bg = np.einsum("fm,fm->f", res.state.w.conj(), bg[:, :, 0])
    eps = np.abs(resp_bg / resp_soi)
    assert np.median(eps) <= 0.05


def test_shipped_updates_equal_the_checked_formulas():
    """update_aec and update_bse take the steps built from grad_h, hessian_h, grad_w.

    Criterion 2 checks grad_h and grad_w against finite differences; the two
    updates are batched solves applied to those same functions, and this
    ties their steps to them on a random M=3 instance. hessian_h is the
    dense curvature with J's R, which update_aec never forms.
    """
    rng = np.random.default_rng(24)
    x, u, state = _instance(rng)
    data = DataStats.of(x, u)
    mom = moments(x, u, state)

    h_new, ok = update_aec(state, x, u, data)
    assert ok.all()
    step_h = np.linalg.solve(hessian_h(state, data, mom),
                             -grad_h(state, data, mom)[:, :, None])[:, :, 0]
    np.testing.assert_allclose(h_new - state.h, step_h, rtol=1e-10)

    w_new, ok = update_bse(state, mom, loaded_inverse(state.C_ee, DEFAULT_LOADING)[0])
    assert ok.all()
    nu_c, rho_c = mom.nu.conj(), mom.rho.conj()
    step_w = np.linalg.solve(load_diagonal(state.C_ee),
                             grad_w(state, mom)[:, :, None])[:, :, 0]
    np.testing.assert_allclose(w_new - state.w, (nu_c / (nu_c - rho_c))[:, None] * step_w,
                               rtol=1e-10)


def test_update_aec_with_given_moments_equals_its_own_pass():
    """The driver hands update_aec the moments of the previous diagnostics pass."""
    rng = np.random.default_rng(26)
    x, u, state = _instance(rng)
    data = DataStats.of(x, u)
    _update_statistics(state, data)
    h_own, ok_own = update_aec(state, x, u, data)
    h_given, ok_given = update_aec(state, x, u, data, mom=moments(x, u, state))
    np.testing.assert_array_equal(h_given, h_own)
    np.testing.assert_array_equal(ok_given, ok_own)


@pytest.mark.parametrize("dead", [0.0, np.nan])
def test_a_bin_without_a_loaded_inverse_is_inactive_and_keeps_its_w(dead):
    """A bin whose C_ee is zero or not finite is left inactive, and update_bse keeps its w.

    _update_statistics sets the mask; update_bse gives that bin ok False, and
    the other bins take their usual step. h = h_LS in bin 1 puts its C_ee at
    the residual covariance C_LS, which the test then replaces.
    """
    rng = np.random.default_rng(24)
    x, u, state = _instance(rng)
    data = DataStats.of(x, u)
    state.h[1] = data.h_ls[1]
    mom = moments(x, u, state)
    w_usual, ok_usual = update_bse(state, mom, _update_statistics(state, data))
    data.C_ls[1] = dead
    w_new, ok = update_bse(state, mom, _update_statistics(state, data))
    assert ok_usual.all()
    np.testing.assert_array_equal(state.active, [True, False, True, True])
    np.testing.assert_array_equal(ok, state.active)
    np.testing.assert_array_equal(w_new[1], state.w[1])
    np.testing.assert_array_equal(w_new[[0, 2, 3]], w_usual[[0, 2, 3]])


def test_a_pass_without_a_loudspeaker_equals_one_given_zeros():
    """moments(x, None) forms no loudspeaker term; y, nu, rho and E[e phi] are those of u = 0."""
    rng = np.random.default_rng(26)
    x, u, state = _instance(rng)
    for y in (None, moments(x, u, state).y):
        bare, zeros = moments(x, None, state, y=y), moments(x, np.zeros_like(u), state, y=y)
        for name in ("y", "nu", "rho", "e_phi"):
            np.testing.assert_array_equal(getattr(bare, name), getattr(zeros, name))


def test_update_aec_freezes_bin_with_vanishing_curvature():
    """A bin whose rho is 0 has no echo-path curvature along w: it stays at h, frozen."""
    rng = np.random.default_rng(24)
    x, u, state = _instance(rng)
    data = DataStats.of(x, u)

    def score_flat_bin0(s):
        phi, rho, nu = score_spherical(s)
        rho[0] = 0.0
        return phi, rho, nu

    h_usual, ok_usual = update_aec(state, x, u, data)
    h_new, ok = update_aec(state, x, u, data, score=score_flat_bin0)
    assert ok_usual.all()
    assert not ok[0] and ok[1:].all()
    np.testing.assert_array_equal(h_new[0], state.h[0])
    np.testing.assert_array_equal(h_new[1:], h_usual[1:])


@pytest.mark.parametrize("dead", ["normalizer", "curvature"])
def test_update_bse_freezes_bin_with_a_step_that_is_not_finite(dead):
    """nu = 0 or nu = rho in bin 0 leaves its step not finite: it keeps its w, with no warning."""
    rng = np.random.default_rng(24)
    x, u, state = _instance(rng)
    mom = moments(x, u, state)
    inverse = loaded_inverse(state.C_ee, DEFAULT_LOADING)[0]
    w_usual, _ = update_bse(state, mom, inverse)
    mom.nu, mom.rho = mom.nu.copy(), mom.rho.copy()
    if dead == "normalizer":
        mom.nu[0] = 0.0
    else:
        mom.rho[0] = mom.nu[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_new, ok = update_bse(state, mom, inverse)
    assert not ok[0] and ok[1:].all()
    np.testing.assert_array_equal(w_new[0], state.w[0])
    np.testing.assert_array_equal(w_new[1:], w_usual[1:])


def test_moments_reuse_the_beamformed_microphones_after_an_echo_step():
    """After a step that moves only h, the pass given the old y = w^H x equals a fresh one."""
    rng = np.random.default_rng(27)
    x, u, state = _instance(rng)
    data = DataStats.of(x, u)
    _update_statistics(state, data)
    y = moments(x, u, state).y
    state.h, _ = update_aec(state, x, u, data)
    fresh, reused = moments(x, u, state), moments(x, u, state, y=y)
    for name in ("y", "nu", "rho", "e_phi", "u_phi"):  # s = y - (w^H h) u is a local
        np.testing.assert_array_equal(getattr(reused, name), getattr(fresh, name))


def test_refresh_freezes_bins_the_whitener_would_reject():
    """A bin whose loaded C_ee has no inverse is frozen, as the whitener rejects it.

    Cancellation can leave the closed-form C_ee indefinite on echo-only bins;
    the loaded inverse meets a pivot without a positive real part there, and
    the background covariance has a negative trace.
    """
    c_xx = np.array([np.eye(3), np.diag([1.0, -1e-3, -1e-3])], dtype=complex)
    data = DataStats(C_xx=c_xx, r_xu=np.zeros((2, 3), dtype=complex), P_u=np.zeros(2))
    state = DemixState.initial(2, 3)
    _update_statistics(state, data)
    _, whitener_ok = interference_whitener(state.a, background_covariance(state.a, state.C_ee))
    np.testing.assert_array_equal(state.active, [True, False])
    np.testing.assert_array_equal(whitener_ok, state.active)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_closed_form_statistics_equal_dense_passes(m):
    """C_ee, E[e phi] and E[e u*] from the data statistics equal passes over e."""
    rng = np.random.default_rng(25 + m)
    x, u, state = _instance(rng, m=m)
    data = DataStats.of(x, u)
    _update_statistics(state, data)
    e = x - state.h[:, None, :] * u[:, :, None]
    s = np.einsum("fm,ftm->ft", state.w.conj(), e)
    phi, _, _ = score_spherical(s)
    mom = moments(x, u, state)
    np.testing.assert_allclose(state.C_ee, covariance(e), rtol=1e-10)
    np.testing.assert_allclose(mom.e_phi, np.mean(e * phi[:, :, None], axis=1), rtol=1e-10)
    np.testing.assert_allclose(mom.u_phi, np.mean(u * phi, axis=1), rtol=1e-10)
    np.testing.assert_allclose(mom.nu, score_stats(s).nu, rtol=1e-10)
    np.testing.assert_allclose(mom.rho, score_stats(s).rho, rtol=1e-10)
    np.testing.assert_allclose(data.error_cross(state.h),
                               np.mean(e * u.conj()[:, :, None], axis=1), rtol=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_refresh_on_rows_equals_the_batched_closed_forms(m):
    """The refresh's a equals the batched reference's, and it narrows the mask by its ok.

    Among 12 random bins sit a zeroed C_ee, a C_ee with w in its null space
    (w^H C_ee w = 0) and a NaN C_ee; those three keep their a and freeze. An
    indefinite C_ee has a non-degenerate w^H C_ee w but no loaded inverse: it
    takes its new a and freezes, as _update_statistics starts the mask from
    the loaded inverse's ok.
    """
    rng = np.random.default_rng(60 + m)
    c_ee = covariance(crandn(rng, (12, 30, m)))
    w, a_old = crandn(rng, (12, m)), crandn(rng, (12, m))
    c_ee[3] = 0.0
    c_ee[5] = np.diag(np.r_[0.0, np.ones(m - 1)])
    w[5] = np.eye(m)[0]
    c_ee[8, 0, 1] = np.nan
    c_ee[10] = np.diag(np.r_[-1.0, 2.0 * np.ones(m - 1)])
    _, solvable = loaded_inverse(c_ee, DEFAULT_LOADING)
    state = DemixState(h=np.zeros((12, m), dtype=complex), w=w, a=a_old.copy(), C_ee=c_ee,
                       active=solvable.copy())
    optimizer._refresh_beamformer(state)
    a, ok = refresh_batched(c_ee, w, a_old)
    np.testing.assert_array_equal(ok, ~np.isin(np.arange(12), [3, 5, 8]))
    np.testing.assert_array_equal(solvable, ~np.isin(np.arange(12), [3, 8, 10]))
    np.testing.assert_array_equal(state.active, ok & solvable)
    np.testing.assert_array_equal(state.a[[3, 5, 8]], a_old[[3, 5, 8]])
    np.testing.assert_allclose(state.a, a, rtol=1e-13, atol=0)


def _error_inverse_data(rng, m=3, n_frames=60):
    """DataStats over eight bins: four random, then silent, echo-only, echo-only, no loudspeaker.

    Returns the data and an h: a random offset from h_LS everywhere but in
    bin 6, where h = h_LS leaves the noise-free echo at the dead-bin floor.
    In bin 5 the same kind of echo, left at a random offset, has a rank-one
    C_ee. Bin 7 has microphone signals but P_u = 0.
    """
    x = crandn(rng, (8, n_frames, m))
    u = crandn(rng, (8, n_frames))
    x[:4] += crandn(rng, (4, m))[:, None, :] * u[:4, :, None]
    x[4], u[4] = 0.0, 0.0
    x[5:7] = crandn(rng, (2, m))[:, None, :] * u[5:7, :, None]
    u[7] = 0.0
    data = DataStats.of(x, u)
    h = data.h_ls + crandn(rng, (8, m))
    h[6] = data.h_ls[6]
    return data, h


@pytest.mark.parametrize("m", [2, 3, 4])
def test_loaded_inverse_of_c_ee_drops_the_dead_bins(m):
    """The BSE inverse, loaded_inverse of C_ee(h), drops exactly the dead bins.

    The silent bin and the bin at the dead-bin floor have C_ee = 0 and drop
    out; the rank-one echo-only bin and the bin without excitation do not.
    Where ok, the inverse is finite and inverts the loaded C_ee.
    """
    rng = np.random.default_rng(40 + m)
    data, h = _error_inverse_data(rng, m=m)
    c_ee = data.error_covariance(h)
    for loading in (DEFAULT_LOADING, 1e-3):
        inverse, ok = loaded_inverse(c_ee, loading)
        np.testing.assert_array_equal(ok, [True] * 4 + [False, True, False, True])
        np.testing.assert_array_equal(inverse[~ok], 0.0)
        loaded = load_diagonal(c_ee[ok], loading)
        cond = np.linalg.cond(loaded)
        residual = np.linalg.norm(loaded @ inverse[ok] - np.eye(m), axis=(1, 2))
        assert np.all(residual <= 100 * np.finfo(float).eps * cond)


# ------------------------------------------------------------- normalize

def test_normalize_identity_covariance():
    state = DemixState.initial(1, 2)
    state.w = np.array([[2.0, 0.0]], dtype=complex)
    state.C_ee = np.eye(2, dtype=complex)[None]
    normalize_w(state)
    np.testing.assert_allclose(state.w, [[1.0, 0.0]])


def test_normalize_gives_unit_output_power_and_is_idempotent():
    rng = np.random.default_rng(11)
    e = crandn(rng, (6, 80, 3))
    state = DemixState.initial(6, 3)
    state.w = crandn(rng, (6, 3))
    state.C_ee = covariance(e)
    normalize_w(state)
    w_once = state.w.copy()
    s = np.einsum("fm,ftm->ft", state.w.conj(), e)
    power = np.mean(np.abs(s) ** 2, axis=1)
    np.testing.assert_allclose(power, np.ones(6), rtol=1e-10)
    normalize_w(state)
    np.testing.assert_allclose(state.w, w_once, rtol=1e-10)


# ----------------------------------------------------------- backproject

def test_backproject_identity_scale():
    rng = np.random.default_rng(12)
    e = crandn(rng, (4, 50, 3))
    s = e[:, :, 0].copy()
    scale = backprojection_scale(s, e[:, :, 0])
    np.testing.assert_allclose(scale, np.ones(4), rtol=1e-12)


def test_backproject_removes_scale_ambiguity():
    rng = np.random.default_rng(13)
    e = crandn(rng, (4, 50, 2))
    s = 2.0 * e[:, :, 0]
    out = backprojection_scale(s, e[:, :, 0])[:, None] * s
    np.testing.assert_allclose(out, e[:, :, 0], rtol=1e-12)


def test_backproject_scale_beats_grid_search():
    # oracle: brute-force 2-D grid over the complex scale
    rng = np.random.default_rng(14)
    e = crandn(rng, (1, 200, 2))
    s = crandn(rng, (1, 200))
    ref = e[0, :, 0]
    alpha = backprojection_scale(s, e[:, :, 0])[0]

    def objective(a):
        return np.mean(np.abs(a * s[0] - ref) ** 2)

    grid = np.linspace(-2, 2, 41)
    best_grid = min(objective(gr + 1j * gi) for gr in grid for gi in grid)
    assert objective(alpha) <= best_grid + 1e-12


# ------------------------------------------------------------ run_joint

def test_run_joint_echo_only_cancels():
    # circular loudspeaker spectra keep the score statistics well conditioned;
    # a sparse envelope would only slow the no-near-end corner down
    rng = np.random.default_rng(15)
    u = crandn(rng, (64, 200))
    echo_atf = crandn(rng, (64, 3))
    x = echo_atf[:, None, :] * u[:, :, None]
    res = run_joint(x, u, RunConfig(iterations=50))
    ratio = np.sum(np.abs(res.s_hat) ** 2) / np.sum(np.abs(x[:, :, 0]) ** 2)
    with np.errstate(divide="ignore"):
        assert 10 * np.log10(ratio) <= -40.0


def test_run_joint_soi_only_returns_reference_image():
    rng = np.random.default_rng(16)
    s = scenegen._spherical_nongauss(rng, 32, 150)
    a_soi = crandn(rng, (32, 3))
    x = a_soi[:, None, :] * s[:, :, None]
    res = run_joint(x, np.zeros((32, 150), dtype=complex), RunConfig(iterations=20))
    ref_image = x[:, :, 0]
    err = np.linalg.norm(res.s_hat - ref_image) / np.linalg.norm(ref_image)
    assert err <= 1e-8


def test_run_joint_invariants_after_run():
    cfg = scenegen.ScenarioConfig(mics=3, seed=4)
    scene = scenegen.render_narrowband(cfg, n_freqs=48, n_frames=160)
    res = run_joint(scene.mixture, scene.loudspeaker, RunConfig(iterations=20))
    state = res.state
    resp = np.einsum("fm,fm->f", state.w.conj(), state.a)
    assert np.max(np.abs(resp - 1.0)) <= 1e-10  # distortionless chain
    power = np.einsum("fm,fmn,fn->f", state.w.conj(), state.C_ee, state.w).real
    assert np.max(np.abs(power - 1.0)) <= 1e-10  # unit-scale chain


@settings(max_examples=8)
@given(mics=st.integers(2, 4), log_scale=st.floats(-3.0, 3.0),
       phase=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 2**16))
def test_runs_are_invariant_to_the_loudspeaker_scale(mics, log_scale, phase, seed):
    """Under u -> alpha u, |alpha| in [1e-3, 1e3] with any phase, h becomes h / alpha.

    w, a and s_hat hold. The run's least-squares echo path h_LS scales as h
    does and its residual covariance C_LS holds, so the closed forms built on
    them keep the invariance.
    """
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=mics, seed=seed),
                                       n_freqs=24, n_frames=80)
    alpha = 10.0 ** log_scale * np.exp(1j * phase)
    cfg = RunConfig(iterations=20, records=False)

    def close(actual, expected):
        return np.linalg.norm(actual - expected) <= 1e-9 * np.linalg.norm(expected)

    data = DataStats.of(scene.mixture, scene.loudspeaker)
    data_scaled = DataStats.of(scene.mixture, alpha * scene.loudspeaker)
    assert close(data_scaled.h_ls, data.h_ls / alpha)
    assert close(data_scaled.C_ls, data.C_ls)
    for run in (run_joint, run_bnlms_ive):
        base = run(scene.mixture, scene.loudspeaker, cfg)
        scaled = run(scene.mixture, alpha * scene.loudspeaker, cfg)
        assert close(scaled.state.h, base.state.h / alpha)
        for name in ("w", "a"):
            assert close(getattr(scaled.state, name), getattr(base.state, name))
        assert close(scaled.s_hat, base.s_hat)


@pytest.mark.parametrize("k", [1e-100, 1e-20, 1e20, 1e100])
def test_run_joint_moves_every_bin_at_any_data_scale(k):
    """Scaling x and u by k freezes no bin at iteration 0, raises no warning, stays finite.

    Every floor left is relative to the data, so the first echo step moves h
    at any k. The outputs are not gated on scale invariance: the start w = e1
    is not normalised, so the run still depends on k beyond rounding.
    """
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=4, seed=3),
                                       n_freqs=128, n_frames=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_joint(k * scene.mixture, k * scene.loudspeaker)
    first = res.diagnostics.records[0]
    assert first.frozen_bins == 0
    assert first.delta_h > 0
    for out in (res.s_hat, res.state.h, res.state.w, res.state.a):
        assert np.all(np.isfinite(out))


def test_run_joint_frequency_permutation_invariance():
    cfg = scenegen.ScenarioConfig(mics=3, seed=6)
    scene = scenegen.render_narrowband(cfg, n_freqs=32, n_frames=120)
    rng = np.random.default_rng(7)
    perm = rng.permutation(32)
    r1 = run_joint(scene.mixture, scene.loudspeaker, RunConfig(iterations=15))
    r2 = run_joint(scene.mixture[perm], scene.loudspeaker[perm], RunConfig(iterations=15))
    np.testing.assert_allclose(r2.state.h, r1.state.h[perm], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(r2.s_hat, r1.s_hat[perm], rtol=1e-10, atol=1e-12)


def test_run_joint_diagnostics_one_record_per_iteration():
    cfg = scenegen.ScenarioConfig(mics=2, seed=8)
    scene = scenegen.render_narrowband(cfg, n_freqs=16, n_frames=80)
    res = run_joint(scene.mixture, scene.loudspeaker, RunConfig(iterations=7),
                    truth=scene.truth)
    assert len(res.diagnostics.records) == 7
    assert all(np.isfinite(r.cost) for r in res.diagnostics.records)
    assert all(r.off_block_db is not None for r in res.diagnostics.records)


# ------------------------------------------------------------- baselines

def test_bnlms_step_equals_gaussian_joint_step_single_channel():
    rng = np.random.default_rng(17)
    u = crandn(rng, (8, 100))
    x = crandn(rng, (8, 100, 1))
    state = DemixState.initial(8, 1)
    data = DataStats.of(x, u)
    h_bnlms = data.h_ls
    h_joint, _ = update_aec(state, x, u, data, score=score_gauss)
    np.testing.assert_allclose(h_bnlms, h_joint, rtol=1e-12)


def test_bnlms_and_joint_erle_parity_without_near_end():
    rng = np.random.default_rng(18)
    x, u, _, echo = echo_noise_scene(rng)
    cfg = RunConfig(iterations=50)
    res_j = run_joint(x, u, cfg)
    res_b = run_bnlms_ive(x, u, cfg)

    def erle_db(h):
        resid = echo - h[:, None, :] * u[:, :, None]
        return 10 * np.log10(np.sum(np.abs(echo[:, :, 0]) ** 2)
                             / np.sum(np.abs(resid[:, :, 0]) ** 2))

    assert abs(erle_db(res_j.state.h) - erle_db(res_b.state.h)) <= 0.5


def test_ls_aec_exact_on_pure_echo():
    rng = np.random.default_rng(19)
    u = crandn(rng, (16, 80))
    echo_atf = crandn(rng, (16, 3))
    x = echo_atf[:, None, :] * u[:, :, None]
    res = run_ls_aec(x, u)
    np.testing.assert_allclose(res.state.h, echo_atf, rtol=1e-12)
    assert np.max(np.abs(res.e)) <= 1e-12


def test_ls_aec_rejects_silent_loudspeaker():
    with pytest.raises(NumericsError):
        run_ls_aec(np.ones((4, 10, 2), dtype=complex), np.zeros((4, 10), dtype=complex))


def test_ls_aec_rejects_a_loudspeaker_below_the_excitation_floor():
    """1e-160 in every bin gives P_u = 1e-320, below tiny: no bin is excited, as with zeros."""
    with pytest.raises(NumericsError):
        run_ls_aec(np.ones((4, 10, 2), dtype=complex), np.full((4, 10), 1e-160, dtype=complex))


def test_ls_aec_matches_bnlms_batch_optimum():
    rng = np.random.default_rng(20)
    cfg = scenegen.ScenarioConfig(mics=3, seed=9)
    scene = scenegen.render_narrowband(cfg, n_freqs=32, n_frames=200)
    h_ls = run_ls_aec(scene.mixture, scene.loudspeaker).state.h
    res_b = run_bnlms_ive(scene.mixture, scene.loudspeaker, RunConfig(iterations=10))
    echo = scene.images["echo"]
    u = scene.loudspeaker

    def erle_db(h):
        resid = echo - h[:, None, :] * u[:, :, None]
        return 10 * np.log10(np.sum(np.abs(echo[:, :, 0]) ** 2)
                             / np.sum(np.abs(resid[:, :, 0]) ** 2))

    assert abs(erle_db(h_ls) - erle_db(res_b.state.h)) <= 0.5


def test_ive_only_keeps_h_zero_and_matches_joint_when_echo_free():
    rng = np.random.default_rng(21)
    n_freqs, n_frames, m = 48, 300, 3
    s = scenegen._spherical_nongauss(rng, n_freqs, n_frames)
    q = crandn(rng, (n_freqs, n_frames, m - 1))
    a_soi = crandn(rng, (n_freqs, m))
    bg = crandn(rng, (n_freqs, m, m - 1))
    x = a_soi[:, None, :] * s[:, :, None] + np.einsum("fmk,ftk->ftm", bg, q)
    x += 1e-2 * crandn(rng, (n_freqs, n_frames, m))
    u = 1e-8 * crandn(rng, (n_freqs, n_frames))  # live but echo-free loudspeaker
    cfg = RunConfig(iterations=40)
    res_ive = run_ive_only(x, cfg)
    res_joint = run_joint(x, u, cfg)
    assert np.all(res_ive.state.h == 0)
    soi_img = a_soi[:, None, :] * s[:, :, None]

    def sir_db(res):
        w = res.state.w
        p_s = np.sum(np.abs(np.einsum("fm,ftm->ft", w.conj(), soi_img)) ** 2)
        p_rest = np.sum(np.abs(np.einsum("fm,ftm->ft", w.conj(), x - soi_img)) ** 2)
        return 10 * np.log10(p_s / p_rest)

    assert abs(sir_db(res_ive) - sir_db(res_joint)) <= 1.0


def test_joint_with_a_silent_loudspeaker_equals_ive_only(monkeypatch):
    """With u = 0 no echo step can move h, so joint runs as ive, bit for bit.

    It makes ive's n + 1 passes, each forming E[e phi], and ive's records.
    BNLMS-IVE on a silent loudspeaker holds h at h_LS = 0: it is ive too.
    """
    passes = []

    def counting_moments(*args, **kwargs):
        mom = moments(*args, **kwargs)
        passes.append(mom.e_phi is not None)
        return mom

    monkeypatch.setattr(optimizer, "moments", counting_moments)
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=4),
                                       n_freqs=16, n_frames=40)
    cfg = RunConfig(iterations=7)
    joint = run_joint(scene.mixture, np.zeros_like(scene.loudspeaker), cfg)
    assert passes == [True] * 8
    ive = run_ive_only(scene.mixture, cfg)
    bnlms = run_bnlms_ive(scene.mixture, np.zeros_like(scene.loudspeaker), cfg)
    assert joint.diagnostics.records == ive.diagnostics.records
    for res in (joint, bnlms):
        for name in ("h", "w", "a"):
            np.testing.assert_array_equal(getattr(res.state, name), getattr(ive.state, name))
        np.testing.assert_array_equal(res.s_hat, ive.s_hat)


def test_ive_only_loses_to_joint_when_echo_dominates():
    # echo stronger than the source: the echo eats one spatial dimension the
    # extraction alone cannot spare, so its echo ratio trails the joint one
    cfg = scenegen.ScenarioConfig(mics=4, ser_db=-5.0, ier_db=0.0, enr_db=30.0, seed=11)
    scene = scenegen.render_narrowband(cfg, n_freqs=64, n_frames=300)
    run_cfg = RunConfig(iterations=50)
    res_ive = run_ive_only(scene.mixture, run_cfg)
    res_joint = run_joint(scene.mixture, scene.loudspeaker, run_cfg)

    def ser_db(res, h):
        w = res.state.w
        soi = np.einsum("fm,ftm->ft", w.conj(), scene.images["soi"])
        echo_res = scene.images["echo"] - h[:, None, :] * scene.loudspeaker[:, :, None]
        echo = np.einsum("fm,ftm->ft", w.conj(), echo_res)
        return 10 * np.log10(np.sum(np.abs(soi) ** 2) / np.sum(np.abs(echo) ** 2))

    gap = ser_db(res_joint, res_joint.state.h) - ser_db(res_ive, np.zeros_like(res_joint.state.h))
    assert gap >= 3.0


def test_off_block_energy_mostly_monotone():
    # soft property: Newton steps are not globally monotone, so require 90%
    # of seeded runs to have a non-increasing separation diagnostic
    monotone = 0
    for seed in range(10):
        cfg = scenegen.ScenarioConfig(mics=3, seed=seed)
        scene = scenegen.render_narrowband(cfg, n_freqs=48, n_frames=160)
        res = run_joint(scene.mixture, scene.loudspeaker, RunConfig(iterations=30),
                        truth=scene.truth)
        trace = np.array([r.off_block_db for r in res.diagnostics.records])
        monotone += bool(np.all(np.diff(trace) <= 0.1))  # jitter allowance
    assert monotone >= 9


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(iterations=0)
    with pytest.raises(ValueError):
        RunConfig(reference_channel=0)


def test_grad_w_single_channel_gaussian_is_identically_zero():
    rng = np.random.default_rng(22)
    e = crandn(rng, (6, 90, 1))
    state = DemixState.initial(6, 1)
    state.C_ee = covariance(e)
    from echosep.model import orthogonal_constraint_atf

    state.a, _ = orthogonal_constraint_atf(state.C_ee, state.w)
    g = grad_w(state, moments(e, np.zeros((6, 90), dtype=complex), state, score=score_gauss))
    assert np.max(np.abs(g)) <= 1e-12


def test_circularity_needs_two_frames():
    with pytest.raises(ValueError):
        circularity_check(np.ones((4, 1), dtype=complex))


# The calls each iterating run makes, in order: before the first iteration,
# in each iteration up to its closing pass, and that pass, which the record
# and the next iteration's first step read. "moments(e_phi)" is a pass that
# forms E[e phi], "moments" one that does not.
SCHEDULES = {
    "run_joint": (["covariance", "error_covariance", "loaded_inverse", "moments"],
                  ["error_covariance", "loaded_inverse", "moments(e_phi)"],
                  "moments"),
    "run_bnlms_ive": (["covariance", "error_covariance", "loaded_inverse", "moments(e_phi)"],
                      [],
                      "moments(e_phi)"),
}
SCHEDULES["run_ive_only"] = SCHEDULES["run_bnlms_ive"]


@pytest.fixture
def call_trace(monkeypatch):
    """The ordered names of the calls a run makes to the passes and inverses it may form."""
    trace = []

    def traced(original, name):
        def call(*args, **kwargs):
            out = original(*args, **kwargs)
            trace.append(name + "(e_phi)" if name == "moments" and out.e_phi is not None
                         else name)
            return out
        return call

    for module, name in ((optimizer, "covariance"), (optimizer, "loaded_inverse"),
                         (model, "loaded_inverse"), (optimizer, "moments"),
                         (optimizer, "log_det_terms"), (optimizer, "transmission_matrix"),
                         (model, "interference_whitener"), (model, "blocking_matrix"),
                         (np.linalg, "eigh"), (np.linalg, "inv")):
        monkeypatch.setattr(module, name, traced(getattr(module, name), name))
    monkeypatch.setattr(DataStats, "error_covariance",
                        traced(DataStats.error_covariance, "error_covariance"))
    return trace


def _traced_run(trace, run, n, records=True):
    """Run n iterations on a healthy scene; return the calls it made and its result."""
    trace.clear()
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=4),
                                       n_freqs=16, n_frames=40)
    inputs = (scene.mixture,) if run is run_ive_only else (scene.mixture, scene.loudspeaker)
    result = run(*inputs, RunConfig(iterations=n, records=records), truth=scene.truth)
    return list(trace), result


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("records", [False, True], ids=["no_records", "records"])
@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive, run_ive_only],
                         ids=["run_joint", "run_bnlms_ive", "run_ive_only"])
def test_runs_follow_their_fixed_schedule(run, records, n, call_trace):
    """A run of n iterations makes the calls of its schedule, in order.

    A record adds J's log-det terms and the transmission matrix after its
    pass; without records the last closing pass, which only its record
    reads, is skipped. The tests below pin the counts that follow from it.
    """
    trace, _ = _traced_run(call_trace, run, n, records)
    start, step, closing = SCHEDULES[run.__name__]
    expected = list(start)
    for it in range(n):
        expected += step
        if records or it + 1 < n:
            expected.append(closing)
        if records:
            expected += ["log_det_terms", "transmission_matrix"]
    assert trace == expected


@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive, run_ive_only])
def test_runs_make_one_dense_covariance_pass(run, call_trace):
    for records in (False, True):
        for n in (1, 7):
            trace, _ = _traced_run(call_trace, run, n, records)
            assert trace.count("covariance") == 1


@pytest.mark.parametrize("run, per_iteration", [(run_joint, 2), (run_bnlms_ive, 1),
                                                  (run_ive_only, 1)])
def test_runs_make_one_score_pass_per_half_step(run, per_iteration, call_trace):
    """n iterations make 2n + 1 moment passes (joint) or n + 1 (BNLMS, ive).

    Every iteration makes one pass for its record and the next step, and
    joint one more for its BSE step, after its echo step. The one pass
    before the first iteration serves that iteration's first step.
    """
    for n in (1, 7):
        trace, _ = _traced_run(call_trace, run, n)
        assert sum(name.startswith("moments") for name in trace) == per_iteration * n + 1


@pytest.mark.parametrize("run, covariances, inversions",
                         [(run_joint, lambda n: n + 1, lambda n: n + 1),
                          (run_bnlms_ive, lambda n: 1, lambda n: 1),
                          (run_ive_only, lambda n: 1, lambda n: 1)],
                         ids=["run_joint", "run_bnlms_ive", "run_ive_only"])
def test_runs_form_c_ee_and_its_inverse_once_per_echo_path(run, covariances, inversions,
                                                           call_trace):
    """C_ee and its loaded inverse once per echo path, and no eigendecomposition.

    C_ee is formed at the start and after every echo step: each iteration
    under joint, never under BNLMS and ive, which hold h at h_LS. Each C_ee
    is inverted once, where it is formed, so joint inverts n + 1 and the
    others one. The record's cost J inverts nothing.
    """
    for records in (False, True):
        for n in (1, 7):
            trace, _ = _traced_run(call_trace, run, n, records)
            assert "eigh" not in trace
            assert trace.count("error_covariance") == covariances(n)
            assert trace.count("loaded_inverse") == inversions(n)


@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive, run_ive_only])
def test_runs_on_a_healthy_scene_make_no_lapack_inversion(run, call_trace):
    """The loaded inverse of C_ee is the elimination's: no np.linalg.inv call.

    Every bin of a healthy scene stays live, with or without records.
    """
    for records in (False, True):
        trace, result = _traced_run(call_trace, run, 7, records)
        assert result.state.active.all()
        assert "inv" not in trace


@pytest.mark.parametrize("run, e_phi_passes",
                         [(run_joint, lambda n, records: n),
                          (run_bnlms_ive, lambda n, records: n + records),
                          (run_ive_only, lambda n, records: n + records)],
                         ids=["run_joint", "run_bnlms_ive", "run_ive_only"])
def test_only_the_passes_a_bse_step_reads_form_e_phi(run, e_phi_passes, call_trace):
    """Joint forms E[x phi] once per iteration, in its BSE step's pass; the others in every pass.

    Joint's other passes serve an echo step and a record, which read no
    E[e phi]. BNLMS and ive make n + 1 passes (n without records), each of
    which a BSE step may read.
    """
    for records in (False, True):
        for n in (1, 7):
            trace, _ = _traced_run(call_trace, run, n, records)
            passes = [name for name in trace if name.startswith("moments")]
            assert passes.count("moments(e_phi)") == e_phi_passes(n, records)
            if run is not run_joint:
                assert set(passes) == {"moments(e_phi)"}


@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive, run_ive_only])
def test_runs_form_the_cost_once_per_iteration_and_no_whitener(run, call_trace):
    """Each record forms J's log-det terms once, from C_ee; no run forms a whitener or a B."""
    for records in (False, True):
        for n in (1, 7):
            trace, _ = _traced_run(call_trace, run, n, records)
            assert trace.count("log_det_terms") == (n if records else 0)
            assert "interference_whitener" not in trace
            assert "blocking_matrix" not in trace


@pytest.mark.parametrize("run, per_iteration", [(run_joint, 2), (run_bnlms_ive, 1),
                                                  (run_ive_only, 1)])
def test_runs_without_records_skip_the_diagnostics(run, per_iteration, call_trace):
    """Without records, n iterations make 2n moment passes (joint) or n (BNLMS, ive).

    The last iteration's pass, which only its record reads, is skipped, and
    no cost or transmission matrix is formed.
    """
    for n in (1, 7):
        trace, _ = _traced_run(call_trace, run, n, records=False)
        assert sum(name.startswith("moments") for name in trace) == per_iteration * n
        assert "log_det_terms" not in trace
        assert "transmission_matrix" not in trace


@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive, run_ive_only])
def test_the_records_cost_is_the_cost_at_its_pass(run, monkeypatch):
    """Every record's J, whose data term is 2 sum_f nu_f, equals cost at the record's pass.

    For the spherical score sum_f nu_f = mean_t r_t, so the record needs no
    second look at s; model.cost forms E[2 r] from s itself.
    """
    passes, expected = [], []

    def keeping_moments(x, u, state, *args, **kwargs):
        mom = moments(x, u, state, *args, **kwargs)
        c = np.sum(state.w.conj() * state.h, axis=1)[:, None]
        passes.append(mom.y if u is None else mom.y - c * u)  # s; u is None without excitation
        return mom

    def checking_log_det_terms(state, C_ee):
        expected.append(cost(state, state.C_ee, passes[-1]))
        return model.log_det_terms(state, C_ee)

    monkeypatch.setattr(optimizer, "moments", keeping_moments)
    monkeypatch.setattr(optimizer, "log_det_terms", checking_log_det_terms)
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=4),
                                       n_freqs=16, n_frames=40)
    inputs = (scene.mixture,) if run is run_ive_only else (scene.mixture, scene.loudspeaker)
    records = run(*inputs, RunConfig(iterations=7)).diagnostics.records
    assert len(expected) == 7
    np.testing.assert_allclose([r.cost for r in records], expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive])
def test_the_last_record_is_the_cost_at_the_returned_filters(run):
    """records[-1].cost, from the closed-form C_ee, is J over a dense pass at the returned h, w."""
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=4),
                                       n_freqs=16, n_frames=40)
    x, u = scene.mixture, scene.loudspeaker
    res = run(x, u, RunConfig(iterations=5))
    e = x - res.state.h[:, None, :] * u[:, :, None]
    s = np.einsum("fm,ftm->ft", res.state.w.conj(), e)
    dense = cost(res.state, covariance(e), s)
    assert res.diagnostics.records[-1].cost == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive, run_ive_only])
def test_runs_without_records_match_runs_with_records(run):
    """No update reads a record, so records=False changes no filter or output."""
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=4),
                                       n_freqs=16, n_frames=40)
    inputs = (scene.mixture,) if run is run_ive_only else (scene.mixture, scene.loudspeaker)
    full = run(*inputs, RunConfig(iterations=7), truth=scene.truth)
    bare = run(*inputs, RunConfig(iterations=7, records=False), truth=scene.truth)
    assert len(full.diagnostics.records) == 7 and bare.diagnostics.records == []
    for name in ("h", "w", "a"):
        assert np.array_equal(getattr(full.state, name), getattr(bare.state, name))
    assert np.array_equal(full.e, bare.e)
    assert np.array_equal(full.s_hat, bare.s_hat)
    assert np.array_equal(full.diagnostics.bp_scale, bare.diagnostics.bp_scale)


@settings(max_examples=5)
@given(perm=st.permutations([1, 2, 3]).filter(lambda p: p != [1, 2, 3]),
       seed=st.integers(0, 2**16))
def test_runs_are_equivariant_to_permuting_the_other_microphones(perm, seed):
    """Permuting microphones 2..M permutes h, w and a to match and leaves s_hat.

    The reference microphone 1 stays in place, and with it the initial w and
    the backprojection channel; the rest changes only the order of sums.
    """
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=4, seed=seed),
                                       n_freqs=32, n_frames=80)
    order = [0] + list(perm)
    cfg = RunConfig(iterations=20, records=False)

    def close(actual, expected):  # relative in norm; h stays zero for ive
        return np.linalg.norm(actual - expected) <= 1e-10 * np.linalg.norm(expected)

    for run in (run_joint, run_bnlms_ive, run_ive_only):
        inputs = (scene.mixture,) if run is run_ive_only else (scene.mixture, scene.loudspeaker)
        base = run(*inputs, cfg)
        permuted = run(inputs[0][:, :, order], *inputs[1:], cfg)
        assert close(permuted.s_hat, base.s_hat)
        for name in ("h", "w", "a"):
            assert close(getattr(permuted.state, name), getattr(base.state, name)[:, order])


@settings(max_examples=10)
@given(iterations=st.integers(1, 8), mics=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_runs_keep_the_constraints_on_every_active_bin(iterations, mics, seed):
    """After any number of iterations, w^H a = 1 and B(a) a = 0 on every active bin."""
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=mics, seed=seed),
                                       n_freqs=16, n_frames=40)
    cfg = RunConfig(iterations=iterations, records=False)
    for run in (run_joint, run_bnlms_ive, run_ive_only):
        inputs = (scene.mixture,) if run is run_ive_only else (scene.mixture, scene.loudspeaker)
        state = run(*inputs, cfg).state
        w, a = state.w[state.active], state.a[state.active]
        assert len(a) > 0
        assert np.all(np.abs(np.sum(w.conj() * a, axis=1) - 1.0) <= 1e-10)
        blocked = np.einsum("fkm,fm->fk", blocking_matrix(a), a)
        assert np.all(np.linalg.norm(blocked, axis=1) <= 1e-12 * np.linalg.norm(a, axis=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_runs_reject_non_finite_input(bad):
    rng = np.random.default_rng(23)
    x = crandn(rng, (4, 10, 2))
    u = crandn(rng, (4, 10))
    x_bad, u_bad = x.copy(), u.copy()
    x_bad[1, 3, 0] = bad
    u_bad[2, 5] = bad
    cfg = RunConfig(iterations=2)
    for mic, ls in ((x_bad, u), (x, u_bad)):
        for call in (lambda: run_joint(mic, ls, cfg), lambda: run_bnlms_ive(mic, ls, cfg),
                     lambda: run_ls_aec(mic, ls)):
            with pytest.raises(ValueError):
                call()
    with pytest.raises(ValueError):
        run_ive_only(x_bad, cfg)


def test_run_joint_shape_and_reference_validation():
    x = np.zeros((4, 10, 2), dtype=complex)
    with pytest.raises(ValueError, match=r"^expected shape \(n_freqs, n_frames, n_channels\)$"):
        run_joint(x[:, :, 0], np.zeros((4, 10), dtype=complex))
    with pytest.raises(ValueError, match="^score statistics need at least 2 frames$"):
        run_joint(x[:, :1], np.zeros((4, 1), dtype=complex))
    with pytest.raises(ValueError):
        run_joint(x, np.zeros((4, 9), dtype=complex), RunConfig(iterations=1))
    with pytest.raises(ValueError):
        run_joint(x, np.zeros((4, 10), dtype=complex),
                  RunConfig(iterations=1, reference_channel=3))
    # the extraction model needs a blocking matrix; the beamformer-free runs do not
    x1, u = x[:, :, :1] + 1.0, np.ones((4, 10), dtype=complex)
    cfg = RunConfig(iterations=1)
    for call in (lambda: run_joint(x1, u, cfg), lambda: run_bnlms_ive(x1, u, cfg),
                 lambda: run_ive_only(x1, cfg)):
        with pytest.raises(ValueError, match="at least 2 microphones, got 1"):
            call()
    assert run_ls_aec(x1, u, cfg).s_hat.shape == (4, 10)
    assert run_unprocessed(x1, cfg).s_hat.shape == (4, 10)


def _pad_silent(a, frames=4):
    """a with `frames` all-zero frames added at each end of the frame axis."""
    silence = np.zeros_like(a[:, :frames])
    return np.concatenate([silence, a, silence], axis=1)


@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive, run_ive_only])
def test_silent_frames_leave_the_estimates_unchanged(run):
    """Frames silent on every microphone and the loudspeaker carry no score or curvature.

    Padding with them rescales every frame average alike, so after the run
    has converged the echo path and the output on the active frames are those
    of the unpadded scene. A silent frame that weighed in rho (its radius is
    0, so any finite 1/r is arbitrary) would move both far from there.
    """
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=0, enr_db=np.inf),
                                       n_freqs=48, n_frames=160)
    inputs = (scene.mixture,) if run is run_ive_only else (scene.mixture, scene.loudspeaker)
    cfg = RunConfig(iterations=50)
    base = run(*inputs, cfg)
    padded = run(*(_pad_silent(a) for a in inputs), cfg)
    h_scale = np.linalg.norm(scene.truth.echo_atf)
    assert np.linalg.norm(padded.state.h - base.state.h) <= 1e-6 * h_scale
    assert (np.linalg.norm(padded.s_hat[:, 4:-4] - base.s_hat)
            <= 1e-6 * np.linalg.norm(base.s_hat))
    assert np.all(padded.s_hat[:, :4] == 0) and np.all(padded.s_hat[:, -4:] == 0)


def _degenerate_inputs(case, mics, seed):
    """Microphone and loudspeaker spectra of a small scene, made degenerate as named."""
    n_frames = 2 if case == "two_frames" else 40
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=mics, seed=seed),
                                       n_freqs=16, n_frames=n_frames)
    x, u = scene.mixture.copy(), scene.loudspeaker.copy()
    if case == "silent_bins":
        x[3:6], u[3:6] = 0.0, 0.0
    elif case == "dead_other_mic":
        x[:, :, mics - 1] = 0.0
    elif case == "duplicated_mic":
        x[:, :, mics - 1] = x[:, :, 0]
    elif case == "silent_frames":
        x, u = _pad_silent(x), _pad_silent(u)
    elif case == "dead_reference_mic":
        x[:, :, 0] = 0.0
    return x, u


@settings(max_examples=20)
@given(case=st.sampled_from(["two_frames", "silent_bins", "dead_other_mic", "duplicated_mic",
                             "silent_frames"]),
       mics=st.integers(2, 4), iterations=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_runs_stay_finite_and_constrained_on_degenerate_input(case, mics, iterations, seed):
    """Two frames, silent bins or frames, a dead or duplicated other microphone.

    Every iterating run returns finite estimates and keeps w^H a = 1 on every
    active bin; the per-bin freezing absorbs what is degenerate.
    """
    if case == "two_frames":
        mics = 2
    x, u = _degenerate_inputs(case, mics, seed)
    cfg = RunConfig(iterations=iterations, records=False)
    for run in (run_joint, run_bnlms_ive, run_ive_only):
        result = run(x, cfg) if run is run_ive_only else run(x, u, cfg)
        state = result.state
        for value in (result.s_hat, state.h, state.w, state.a):
            assert np.all(np.isfinite(value))
        w, a = state.w[state.active], state.a[state.active]
        assert np.all(np.abs(np.sum(w.conj() * a, axis=1) - 1.0) <= 1e-10)


@settings(max_examples=5)
@given(mics=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_runs_raise_on_a_dead_reference_microphone(mics, seed):
    """With microphone 1 silent, the initial beamformer sees nothing: a numerically dead run."""
    x, u = _degenerate_inputs("dead_reference_mic", mics, seed)
    cfg = RunConfig(iterations=3, records=False)
    for call in (lambda: run_joint(x, u, cfg), lambda: run_bnlms_ive(x, u, cfg),
                 lambda: run_ive_only(x, cfg)):
        with pytest.raises(NumericsError):
            call()


@pytest.mark.parametrize("scale", [1e-155, 1e-160])
@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive])
def test_bins_with_a_subnormal_estimate_get_scale_zero(run, scale):
    """Two bins scaled so far down that their source estimate's power is subnormal.

    They freeze, and their backprojection scale is 0, as for a silent bin;
    corr / power there would overflow to inf + nan j.
    """
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=0),
                                       n_freqs=64, n_frames=120)
    x, u = scene.mixture.copy(), scene.loudspeaker.copy()
    x[18:20] *= scale
    u[18:20] *= scale
    result = run(x, u)
    assert np.all(np.isfinite(result.s_hat))
    assert np.all(np.isfinite(result.diagnostics.bp_scale))
    assert np.all(result.diagnostics.bp_scale[18:20] == 0)


@pytest.mark.xfail(strict=True, raises=NumericsError,
                   reason="an active bin's C_ee, left by an echo step just above the "
                          "dead-bin floor, is indefinite by rounding (ROADMAP item 11: a "
                          "dead-bin floor tied to the precision)")
def test_run_joint_finishes_on_a_bin_cancelled_to_just_above_the_dead_bin_floor():
    """Silent, unexcited, echo-only and 1e-140-scaled bins in one scene.

    Bin 13, echo alone, is cancelled to tr C_ee / tr C_xx = 5.4e-12, above
    DEAD_BIN_FLOOR, where the smallest eigenvalue of C_ee is a rounding
    residue (-6e-19): w^H C_ee w reads -1.6 after a BSE step at iteration 12.
    """
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=1),
                                       n_freqs=64, n_frames=120)
    x, u = scene.mixture.copy(), scene.loudspeaker.copy()
    x[0:6], u[0:12] = 0.0, 0.0
    x[12:18] = scene.images["echo"][12:18]
    x[18:20] *= 1e-140
    u[18:20] *= 1e-140
    result = run_joint(x, u)
    for value in (result.s_hat, result.state.h, result.state.w, result.diagnostics.bp_scale):
        assert np.all(np.isfinite(value))
