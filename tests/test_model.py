"""Demixing model: constraints, score function, covariances, cost gradients.

The score derivatives and cost gradients are checked against central finite
differences computed here, independently of the closed forms under test.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from echosep import model
from echosep.model import (
    DemixState,
    NumericsError,
    blocking_matrix,
    cost,
    covariance,
    interference_whitener,
    load_diagonal,
    off_block_energy_db,
    orthogonal_constraint_atf,
    score_spherical,
    score_stats,
    transmission_matrix,
)
from formulas import (apply_demixer, background_covariance, cost_whitener, grad_h,
                      lapack_loaded_inverse, score_gauss)


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_psd(rng, m):
    a = crandn(rng, (m, m))
    return a @ a.conj().T + 0.1 * np.eye(m)


def make_instance(rng, n_freqs=4, n_frames=16, m=3):
    """Random demixing instance with self-consistent frozen statistics."""
    x = crandn(rng, (n_freqs, n_frames, m))
    u = crandn(rng, (n_freqs, n_frames))
    h = crandn(rng, (n_freqs, m))
    w = crandn(rng, (n_freqs, m))
    e = x - h[:, None, :] * u[:, :, None]
    c_ee = load_diagonal(covariance(e), 1e-6)
    a, _ = orthogonal_constraint_atf(c_ee, w)
    state = DemixState(h=h, w=w, a=a, C_ee=c_ee, active=np.ones(n_freqs, dtype=bool))
    return x, u, state


# ---------------------------------------------------------------- blocking

def test_blocking_unit_atf():
    b = blocking_matrix(np.array([1.0, 0.0, 0.0], dtype=complex))
    np.testing.assert_array_equal(b, [[0, -1, 0], [0, 0, -1]])


def test_blocking_example_complex():
    a = np.array([2.0, 1.0 + 1.0j, 0.0])
    b = blocking_matrix(a)
    np.testing.assert_array_equal(b, [[1 + 1j, -2, 0], [0, 0, -2]])
    assert np.linalg.norm(b @ a) == 0.0


def test_blocking_annihilates_random_atfs():
    rng = np.random.default_rng(5)
    for m in (2, 3, 4, 8):
        a = crandn(rng, (32, m))
        b = blocking_matrix(a)
        assert np.max(np.abs(np.einsum("fkm,fm->fk", b, a))) <= 1e-12


def test_blocking_needs_two_channels():
    with pytest.raises(ValueError):
        blocking_matrix(np.array([1.0 + 0j]))


@given(m=st.integers(2, 5), seed=st.integers(0, 2**16), definite=st.booleans())
def test_background_power_is_the_trace_of_the_background_covariance(m, seed, definite):
    """background_power(a, C_ee) = tr(B C_ee B^H) for Hermitian C_ee, indefinite ones too.

    Rounding in either form scales with its terms, |a|^2 max|C_ee| per bin,
    and an indefinite C_ee can cancel them to near zero; the tolerance is
    relative to the larger of that scale and the trace.
    """
    rng = np.random.default_rng(seed)
    a = crandn(rng, (8, m))
    c = crandn(rng, (8, m, m))
    c = c @ np.conj(np.swapaxes(c, 1, 2)) if definite else c + np.conj(np.swapaxes(c, 1, 2))
    trace = np.einsum("fkk->f", background_covariance(a, c)).real
    scale = np.sum(np.abs(a) ** 2, axis=1) * np.max(np.abs(c), axis=(1, 2))
    error = np.abs(model.background_power(a, c) - trace)
    assert np.all(error <= 1e-12 * np.maximum(np.abs(trace), scale))


# ------------------------------------------------------------ apply_demixer

def test_demixer_passthrough_initialization():
    rng = np.random.default_rng(6)
    x = crandn(rng, (5, 10, 3))
    u = crandn(rng, (5, 10))
    state = DemixState.initial(5, 3)
    e, s_hat, z_hat = apply_demixer(x, u, state)
    np.testing.assert_array_equal(e, x)
    np.testing.assert_allclose(s_hat, x[:, :, 0], atol=1e-15)


def test_demixer_exact_echo_cancellation():
    rng = np.random.default_rng(7)
    u = crandn(rng, (5, 10))
    h = crandn(rng, (5, 3))
    x = h[:, None, :] * u[:, :, None]
    state = DemixState.initial(5, 3)
    state.h = h
    e, s_hat, z_hat = apply_demixer(x, u, state)
    assert np.max(np.abs(e)) <= 1e-14
    assert np.max(np.abs(s_hat)) <= 1e-14
    assert np.max(np.abs(z_hat)) <= 1e-14


def test_demixer_matches_stacked_demixing_matrix():
    # oracle: build the full (M+1)x(M+1) demixing matrix from the constraint
    # equations and apply it to the stacked (x, u) vector, bin by bin
    rng = np.random.default_rng(8)
    n_freqs, n_frames, m = 3, 6, 3
    x, u, state = make_instance(rng, n_freqs, n_frames, m)
    e, s_hat, z_hat = apply_demixer(x, u, state)
    b = blocking_matrix(state.a)
    for f in range(n_freqs):
        w_full = np.zeros((m + 1, m + 1), dtype=complex)
        w_full[0, :m] = state.w[f].conj()
        w_full[0, m] = -state.w[f].conj() @ state.h[f]
        w_full[1:m, :m] = b[f]
        w_full[1:m, m] = -b[f] @ state.h[f]
        w_full[m, m] = 1.0
        for t in range(n_frames):
            stacked = np.concatenate([x[f, t], [u[f, t]]])
            out = w_full @ stacked
            assert abs(out[0] - s_hat[f, t]) <= 1e-12
            np.testing.assert_allclose(out[1:m], z_hat[f, t], atol=1e-12)
            assert out[m] == u[f, t]


def test_demixer_channel_mismatch_rejected():
    state = DemixState.initial(4, 3)
    with pytest.raises(ValueError):
        apply_demixer(np.zeros((4, 5, 2), dtype=complex), np.zeros((4, 5), dtype=complex), state)


# -------------------------------------------------- orthogonal constraint

def test_oc_identity_covariance():
    a, ok = orthogonal_constraint_atf(np.eye(2, dtype=complex)[None],
                                      np.array([[1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(a, [[1.0, 0.0]])
    assert ok.all()


def test_oc_diagonal_covariance():
    a, ok = orthogonal_constraint_atf(np.diag([4.0, 1.0]).astype(complex)[None],
                                      np.array([[1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(a, [[1.0, 0.0]])
    assert ok.all()


def test_oc_unit_response_for_random_inputs():
    rng = np.random.default_rng(9)
    for m in (2, 4, 8):
        c = np.stack([random_psd(rng, m) for _ in range(16)])
        w = crandn(rng, (16, m))
        a, ok = orthogonal_constraint_atf(c, w)
        assert ok.all()
        resp = np.einsum("fm,fm->f", w.conj(), a)
        assert np.max(np.abs(resp - 1.0)) <= 1e-12


def test_oc_degenerate_covariance_rejected():
    """A bin with w^H C_ee w = 0 or not finite is masked with a = 0; the others are kept."""
    c = np.stack([np.zeros((2, 2)), np.eye(2), np.full((2, 2), np.nan)]).astype(complex)
    a, ok = orthogonal_constraint_atf(c, np.array([[1.0, 0.0]] * 3, dtype=complex))
    np.testing.assert_array_equal(ok, [False, True, False])
    np.testing.assert_array_equal(a, [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])


# ------------------------------------------------------------------- score

def test_score_single_active_bin():
    s = np.zeros((5, 1), dtype=complex)
    s[0] = 1.0
    phi, _, _ = score_spherical(s)
    np.testing.assert_allclose(phi[:, 0], [1, 0, 0, 0, 0], atol=1e-15)


def test_score_two_bin_example():
    phi, _, _ = score_spherical(np.array([[3.0], [4.0j]]))
    np.testing.assert_allclose(phi[:, 0], [0.6, -0.8j], atol=1e-15)


@pytest.mark.parametrize("score", [score_spherical, score_gauss])
def test_score_returns_the_score_and_one_curvature_per_bin(score):
    s = crandn(np.random.default_rng(15), (6, 9))
    phi, rho, nu = score(s)
    assert phi.shape == (6, 9)
    assert rho.shape == (6,) and nu.shape == (6,)


def wirtinger_fd(fun, s, f, eps=1e-5):
    """Central-difference Wirtinger derivatives of fun(s)[f] w.r.t. s[f]."""
    def bump(delta):
        s2 = s.copy()
        s2[f] += delta
        return fun(s2)[f]

    d_re = (bump(eps) - bump(-eps)) / (2 * eps)
    d_im = (bump(1j * eps) - bump(-1j * eps)) / (2 * eps)
    d_plain = 0.5 * (d_re - 1j * d_im)
    d_conj = 0.5 * (d_re + 1j * d_im)
    return d_plain, d_conj


def test_score_derivatives_match_finite_differences():
    rng = np.random.default_rng(10)
    s = crandn(rng, 6)[:, None]  # one frame: rho is the derivative itself
    _, rho, _ = score_spherical(s)
    fun = lambda v: score_spherical(v[:, None])[0][:, 0]
    for f in range(len(s)):
        _, fd_conj = wirtinger_fd(fun, s[:, 0], f)
        assert abs(fd_conj - rho[f]) <= 1e-6 * max(abs(rho[f]), 1e-12)


def test_score_radius_floor():
    phi, rho, nu = score_spherical(np.zeros((4, 1), dtype=complex))
    assert np.all(phi == 0)
    assert np.all(rho == 0) and np.all(nu == 0)


def test_silent_frames_carry_no_score_and_no_curvature():
    """Frames silent in every bin add nothing: rho is the active frames' sum over all T."""
    s = crandn(np.random.default_rng(16), (8, 20))
    padded = np.concatenate([np.zeros((8, 3)), s, np.zeros((8, 2))], axis=1)
    phi, rho, _ = score_spherical(s)
    phi_padded, rho_padded, _ = score_spherical(padded)
    np.testing.assert_array_equal(phi_padded[:, 3:-2], phi)
    assert np.all(phi_padded[:, :3] == 0) and np.all(phi_padded[:, -2:] == 0)
    np.testing.assert_allclose(rho_padded, rho * 20 / 25, rtol=1e-12)


@pytest.mark.parametrize("score", [score_spherical, score_gauss])
def test_the_scores_nu_is_the_elementwise_mean_of_s_phi(score):
    """nu, from |s|^2, equals score_stats's frame mean of s * phi; a silent frame adds 0."""
    s = crandn(np.random.default_rng(17), (8, 20))
    s[:, 7] = 0.0
    _, _, nu = score(s)
    assert nu.dtype == np.float64
    np.testing.assert_allclose(nu, score_stats(s, score=score).nu, rtol=1e-12, atol=0)


def test_score_stats_single_bin_constant_modulus():
    rng = np.random.default_rng(11)
    c = 2.5
    s = c * np.exp(2j * np.pi * rng.random((1, 50)))
    stats = score_stats(s)
    np.testing.assert_allclose(stats.nu, [c], atol=1e-12)
    np.testing.assert_allclose(stats.rho, [1 / (2 * c)], atol=1e-12)


def test_score_stats_gaussian_normalizer_positive():
    rng = np.random.default_rng(12)
    s = crandn(rng, (64, 400))
    stats = score_stats(s)
    assert np.max(np.abs(stats.nu.imag)) <= 1e-8
    assert np.all(stats.nu.real > 0)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_score_homogeneity(alpha):
    rng = np.random.default_rng(13)
    s = crandn(rng, (8, 30))
    phi, _, _ = score_spherical(s)
    phi_scaled, _, _ = score_spherical(alpha * s)
    np.testing.assert_allclose(phi_scaled, phi, atol=1e-12)
    base = score_stats(s)
    scaled = score_stats(alpha * s)
    np.testing.assert_allclose(scaled.nu, alpha * base.nu, rtol=1e-12)
    np.testing.assert_allclose(scaled.rho, base.rho / alpha, rtol=1e-12)


def test_gauss_score_stats():
    rng = np.random.default_rng(14)
    s = crandn(rng, (4, 200))
    stats = score_stats(s, score=score_gauss)
    np.testing.assert_allclose(stats.nu, np.mean(np.abs(s) ** 2, axis=1), rtol=1e-12)
    np.testing.assert_allclose(stats.rho, np.ones(4), atol=1e-15)


# -------------------------------------------------------------- covariance

def test_covariance_rank_one():
    v = np.array([[1.0 + 1.0j, 2.0]], dtype=complex)  # one frame
    c = covariance(np.broadcast_to(v, (7, 2)).reshape(1, 7, 2))
    np.testing.assert_allclose(c[0], np.outer(v[0], v[0].conj()), atol=1e-14)


def test_covariance_zero_frames():
    c = load_diagonal(covariance(np.zeros((3, 5, 2), dtype=complex)), 1e-6)
    assert np.all(c == 0)


def test_covariance_hermitian_psd():
    rng = np.random.default_rng(15)
    c = load_diagonal(covariance(crandn(rng, (6, 20, 4))), 1e-6)
    assert np.max(np.abs(c - np.conj(np.swapaxes(c, 1, 2)))) <= 1e-15
    eigs = np.linalg.eigvalsh(c)
    assert eigs.min() >= 0


def test_interference_whitener_equals_the_loaded_solve_and_drops_dead_bins():
    """R = B^H solve(load_diagonal(C_zz), B), exactly Hermitian; a zero-trace or NaN bin gets R = 0."""
    rng = np.random.default_rng(16)
    a = crandn(rng, (6, 4))
    b = blocking_matrix(a)
    g = crandn(rng, (6, 3, 3))
    c_zz = g @ np.conj(np.swapaxes(g, 1, 2)) + 0.1 * np.eye(3)
    r, ok = interference_whitener(a, c_zz)
    reference = np.conj(np.swapaxes(b, 1, 2)) @ np.linalg.solve(load_diagonal(c_zz), b)
    assert ok.all()
    np.testing.assert_allclose(r, reference, rtol=1e-12)
    assert np.array_equal(r, np.conj(np.swapaxes(r, 1, 2)))
    c_zz[1] = 0.0
    c_zz[4, 0, 1] = np.nan  # the trace stays finite; the entry alone marks the bin dead
    r_dead, ok_dead = interference_whitener(a, c_zz)
    np.testing.assert_array_equal(ok_dead, [True, False, True, True, False, True])
    assert np.all(r_dead[[1, 4]] == 0)
    np.testing.assert_array_equal(r_dead[[0, 2, 3, 5]], r[[0, 2, 3, 5]])


def random_hermitian(rng, eigenvalues):
    """Q diag(eigenvalues) Q^H for a random unitary Q, exactly Hermitian."""
    k = len(eigenvalues)
    q, _ = np.linalg.qr(crandn(rng, (k, k)))
    c = (q * eigenvalues) @ q.conj().T
    return 0.5 * (c + c.conj().T)


@given(k=st.integers(1, 6), n_freqs=st.integers(1, 64), log_spread=st.floats(0.0, 8.0),
       loading=st.sampled_from([0.0, 1e-6]), seed=st.integers(0, 2**16))
def test_loaded_inverse_inverts_hermitian_positive_definite_stacks(k, n_freqs, log_spread,
                                                                   loading, seed):
    """The elimination inverts a loaded Hermitian PD stack to |L X - I| <= 100 eps cond(L).

    Eigenvalues are spread up to 1e8 apart; every bin is ok and none takes
    the per-bin LAPACK retry.
    """
    rng = np.random.default_rng(seed)
    c = np.stack([random_hermitian(rng, 10.0 ** rng.uniform(0.0, log_spread, k))
                  for _ in range(n_freqs)])
    with mock.patch.object(np.linalg, "inv", side_effect=AssertionError("LAPACK retry")):
        inverse, ok = model.loaded_inverse(c, loading)
    loaded = load_diagonal(c, loading)
    assert ok.all()
    residual = np.linalg.norm(loaded @ inverse - np.eye(k), axis=(1, 2))
    assert np.all(residual <= 100 * np.finfo(float).eps * np.linalg.cond(loaded))


@given(k=st.integers(1, 6), n_freqs=st.integers(4, 64), seed=st.integers(0, 2**16))
def test_loaded_inverse_keeps_the_lapack_contract_on_unhealthy_bins(k, n_freqs, seed):
    """On zero, NaN, off-diagonal-inf and indefinite bins (inverse, ok) is the LAPACK reference's.

    Zero, NaN and inf bins take the identity and drop out with a zero
    inverse; an indefinite bin has a pivot without a positive real part, so
    it takes the per-bin LAPACK inversion. The healthy bins around them are
    ok and agree with the reference to rounding.
    """
    rng = np.random.default_rng(seed)
    c = np.stack([random_hermitian(rng, 10.0 ** rng.uniform(0.0, 4.0, k))
                  for _ in range(n_freqs)])
    zero, nan, inf, indefinite = rng.choice(n_freqs, 4, replace=False)
    c[zero] = 0.0
    c[nan, 0, 0] = np.nan
    c[inf, 0, -1] = np.inf  # the trace stays finite for k > 1
    c[indefinite] = random_hermitian(rng, np.r_[-1.0, 2.0:k + 1.0])  # trace > 0 for k > 1
    inverse, ok = model.loaded_inverse(c)
    expected, expected_ok = lapack_loaded_inverse(c)
    np.testing.assert_array_equal(ok, expected_ok)
    unhealthy = [zero, nan, inf, indefinite]
    np.testing.assert_array_equal(inverse[unhealthy], expected[unhealthy])
    healthy = np.ones(n_freqs, dtype=bool)
    healthy[unhealthy] = False
    assert ok[healthy].all()
    np.testing.assert_allclose(inverse[healthy], expected[healthy], rtol=1e-9, atol=0)


def test_loaded_inverse_sends_only_the_unhealthy_pivot_bin_to_lapack():
    """Zero, NaN and inf bins drop out unsolved; only the indefinite bin takes np.linalg.inv.

    Its plain LAPACK inversion succeeds, so that is the one call, on its own
    loaded matrix, and the result lands in the returned (F, K, K) inverse.
    """
    rng = np.random.default_rng(18)
    c = np.stack([random_hermitian(rng, 10.0 ** rng.uniform(0.0, 4.0, 4)) for _ in range(9)])
    c[1] = 0.0
    c[3, 0, 0] = np.nan
    c[5, 0, -1] = np.inf
    c[7] = random_hermitian(rng, np.array([-1.0, 2.0, 3.0, 4.0]))
    calls, lapack_inv = [], np.linalg.inv

    def recording_inv(mat):
        calls.append(mat)
        return lapack_inv(mat)

    with mock.patch.object(np.linalg, "inv", recording_inv):
        inverse, ok = model.loaded_inverse(c)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], load_diagonal(c[7]))
    np.testing.assert_array_equal(ok, ~np.isin(np.arange(9), [1, 3, 5]))
    assert inverse.shape == (9, 4, 4)
    np.testing.assert_array_equal(inverse[[1, 3, 5]], 0.0)
    np.testing.assert_allclose(inverse[7] @ load_diagonal(c[7]), np.eye(4), atol=1e-12)


@pytest.mark.parametrize("layout", ["contiguous", "channels_reversed", "frames_strided",
                                    "stacked"])
def test_covariance_matches_the_dense_product(layout):
    """E[v v^H] to 1e-13 of the dense frame sum, exactly Hermitian, for views as well."""
    rng = np.random.default_rng(41)
    v = {
        "contiguous": lambda: crandn(rng, (9, 50, 4)),
        "channels_reversed": lambda: crandn(rng, (9, 50, 4))[..., ::-1],
        "frames_strided": lambda: np.swapaxes(crandn(rng, (9, 3, 50)), 1, 2),
        "stacked": lambda: crandn(rng, (2, 3, 9, 50, 4)),
    }[layout]()
    c = covariance(v)
    dense = np.einsum("...tm,...tn->...mn", v, v.conj()) / v.shape[-2]
    assert c.shape == dense.shape
    assert np.max(np.abs(c - dense)) <= 1e-13 * np.max(np.abs(dense))
    assert np.array_equal(c, np.conj(np.swapaxes(c, -1, -2)))


def test_covariance_forms_no_frame_sized_copy():
    """Above its contiguous input, covariance holds less than one (F, T) complex plane."""
    x = crandn(np.random.default_rng(42), (64, 300, 4))
    covariance(x)  # first calls import what numpy loads lazily
    tracemalloc.start()  # counts only what is allocated from here on
    try:
        covariance(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = x[..., 0].nbytes
    assert peak < plane, peak / plane


def test_covariance_needs_frames():
    with pytest.raises(ValueError):
        covariance(np.zeros((3, 0, 2), dtype=complex))


# -------------------------------------------------------------------- cost

def test_cost_zero_signals():
    """A zero C_ee on an active bin has no log det: NumericsError. Frozen bins add nothing."""
    state = DemixState.initial(2, 2)
    e = np.zeros((2, 1, 2), dtype=complex)
    s = np.zeros((2, 1), dtype=complex)
    with pytest.raises(NumericsError):
        cost(state, covariance(e), s)
    state.active[:] = False
    assert cost(state, covariance(e), s) == 0.0


def test_cost_indefinite_bin_with_a_positive_determinant():
    """Two negative eigenvalues give det C_ee > 0, yet C_ee is not a covariance: NumericsError.

    The Cholesky factor that gives log det C_ee fails on the bin, so the
    driver records that iteration's cost as NaN. Frozen, the bin adds nothing.
    """
    state = DemixState.initial(2, 3)
    state.w = np.zeros((2, 3), dtype=complex)
    state.w[:, 2] = 1.0  # sigma^2 = 3 on both bins
    c_ee = np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([-1.0, -2.0, 3.0])]).astype(complex)
    assert np.linalg.slogdet(c_ee[1])[0] == 1.0
    with pytest.raises(NumericsError):
        model.log_det_terms(state, c_ee)
    state.active[1] = False
    assert model.log_det_terms(state, c_ee) == pytest.approx(np.log(6.0) - np.log(3.0),
                                                             rel=1e-14)


def test_cost_single_frame_single_bin():
    """J = 2 r + log det C_ee - log(w^H C_ee w): 4 + log 6 - log 2 here."""
    state = DemixState.initial(1, 2)  # w = (1, 0)
    c_ee = np.diag([2.0, 3.0]).astype(complex)[None]
    s = np.array([[2.0 + 0j]])
    assert cost(state, c_ee, s) == pytest.approx(4.0 + np.log(3.0), rel=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_cost_log_terms_are_the_background_log_likelihood(m):
    """log det C_zz = log det C_ee + (M-2) log|gamma|^2 - log sigma^2 for the OGC a.

    With a = C_ee w / sigma^2, sigma^2 = w^H C_ee w and C_zz = B C_ee B^H
    for B = blocking_matrix(a): the identity that takes J's log terms from
    C_ee alone. The unloaded whitener B^H C_zz^{-1} B is then
    C_ee^{-1} - w w^H / sigma^2, the matrix of J's h-gradient.
    """
    rng = np.random.default_rng(40 + m)
    c_ee = np.stack([random_psd(rng, m) for _ in range(16)])
    w = crandn(rng, (16, m))
    a, ok = orthogonal_constraint_atf(c_ee, w)
    assert ok.all()
    c_zz = background_covariance(a, c_ee)
    sigma2 = np.einsum("fm,fmn,fn->f", w.conj(), c_ee, w).real
    log_zz = np.linalg.slogdet(c_zz)[1]
    log_ee = np.linalg.slogdet(c_ee)[1]
    identity = log_ee + (m - 2) * np.log(np.abs(a[:, 0]) ** 2) - np.log(sigma2)
    assert np.linalg.norm(log_zz - identity) <= 1e-12 * np.linalg.norm(log_zz)
    r, ok = interference_whitener(a, c_zz, loading=0.0)
    assert ok.all()
    expected = cost_whitener(c_ee, w)
    assert np.linalg.norm(r - expected) <= 1e-10 * np.linalg.norm(expected)


def wirtinger_grad_fd(fun, z, eps=1e-5):
    """dJ/d conj(z) for real fun via central differences, elementwise."""
    g = np.zeros_like(z)
    flat = z.reshape(-1)
    gflat = g.reshape(-1)
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


def test_cost_gradient_h_matches_finite_differences():
    from echosep.optimizer import DataStats, moments

    rng = np.random.default_rng(16)
    x, u, state = make_instance(rng)

    def costfun(h):
        e = x - h[:, None, :] * u[:, :, None]
        s = np.einsum("fm,ftm->ft", state.w.conj(), e)
        return cost(state, covariance(e), s)  # w and the active mask held in state

    fd = wirtinger_grad_fd(costfun, state.h.copy())
    analytic = grad_h(state, DataStats.of(x, u), moments(x, u, state), normalize=False)
    assert np.linalg.norm(fd - analytic) <= 1e-5 * np.linalg.norm(analytic)


def test_cost_gradient_w_matches_finite_differences():
    from echosep.optimizer import moments

    rng = np.random.default_rng(17)
    x, u, state = make_instance(rng)
    e = x - state.h[:, None, :] * u[:, :, None]

    def contrast(w):
        s = np.einsum("fm,ftm->ft", w.conj(), e)
        return float(np.mean(model.neg_log_density_spherical(s)))

    fd = wirtinger_grad_fd(contrast, state.w.copy())
    analytic = moments(x, u, state).e_phi  # the w-gradient of J without its -a term
    assert np.linalg.norm(fd - analytic) <= 1e-5 * np.linalg.norm(analytic)


# ------------------------------------------------------------ transmission

def ideal_beamformer(a_soi, bg_mix):
    """Distortionless beamformer nulling every background column, per bin."""
    n_freqs, m = a_soi.shape
    w = np.zeros((n_freqs, m), dtype=complex)
    for f in range(n_freqs):
        mix = np.concatenate([a_soi[f][:, None], bg_mix[f]], axis=1)
        w[f] = np.linalg.inv(mix.conj().T)[:, 0]
    return w


def test_transmission_perfect_parameters_block_diagonal():
    rng = np.random.default_rng(18)
    n_freqs, m = 6, 3
    a_soi = crandn(rng, (n_freqs, m))
    bg_mix = crandn(rng, (n_freqs, m, m - 1))
    echo_atf = crandn(rng, (n_freqs, m))
    state = DemixState.initial(n_freqs, m)
    state.h = echo_atf.copy()
    state.w = ideal_beamformer(a_soi, bg_mix)
    state.a = a_soi.copy()
    v = transmission_matrix(state, a_soi, bg_mix, echo_atf)
    assert off_block_energy_db(v) <= -200.0


def test_transmission_unprocessed_leaks_first_echo_row():
    rng = np.random.default_rng(19)
    n_freqs, m = 5, 3
    a_soi = crandn(rng, (n_freqs, m))
    bg_mix = crandn(rng, (n_freqs, m, m - 1))
    echo_atf = crandn(rng, (n_freqs, m))
    state = DemixState.initial(n_freqs, m)  # h = 0, w = e1
    state.a = a_soi.copy()
    v = transmission_matrix(state, a_soi, bg_mix, echo_atf)
    np.testing.assert_allclose(v[:, 0, m], echo_atf[:, 0], atol=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_transmission_matrix_equals_the_blocking_matrix_formula(m):
    """Row 0 is w^H and the blocked rows B(a) applied to (a_soi, bg_mix, echo_atf - h)."""
    rng = np.random.default_rng(30 + m)
    n_freqs = 7
    a_soi, echo_atf = crandn(rng, (n_freqs, m)), crandn(rng, (n_freqs, m))
    bg_mix = crandn(rng, (n_freqs, m, m - 1))
    state = DemixState.initial(n_freqs, m)
    state.h, state.w, state.a = (crandn(rng, (n_freqs, m)) for _ in range(3))
    w, b = state.w, blocking_matrix(state.a)
    reference = np.zeros((n_freqs, m + 1, m + 1), dtype=complex)
    reference[:, 0, 0] = np.einsum("fm,fm->f", w.conj(), a_soi)
    reference[:, 0, 1:m] = np.einsum("fm,fmk->fk", w.conj(), bg_mix)
    reference[:, 0, m] = (np.einsum("fm,fm->f", w.conj(), echo_atf)
                          - np.einsum("fm,fm->f", w.conj(), state.h))
    reference[:, 1:m, 0] = np.einsum("fkm,fm->fk", b, a_soi)
    reference[:, 1:m, 1:m] = np.einsum("fkm,fmj->fkj", b, bg_mix)
    reference[:, 1:m, m] = np.einsum("fkm,fm->fk", b, echo_atf) - np.einsum("fkm,fm->fk", b, state.h)
    reference[:, m, m] = 1.0
    np.testing.assert_allclose(transmission_matrix(state, a_soi, bg_mix, echo_atf), reference,
                               rtol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_off_block_energy_equals_the_masked_formula(m):
    """The direct off-block sum equals the total minus the 1/(M-1)/1 diagonal blocks."""
    rng = np.random.default_rng(40 + m)
    v = crandn(rng, (7, m + 1, m + 1))
    mask = np.zeros((m + 1, m + 1), dtype=bool)
    mask[0, 0] = mask[m, m] = True
    mask[1:m, 1:m] = True
    power = np.abs(v) ** 2
    reference = 10.0 * np.log10(np.sum(power * ~mask) / np.sum(power))
    assert off_block_energy_db(v) == pytest.approx(reference, rel=1e-12)


def test_score_stats_requires_two_frames():
    with pytest.raises(ValueError):
        score_stats(np.ones((4, 1), dtype=complex))
