"""Dense reference forms that the tests check the package against.

The package takes these in closed form, or has no use for them outside the
tests: the demixing cascade applied frame by frame, the background
covariance B C_ee B^H, the h-gradient matrix R of the cost J, the Newton
curvature of the echo-path step, the LAPACK loaded inverse that the
package's elimination replaces, the active-bin refresh in the batched
form that the package's sums over length-F rows replace, and the scene
renderer's draws and mixer as expressions that form a new array per step,
which the package's in-place forms replace.
"""

import numpy as np

from echosep.model import DEFAULT_LOADING, blocking_matrix, load_diagonal
from echosep.optimizer import BACKGROUND_FLOOR, _score_weight
from echosep.scenegen import COMPONENTS, _power


def apply_demixer(x, u, state):
    """Run the demixing cascade on microphone and loudspeaker spectra.

    e = x - h u (echo-cancelled error), s_hat = w^H e (source estimate),
    z_hat = B(a) e (background estimate).
    """
    if x.shape[2] != state.n_channels:
        raise ValueError(
            f"microphone channel count {x.shape[2]} does not match state ({state.n_channels})"
        )
    e = x - state.h[:, None, :] * u[:, :, None]
    s_hat = np.einsum("fm,ftm->ft", state.w.conj(), e)
    z_hat = np.einsum("fkm,ftm->ftk", blocking_matrix(state.a), e)
    return e, s_hat, z_hat


def background_covariance(a, C_ee):
    """C_zz = B C_ee B^H for B = blocking_matrix(a), per bin."""
    b = blocking_matrix(a)
    return b @ C_ee @ np.conj(np.swapaxes(b, 1, 2))


def cost_whitener(C_ee, w):
    """R = C_ee^{-1} - w w^H / sigma^2 with sigma^2 = w^H C_ee w, per bin.

    The matrix of J's h-gradient; zero on bins whose C_ee is singular or
    whose sigma^2 is not positive.
    """
    sigma2 = np.einsum("fm,fmn,fn->f", w.conj(), C_ee, w).real
    ok = (np.abs(np.linalg.det(C_ee)) > 0.0) & (sigma2 > 0.0)
    inverse = np.linalg.inv(np.where(ok[:, None, None], C_ee, np.eye(C_ee.shape[-1])))
    outer = w[:, :, None] * w.conj()[:, None, :] / np.where(ok, sigma2, 1.0)[:, None, None]
    return np.where(ok[:, None, None], inverse - outer, 0.0)


def hessian_h(state, data, mom, normalize=True):
    """Curvature matrix of the echo-path Newton step, per bin.

    (R + (rho*/nu*) w w^H) * E[|u|^2] with R = cost_whitener(C_ee, w); with
    normalize=False the rho*/nu* weight is replaced by plain rho* (the
    unnormalized second derivative). update_aec solves with it in closed
    form and never forms it. For M = 1 with a Gaussian score this reduces to
    E[|u|^2]. Only mom.nu and mom.rho are read, so a ScoreStats serves as
    well as Moments.
    """
    weight = np.conj(mom.rho * _score_weight(mom.nu, normalize))
    outer = state.w[:, :, None] * state.w.conj()[:, None, :]
    r = cost_whitener(state.C_ee, state.w)
    return (r + weight[:, None, None] * outer) * data.P_u[:, None, None]


def lapack_loaded_inverse(c, loading=DEFAULT_LOADING):
    """(inverse, ok) of load_diagonal(c, loading) by one batched np.linalg.inv.

    The reference for model.loaded_inverse. Non-finite or zero-trace bins take
    the identity in the batch and drop out. A bin whose batched inversion
    fails or is not finite gets a plain inversion and one loaded retry on its
    own, then drops out. Bins that drop out get a zero inverse and ok False.
    """
    loaded = load_diagonal(c, loading)
    eye = np.eye(loaded.shape[-1])
    ok = (np.all(np.isfinite(loaded), axis=(1, 2))
          & (np.einsum("fkk->f", loaded).real > np.finfo(float).tiny))
    try:
        inverse = np.linalg.inv(np.where(ok[:, None, None], loaded, eye))
        bad = ok & ~np.all(np.isfinite(inverse), axis=(1, 2))
    except np.linalg.LinAlgError:
        inverse, bad = np.zeros_like(loaded), ok.copy()
    for f in np.nonzero(bad)[0]:
        ok[f] = False
        for mat in (loaded[f], load_diagonal(loaded[f], loading)):  # plain, then loaded
            try:
                candidate = np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(candidate)):
                inverse[f], ok[f] = candidate, True
                break
    inverse[~ok] = 0.0
    return inverse, ok


def background_power_batched(a, C_ee):
    """tr(B C_ee B^H) = |gamma|^2 tr C11 + c00 |g|^2 - 2 Re(gamma g^H c1), summed over axis 1."""
    gamma = a[:, 0]
    g = a[:, 1:]
    tr11 = np.einsum("fkk->f", C_ee[:, 1:, 1:]).real
    g_c1 = np.sum(g.conj() * C_ee[:, 1:, 0], axis=1)
    return ((gamma.real ** 2 + gamma.imag ** 2) * tr11
            + C_ee[:, 0, 0].real * np.sum(g.real ** 2 + g.imag ** 2, axis=1)
            - 2.0 * (gamma * g_c1).real)


def background_floor_batched(a, C_ee):
    """BACKGROUND_FLOOR times tr C_ee / M times |B|_F^2 / (M - 1) for B = (g, -gamma I)."""
    m = a.shape[1]
    e_scale = np.einsum("fmm->f", C_ee).real / m
    b_scale = np.abs(a[:, 0]) ** 2 + np.sum(np.abs(a[:, 1:]) ** 2, axis=1) / (m - 1)
    return BACKGROUND_FLOOR * e_scale * b_scale


def refresh_batched(C_ee, w, a_old):
    """(a, active) as the driver's refresh forms them, with the batched sums.

    a = C_ee w / (w^H C_ee w) where that denominator is finite and above
    tiny in magnitude, else a_old and the bin frozen; an active bin also
    needs a floored background trace that is finite and above tiny.
    """
    cw = (C_ee @ w[:, :, None])[:, :, 0]
    denom = np.sum(w.conj() * cw, axis=1)
    ok = np.isfinite(denom) & (np.abs(denom) > np.finfo(float).tiny)
    a = np.where(ok[:, None], cw / np.where(ok, denom, 1.0)[:, None], a_old)
    m = a.shape[1]
    tr = background_power_batched(a, C_ee) + (m - 1) * background_floor_batched(a, C_ee)
    return a, ok & np.isfinite(tr) & (tr > np.finfo(float).tiny)


def circular_gauss(rng, shape):
    """Unit-power circular complex Gaussian draws: real parts first, then imaginary."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def spherical_nongauss(rng, n_freqs, n_frames):
    """Circular unit vectors across frequency, one per frame, times an exponential radius."""
    g = circular_gauss(rng, (n_freqs, n_frames))
    g /= np.linalg.norm(g, axis=0, keepdims=True)
    radius = rng.exponential(scale=1.0, size=n_frames)
    radius *= np.sqrt(n_freqs / np.mean(radius**2))
    return g * radius[None, :]


def mix(raw, cfg):
    """Raw (soi, echo, interference, noise) images scaled to cfg's ratios, and their sum.

    The echo keeps its level; returns (images, mixture, gains).
    """
    images = dict(zip(COMPONENTS, raw))
    p_echo = _power(images["echo"])
    ratios_db = {"soi": cfg.ser_db, "interference": cfg.ier_db, "noise": -cfg.enr_db}
    gains = {name: float(np.sqrt(p_echo * 10.0 ** (db / 10.0) / _power(images[name])))
             for name, db in ratios_db.items()}
    gains["echo"] = 1.0
    for name in ratios_db:
        images[name] *= gains[name]
    mixture = images["soi"] + images["echo"] + images["interference"] + images["noise"]
    return images, mixture, gains
