"""Dense reference forms that the tests check the package against.

The package takes these in closed form, or has no use for them outside the
tests: the demixing cascade applied frame by frame, the background
covariance B C_ee B^H, the h-gradient matrix R of the cost J, J's
h-gradient (grad_h) and the Newton curvature of the echo-path step
(hessian_h) that update_aec solves in closed form, the Gaussian score
(score_gauss) under which that step is the least-squares step, the
pseudo-power ratio (circularity_check) that justifies a circular model of
the loudspeaker signal, the LAPACK loaded inverse that the package's
elimination replaces, the steering-vector refresh in batched form, and the
scene renderer's draws and mixer as expressions that form a new array per
step, which the package's in-place forms replace.
"""

import numpy as np

from echosep.model import DEFAULT_LOADING, blocking_matrix, load_diagonal, loaded_inverse
from echosep.optimizer import DEAD_BIN_FLOOR
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


def score_gauss(s_hat):
    """Score of a unit-variance stationary Gaussian: phi = conj(s), rho = 1, nu = E[|s|^2]."""
    s = np.asarray(s_hat, dtype=np.complex128)
    return s.conj(), np.ones(s.shape[0]), np.mean(s.real ** 2 + s.imag ** 2, axis=1)


def circularity_check(u):
    """Per-bin |E[u^2]| / E[|u|^2]; near zero for circular signals."""
    if u.shape[1] < 2:
        raise ValueError("circularity check needs at least 2 frames")
    pseudo = np.abs(np.mean(u**2, axis=1))
    power = np.mean(np.abs(u) ** 2, axis=1)
    return np.divide(pseudo, power, out=np.zeros_like(power), where=power > 0)


def score_weight(nu, normalize=True):
    """1/nu per bin (0 where the normalizer is dead), or 1 without normalization."""
    if not normalize:
        return np.ones_like(nu)
    live = np.abs(nu) > DEAD_BIN_FLOOR
    return np.where(live, 1.0 / np.where(live, nu, 1.0), 0.0)


def grad_h(state, data, mom, normalize=True):
    """Gradient of the cost J w.r.t. conj(h): -(E[phi* u*]/nu* w + R E[e u*]) per bin.

    R = C_ee^{-1} - w w^H / sigma^2, with sigma^2 = w^H C_ee w, from the
    state's C_ee and w, is the gradient of J's log terms; bins whose C_ee has
    no inverse or whose sigma^2 is not positive get R = 0. R a = 0 for
    a = C_ee w / sigma^2, which lets update_aec step in closed form. With
    normalize=False the score is used raw (no nu division), matching the
    plain gradient of J that finite differences reproduce.
    """
    weight = np.conj(mom.u_phi * score_weight(mom.nu, normalize))
    inverse, ok = loaded_inverse(state.C_ee, 0.0)
    sigma2 = np.einsum("fm,fmn,fn->f", state.w.conj(), state.C_ee, state.w).real
    ok &= sigma2 > np.finfo(float).tiny
    r = data.error_cross(state.h)
    w_r = np.sum(state.w.conj() * r, axis=1) / np.where(ok, sigma2, 1.0)
    r_eu = (inverse @ r[:, :, None])[:, :, 0] - w_r[:, None] * state.w
    return -(weight[:, None] * state.w + np.where(ok[:, None], r_eu, 0.0))


def hessian_h(state, data, mom, normalize=True):
    """Curvature matrix of the echo-path Newton step, per bin.

    (R + (rho*/nu*) w w^H) * E[|u|^2] with R = cost_whitener(C_ee, w); with
    normalize=False the rho*/nu* weight is replaced by plain rho* (the
    unnormalized second derivative). update_aec solves with it in closed
    form and never forms it. For M = 1 with a Gaussian score this reduces to
    E[|u|^2]. Only mom.nu and mom.rho are read, so a ScoreStats serves as
    well as Moments.
    """
    weight = np.conj(mom.rho * score_weight(mom.nu, normalize))
    outer = state.w[:, :, None] * state.w.conj()[:, None, :]
    r = cost_whitener(state.C_ee, state.w)
    return (r + weight[:, None, None] * outer) * data.P_u[:, None, None]


def lapack_loaded_inverse(c, loading=DEFAULT_LOADING):
    """The inverse of load_diagonal(c, loading) by one batched np.linalg.inv.

    The reference for model.loaded_inverse on Hermitian positive definite bins.
    """
    return np.linalg.inv(load_diagonal(c, loading))


def refresh_batched(C_ee, w, a_old):
    """(a, ok) as the driver's refresh forms them, with the batched sums.

    a = C_ee w / (w^H C_ee w) where that denominator is finite and above
    tiny in magnitude, else a_old and ok False. The driver's active mask is
    this ok and-ed with the loaded inverse's.
    """
    cw = (C_ee @ w[:, :, None])[:, :, 0]
    denom = np.sum(w.conj() * cw, axis=1)
    ok = np.isfinite(denom) & (np.abs(denom) > np.finfo(float).tiny)
    return np.where(ok[:, None], cw / np.where(ok, denom, 1.0)[:, None], a_old), ok


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
