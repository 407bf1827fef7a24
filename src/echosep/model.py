"""Demixing model: parameter state, constraint constructions, score statistics.

The estimator is a cascade of an echo-cancelling filter h (subtracting the
loudspeaker contribution from each microphone) and a beamformer w extracting a
single source of interest from the error signal e. The background estimate z
is obtained through a blocking matrix built from the steering-vector estimate
a, which itself is tied to w through an orthogonality (decorrelation)
constraint. Everything is per frequency bin; the source model couples bins
only through the broadband score function.

Array conventions: signals are (n_freqs, n_frames) or (n_freqs, n_frames,
n_channels); per-bin parameters are stacked on a leading frequency axis.
"""

import numpy as np
from dataclasses import dataclass

__all__ = [
    "NumericsError",
    "DemixState",
    "ScoreStats",
    "blocking_matrix",
    "orthogonal_constraint_atf",
    "score_spherical",
    "score_stats",
    "covariance",
    "loaded_inverse",
    "interference_whitener",
    "log_det_terms",
    "cost",
    "transmission_matrix",
    "off_block_energy_db",
]

# Floor on the broadband frame radius, as a share of the pass's largest one;
# frames below it (silent in every bin) carry no gradient and no curvature.
SCORE_RADIUS_FLOOR = 1e-12
# Relative diagonal loading applied to covariances before inversion.
DEFAULT_LOADING = 1e-6


class NumericsError(RuntimeError):
    """Raised when a numerical precondition fails (degenerate covariance etc.)."""


@dataclass
class DemixState:
    """Per-frequency parameters and cached statistics of the demixer.

    h : (F, M) echo-path filter estimates
    w : (F, M) extraction beamformer
    a : (F, M) steering-vector estimate tied to w by the orthogonal constraint
    C_ee : (F, M, M) sample covariance of the error signal e; depends on h
        alone, so the driver forms it at the start and after each echo step
    active : (F,) bool, the live bins (False = frozen): the loaded C_ee has
        an inverse and w^H C_ee w is non-degenerate
    """

    h: np.ndarray
    w: np.ndarray
    a: np.ndarray
    C_ee: np.ndarray = None
    active: np.ndarray = None

    @classmethod
    def initial(cls, n_freqs, n_channels):
        """Pass-through initialization: h = 0, w = a = first unit vector."""
        h = np.zeros((n_freqs, n_channels), dtype=np.complex128)
        w = np.zeros((n_freqs, n_channels), dtype=np.complex128)
        w[:, 0] = 1.0
        return cls(h=h, w=w, a=w.copy(), active=np.ones(n_freqs, dtype=bool))

    @property
    def n_freqs(self):
        return self.h.shape[0]

    @property
    def n_channels(self):
        return self.h.shape[1]


@dataclass
class ScoreStats:
    """Per-frequency time averages of the score function and its derivative.

    nu : (F,) E[s_hat * phi]        (score normalizer)
    rho : (F,) E[d phi / d s_hat*]
    """

    nu: np.ndarray
    rho: np.ndarray


def blocking_matrix(a):
    """Construct the blocking matrix annihilating the steering direction a.

    For a = (gamma, g^T)^T the matrix is B = (g, -gamma * I), which satisfies
    B a = 0 identically. Accepts a single vector (M,) or a stack (F, M) and
    returns (M-1, M) or (F, M-1, M) accordingly.
    """
    a = np.asarray(a, dtype=np.complex128)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    n_freqs, m = a.shape
    if m < 2:
        raise ValueError("blocking matrix needs at least 2 channels")
    b = np.zeros((n_freqs, m - 1, m), dtype=np.complex128)
    b[:, :, 0] = a[:, 1:]
    idx = np.arange(m - 1)
    b[:, idx, idx + 1] = -a[:, :1]
    return b[0] if single else b


def orthogonal_constraint_atf(C_ee, w, cw=None):
    """Steering-vector estimate a = C_ee w / (w^H C_ee w) per bin, with its mask.

    Enforces the decorrelation of background and source estimates; by
    construction w^H a = 1. Takes (F, M, M) and (F, M) stacks (and C_ee w,
    if formed) and returns (a, ok); bins whose w^H C_ee w is not finite or
    not above tiny in magnitude get a = 0 and ok False.
    """
    cw = (C_ee @ w[:, :, None])[:, :, 0] if cw is None else cw
    denom = np.einsum("fm,fm->f", w.conj(), cw)
    ok = np.isfinite(denom) & (np.abs(denom) > np.finfo(float).tiny)
    return np.where(ok[:, None], cw / np.where(ok, denom, 1.0)[:, None], 0.0), ok


def score_spherical(s_hat):
    """Score of the broadband spherical source model and two frame means per bin.

    Takes s_hat (F, T) and returns (phi, rho, nu): phi_ft = conj(s_ft) / r_t,
    with r_t = sqrt(sum_f |s_ft|^2) the frame radius, rho (F,) the frame mean
    of the same-bin Wirtinger derivative d phi_ft / d s_ft* = 1/r_t -
    |s_ft|^2 / (2 r_t^3), and the real nu (F,) = E[s phi] = mean_t |s_ft|^2 / r_t.
    |s|^2 is formed once; r^2 is one matrix-vector product of ones with it,
    rho is mean_t(1/r_t) minus one of |s|^2 with 1/(2 r^3), and nu one with
    1/r. Frames whose radius is at most SCORE_RADIUS_FLOOR times the largest
    frame radius (silent in every bin) get 1/r = 0, so the rule does not
    depend on the data's scale.
    """
    s = np.asarray(s_hat, dtype=np.complex128)
    # Updates in place: at F=256, T=300 each further full-size temporary
    # costs about as much as the arithmetic done on it.
    mag2 = s.real ** 2
    mag2 += s.imag ** 2
    r = np.sqrt(np.ones(len(mag2)) @ mag2)
    inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=r > SCORE_RADIUS_FLOOR * r.max())
    phi = np.conj(s)
    phi *= inv_r
    n_frames = s.shape[1]
    rho = np.mean(inv_r) - mag2 @ (0.5 * inv_r ** 3) / n_frames
    return phi, rho, mag2 @ inv_r / n_frames


def score_stats(s_hat, score=score_spherical):
    """nu = E[s_hat phi] and rho = E[d phi / d s_hat*] per frequency bin.

    nu is the frame mean of s_hat * phi, formed elementwise: a reference for
    the nu that the score returns from |s|^2.
    """
    if s_hat.shape[1] < 2:
        raise ValueError("score statistics need at least 2 frames")
    phi, rho, _ = score(s_hat)
    return ScoreStats(nu=np.mean(s_hat * phi, axis=1), rho=rho)


def covariance(frames):
    """Sample covariance (1/T) sum_t v v^H, (..., T, M) -> (..., M, M).

    Kept unloaded; loading (load_diagonal) is applied where inverses are
    taken.
    """
    v = np.asarray(frames, dtype=np.complex128)
    if v.shape[-2] < 1:
        raise ValueError("covariance needs at least one frame")
    # One real Gram matrix G of the interleaved (re, im) columns, so no
    # conjugated copy of v is formed: Re c = G_rr + G_ii, Im c = G_ir - G_ri.
    vr = np.ascontiguousarray(v).view(np.float64)
    g = np.swapaxes(vr, -1, -2) @ vr
    c = np.empty(v.shape[:-2] + (v.shape[-1],) * 2, dtype=np.complex128)
    c.real = g[..., 0::2, 0::2] + g[..., 1::2, 1::2]
    c.imag = g[..., 1::2, 0::2] - g[..., 0::2, 1::2]
    c /= v.shape[-2]
    # force exact Hermitian symmetry against accumulation error
    return 0.5 * (c + np.conj(np.swapaxes(c, -1, -2)))


def load_diagonal(c, loading=DEFAULT_LOADING):
    """Add loading*tr(C)/dim to the diagonal of (..., M, M) matrices."""
    c = np.array(c, dtype=np.complex128, copy=True)
    m = c.shape[-1]
    tr = np.einsum("...mm->...", c).real / m
    idx = np.arange(m)
    c[..., idx, idx] += loading * tr[..., None]
    return c


def _gauss_jordan(a):
    """Invert each (K, K) slice of a contiguous (K, K, F) stack in place, without pivoting.

    Each step divides the pivot row, then updates the other rows one at a
    time through one (K, F) buffer: every operation runs over length-F rows.
    A pivot that is not finite or has no positive real part, which a Hermitian
    positive definite matrix never has, turns its bin's slice into NaN.
    """
    buf = np.empty_like(a[0])
    with np.errstate(all="ignore"):  # such a bin may overflow before it turns NaN
        for k in range(a.shape[0]):
            pivot = np.where(np.isfinite(a[k, k]) & (a[k, k].real > 0.0), a[k, k], np.nan)
            a[k, k] = 1.0
            a[k] /= pivot  # row k, with 1 / pivot in column k
            for i in range(a.shape[0]):
                if i != k:  # a_ij -= a_ik a_kj off column k, and a_ik = -a_ik / pivot
                    a[i] -= np.multiply(a[i, k], a[k], out=buf)
                    a[i, k] = -buf[k]
    return a


def loaded_inverse(c, loading=DEFAULT_LOADING):
    """(inverse, ok) of load_diagonal(c, loading) for a (F, K, K) stack.

    A loaded covariance is Hermitian positive definite, so one elimination
    without pivoting (_gauss_jordan) on a contiguous (K, K, F) copy inverts
    every bin; the inverse is that copy seen as (F, K, K), with no
    transposing copy back, so its entries are contiguous length-F rows and a
    batched product with it takes numpy's own loop, not one BLAS call per
    bin. A bin whose inverse is not finite (a zero, non-finite or indefinite
    matrix meets an unhealthy pivot) gets a zero inverse and ok False.
    """
    a = np.ascontiguousarray(np.moveaxis(load_diagonal(c, loading), 0, -1))
    ok = np.all(np.isfinite(_gauss_jordan(a)), axis=(0, 1))
    inverse = np.moveaxis(a, -1, 0)
    inverse[~ok] = 0.0
    return inverse, ok


def interference_whitener(a, C_zz, loading=DEFAULT_LOADING):
    """R = B^H C_zz^{-1} B for B = blocking_matrix(a), with a mask of invertible bins.

    X = loaded_inverse(C_zz, loading), so bins whose loaded C_zz has no
    inverse get R = 0 and ok=False. Unloaded, at the OGC a and C_zz =
    B C_ee B^H, R equals the matrix C_ee^{-1} - w w^H / sigma^2 of cost's
    h-gradient. Written out elementwise from B = (g, -gamma I), with X
    symmetrised so R is exactly Hermitian: R00 = g^H X g, R[1:, 0] =
    -conj(gamma) X g, R[0, 1:] its conjugate, and R[1:, 1:] = |gamma|^2 X.
    """
    inverse, ok = loaded_inverse(C_zz, loading)
    x = 0.5 * (inverse + np.conj(np.swapaxes(inverse, 1, 2)))
    gamma, g = a[:, :1], a[:, 1:]
    xg = np.sum(x * g[:, None, :], axis=2)
    r = np.empty(a.shape + a.shape[1:], dtype=np.complex128)
    r[:, 0, 0] = np.sum(g.conj() * xg, axis=1).real
    r[:, 1:, 0] = -np.conj(gamma) * xg
    r[:, 0, 1:] = np.conj(r[:, 1:, 0])
    r[:, 1:, 1:] = (gamma.real ** 2 + gamma.imag ** 2)[:, :, None] * x
    return r, ok


def neg_log_density_spherical(s_hat):
    """Per-frame -log p for the spherical model, 2*r, constants dropped."""
    return 2.0 * np.sqrt(np.sum(np.abs(s_hat) ** 2, axis=0))


def log_det_terms(state, C_ee):
    """J's terms beyond E[-log p(s_hat)]: sum_f [log det C_ee - log sigma_f^2].

    sigma_f^2 = w^H C_ee w, and the sum runs over the state's active bins. An
    active bin whose C_ee is not positive definite, or whose sigma^2 is not
    positive, raises NumericsError.
    """
    c, w = C_ee[state.active], state.w[state.active]
    sigma2 = np.einsum("fm,fmn,fn->f", w.conj(), c, w).real
    try:  # log det C_ee = 2 sum_k log L_kk for the Cholesky factor L
        logdet = 2.0 * np.sum(np.log(np.einsum("fkk->fk", np.linalg.cholesky(c)).real), axis=1)
    except np.linalg.LinAlgError:  # not positive definite
        logdet = np.nan
    if not (np.all(np.isfinite(logdet)) and np.all(sigma2 > 0.0)):
        raise NumericsError("degenerate error covariance or source power on an active bin")
    return float(np.sum(logdet - np.log(sigma2)))


def cost(state, C_ee, s_hat):
    """Profile likelihood J = E[-log p(s_hat)] + sum_f [log det C_ee - log sigma_f^2].

    C_ee is the error covariance E[e e^H] at the h that gave s_hat and
    sigma_f^2 = w^H C_ee w; the log terms (log_det_terms) sum over the
    state's active bins. They equal the OGC likelihood's log det C_zz -
    (M-2) log|gamma|^2 by the identity log det C_zz = log det C_ee + (M-2)
    log|gamma|^2 - log sigma^2, for C_zz = B C_ee B^H and a = C_ee w /
    sigma^2, so J needs no B or C_zz. Never used by the updates; serves
    convergence monitoring and finite-difference validation of the
    gradients. Raises NumericsError where log_det_terms does.
    """
    return float(np.mean(neg_log_density_spherical(s_hat))) + log_det_terms(state, C_ee)


def transmission_matrix(state, a_soi, bg_mix, echo_atf):
    """Overall source-to-estimate transmission per bin, (F, M+1, M+1).

    Rows map (true source, true background sources, loudspeaker) to
    (s_hat, z_hat, u) through the current demixer; built from the state's
    w, a and h together with the true mixing parameters. Block-diagonality
    of the result measures separation quality. Row 0 is w^H and the blocked
    rows B = (g, -gamma I), written out elementwise, times the columns
    [a_soi | bg_mix | echo_atf - h] that the microphones see.
    """
    n_freqs, m = state.w.shape
    cols = np.concatenate([a_soi[:, :, None], bg_mix, (echo_atf - state.h)[:, :, None]],
                          axis=2)  # (F, M, M+1)
    v = np.zeros((n_freqs, m + 1, m + 1), dtype=np.complex128)
    v[:, 0, :] = (state.w.conj()[:, None, :] @ cols)[:, 0, :]
    v[:, 1:m, :] = state.a[:, 1:, None] * cols[:, :1, :]
    v[:, 1:m, :] -= state.a[:, :1, None] * cols[:, 1:, :]
    v[:, m, m] = 1.0
    return v


def off_block_energy_db(v):
    """Energy outside the 1/(M-1)/1 diagonal blocks over total energy, in dB.

    The off-block entries are summed directly: row 0 past its first entry,
    the first and last columns of rows 1..M-1, and row M before its last.
    """
    v = np.asarray(v)
    m = v.shape[-1] - 1
    p = v.real ** 2 + v.imag ** 2
    total = float(np.sum(p))
    off = float(np.sum(p[..., 0, 1:]) + np.sum(p[..., 1:m, 0]) + np.sum(p[..., 1:m, m])
                + np.sum(p[..., m, :m]))
    if total <= 0.0:
        return -np.inf
    return 10.0 * np.log10(max(off / total, 1e-300))
