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
    "background_covariance",
    "background_power",
    "apply_demixer",
    "orthogonal_constraint_atf",
    "score_spherical",
    "score_gauss",
    "score_stats",
    "covariance",
    "loaded_inverse",
    "interference_whitener",
    "cost",
    "transmission_matrix",
    "off_block_energy_db",
]

# Floor on the broadband frame radius; silent frames carry no gradient and no
# curvature.
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
        alone, so the driver forms it at the start and whenever h moves
    R : (F, M, M) interference whitener B^H C_zz^{-1} B with C_zz = B C_ee B^H
        the background covariance and C_zz^{-1} its loaded_inverse; no update
        reads it, so the driver forms both once per iteration for the cost
        record, and only when RunConfig.records is set (None otherwise)
    active : (F,) bool, bins currently updated (False = frozen/degenerate)
    """

    h: np.ndarray
    w: np.ndarray
    a: np.ndarray
    C_ee: np.ndarray = None
    R: np.ndarray = None
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


def background_covariance(a, C_ee):
    """C_zz = B C_ee B^H for B = blocking_matrix(a), per bin, from (F, M) and (F, M, M).

    Written out elementwise from B = (g, -gamma I) and a Hermitian C_ee: with
    c00 = C_ee[0, 0], c1 = C_ee[1:, 0] and C11 = C_ee[1:, 1:],
    C_zz = |gamma|^2 C11 + (c00 g - gamma c1) g^H - g (gamma c1)^H.
    Products over the stack avoid the per-bin dispatch of a batched triple
    product, which costs about twice as much at F=1025, M=4.
    """
    gamma = a[:, :1, None]
    g = a[:, 1:, None]
    gamma_c1 = gamma * C_ee[:, 1:, :1]
    c = (gamma.real ** 2 + gamma.imag ** 2) * C_ee[:, 1:, 1:]
    c += (C_ee[:, :1, :1] * g - gamma_c1) * np.conj(np.swapaxes(g, 1, 2))
    c -= g * np.conj(np.swapaxes(gamma_c1, 1, 2))
    return c


def background_power(a, C_ee):
    """tr(B C_ee B^H) for B = blocking_matrix(a), per bin, without forming C_zz.

    The trace of background_covariance: |gamma|^2 tr C11 + c00 |g|^2
    - 2 Re(gamma g^H c1) in the same notation, for a Hermitian C_ee.
    """
    gamma = a[:, 0]
    g = a[:, 1:]
    tr11 = np.einsum("fkk->f", C_ee[:, 1:, 1:]).real
    g_c1 = np.sum(g.conj() * C_ee[:, 1:, 0], axis=1)
    return ((gamma.real ** 2 + gamma.imag ** 2) * tr11
            + C_ee[:, 0, 0].real * np.sum(g.real ** 2 + g.imag ** 2, axis=1)
            - 2.0 * (gamma * g_c1).real)


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
    b = blocking_matrix(state.a)
    z_hat = np.einsum("fkm,ftm->ftk", b, e)
    return e, s_hat, z_hat


def orthogonal_constraint_atf(C_ee, w):
    """Steering-vector estimate a = C_ee w / (w^H C_ee w) per bin, with its mask.

    Enforces the decorrelation of background and source estimates; by
    construction w^H a = 1. Takes (F, M, M) and (F, M) stacks and returns
    (a, ok); bins whose w^H C_ee w is not finite or not above tiny in
    magnitude get a = 0 and ok False.
    """
    cw = (C_ee @ w[:, :, None])[:, :, 0]
    denom = np.sum(w.conj() * cw, axis=1)
    ok = np.isfinite(denom) & (np.abs(denom) > np.finfo(float).tiny)
    return np.where(ok[:, None], cw / np.where(ok, denom, 1.0)[:, None], 0.0), ok


def score_spherical(s_hat):
    """Score of the broadband spherical source model and its mean curvature per bin.

    Takes s_hat (F, T) and returns (phi, rho): phi_ft = conj(s_ft) / r_t, with
    r_t = sqrt(sum_f |s_ft|^2) the frame radius, and rho (F,) the frame mean
    of the same-bin Wirtinger derivative d phi_ft / d s_ft* = 1/r_t -
    |s_ft|^2 / (2 r_t^3). |s|^2 is formed once; rho is mean_t(1/r_t) minus
    one matrix-vector product of |s|^2 with 1/(2 r^3). Frames whose radius is
    at most SCORE_RADIUS_FLOOR (silent in every bin) get 1/r = 0.
    """
    s = np.asarray(s_hat, dtype=np.complex128)
    # Updates in place: at F=256, T=300 each further full-size temporary
    # costs about as much as the arithmetic done on it.
    mag2 = s.real ** 2
    mag2 += s.imag ** 2
    r = np.sqrt(np.sum(mag2, axis=0))
    inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=r > SCORE_RADIUS_FLOOR)
    phi = np.conj(s)
    phi *= inv_r
    rho = np.mean(inv_r) - mag2 @ (0.5 * inv_r ** 3) / s.shape[1]
    return phi, rho


def score_gauss(s_hat):
    """Score of a stationary unit-variance Gaussian source: phi = conj(s), rho = 1 per bin."""
    s = np.asarray(s_hat, dtype=np.complex128)
    return s.conj(), np.ones(s.shape[0])


def score_stats(s_hat, score=score_spherical):
    """nu = E[s_hat phi] and rho = E[d phi / d s_hat*] per frequency bin.

    nu is the frame mean of s_hat * phi, formed directly: a reference for the
    closed form that optimizer.moments uses.
    """
    if s_hat.shape[1] < 2:
        raise ValueError("score statistics need at least 2 frames")
    phi, rho = score(s_hat)
    return ScoreStats(nu=np.mean(s_hat * phi, axis=1), rho=rho)


def covariance(frames):
    """Sample covariance (1/T) sum_t v v^H, (..., T, M) -> (..., M, M).

    Kept unloaded; loading (load_diagonal) is applied where inverses are
    taken.
    """
    v = np.asarray(frames, dtype=np.complex128)
    if v.shape[-2] < 1:
        raise ValueError("covariance needs at least one frame")
    c = np.swapaxes(v, -1, -2) @ v.conj() / v.shape[-2]
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


def loaded_inverse(c, loading=DEFAULT_LOADING):
    """(inverse, ok) of load_diagonal(c, loading) for a (F, K, K) stack.

    Non-finite or zero-trace bins take the identity in the one batched
    inversion and drop out, so one dead bin does not send the whole batch
    down the per-bin path. A bin whose batched inversion fails or is not
    finite gets a plain inversion and one loaded retry on its own, then drops
    out. Bins that drop out get a zero inverse and ok False.
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


def interference_whitener(a, C_zz, loading=DEFAULT_LOADING):
    """R = B^H C_zz^{-1} B for B = blocking_matrix(a), with a mask of invertible bins.

    X = loaded_inverse(C_zz, loading), so bins whose C_zz is numerically dead
    (zero trace or non-finite) get R = 0 and ok=False; callers freeze them.
    Written out elementwise from B = (g, -gamma I) as in background_covariance,
    with X symmetrised so R is exactly Hermitian: R00 = g^H X g, R[1:, 0] =
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


def cost(state, C_ee, s_hat):
    """Diagnostic cost: E[-log p(s_hat)] + sum_f tr(R C_ee) - (M-2) sum_f log|gamma|^2.

    C_ee is the error covariance E[e e^H] at the h that gave s_hat; the
    middle term is E[sum_f e^H R e]. Never used by the updates; serves
    convergence monitoring and finite-difference validation of the gradients.
    """
    m = state.n_channels
    quad = float(np.einsum("fmn,fnm->", state.R, C_ee).real)
    j = float(np.mean(neg_log_density_spherical(s_hat))) + quad
    if m != 2:
        gamma = state.a[:, 0]
        mag2 = np.abs(gamma) ** 2
        if np.any(mag2 <= 0.0):
            raise NumericsError("degenerate steering estimate: gamma = 0")
        j -= (m - 2) * float(np.sum(np.log(mag2)))
    return j


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
    v[:, 0, :] = np.einsum("fm,fmk->fk", state.w.conj(), cols)
    v[:, 1:m, :] = state.a[:, 1:, None] * cols[:, :1, :]
    v[:, 1:m, :] -= state.a[:, :1, None] * cols[:, 1:, :]
    v[:, m, m] = 1.0
    return v


def off_block_energy_db(v):
    """Energy outside the 1/(M-1)/1 diagonal blocks over total energy, in dB."""
    v = np.asarray(v)
    m = v.shape[-1] - 1
    mask = np.zeros((m + 1, m + 1), dtype=bool)
    mask[0, 0] = True
    mask[1:m, 1:m] = True
    mask[m, m] = True
    total = float(np.sum(np.abs(v) ** 2))
    off = float(np.sum(np.abs(v) ** 2 * (~mask)))
    if total <= 0.0:
        return -np.inf
    return 10.0 * np.log10(max(off / total, 1e-300))
