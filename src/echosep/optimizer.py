"""Newton-type parameter updates, the iteration driver, and baseline algorithms.

Each iteration updates the echo-path filter h (an interference- and
source-aware multichannel block-NLMS step, a Newton step in closed form),
then the extraction beamformer w (a fast fixed-point step on the
echo-cancelled signal), then rescales w so the source estimate has unit
power. The iteration runs on sufficient statistics: the data enter through
C_xx = E[x x^H], E[x u*] and E[|u|^2], computed once per run, and through one
pass of score-weighted moments per half-step at the current filters. The
error covariance C_ee and the moments of the error signal e = x - h u follow
in closed form, so no run forms e: at the end the scale ambiguity of the
extracted source w^H x - (w^H h) u is resolved by projecting onto e's
reference channel, the one channel formed (RunResult.e forms e when read).

The schedule is fixed per algorithm. Before the first iteration the driver
forms C_ee(h) = C_LS + P_u d d^H, with d = h - h_LS, in closed form (a
rank-one update of the least-squares residual covariance), the loaded
inverse of C_ee (model.loaded_inverse), a and the active mask, and makes one
moment pass; BNLMS-IVE and IVE, which hold h, keep that inverse for the
whole run. A joint iteration takes the echo step on the pass it is given,
then forms C_ee at the new h, its loaded inverse and the BSE step's pass.
Every iteration then takes the BSE step, rescales w, refreshes a and the
mask from the held C_ee and the C_ee w that normalize_w forms, and makes the
pass that its record and the next iteration's first step read. Only a BSE
step reads E[e phi], so joint forms E[x phi] in its BSE step's pass alone, n
times in n iterations, and the others in every pass.

One rule decides which bins move: a bin is live (DemixState.active) while
its loaded C_ee has an inverse and its w^H C_ee w is non-degenerate, and a
step moves a live bin only where the step is finite (the echo step also
needs excitation). The floors left are relative to the data: DEAD_BIN_FLOOR
in error_covariance and model.SCORE_RADIUS_FLOOR in the score. A loudspeaker
without excitation in any bin leaves the echo step nothing to move, so joint
then runs as IVE; such a run, IVE's included, makes its passes with u = None,
which form no loudspeaker term. A pass takes nu = E[s phi] from the score's
|s|^2, and the per-bin M x M work (refresh, loaded inverse, steps) runs on
length-F rows.

With RunConfig.records set (the default) each iteration also writes an
IterationRecord: the profile likelihood J of model.cost, from the held C_ee
and the iteration's moment pass (its data term is 2 sum_f nu_f), filter
deltas, score medians and, given the truth, the off-block energy. Without it
none of these is formed, nor the last iteration's moment pass, which only
its record reads: n iterations make 2n passes (joint) or n, not 2n + 1 or
n + 1.

Baselines. BNLMS-IVE is the extraction update on the least-squares
echo-cancelled signal: one batch-NLMS step from any h lands on the
least-squares echo path h_LS, so the run starts there and never moves h.
IVE is the same run with no loudspeaker (h_LS = 0). LS-AEC and the
unprocessed condition form no beamformer: their output is the reference
channel of e at h_LS and at h = 0.
"""

import numpy as np
from dataclasses import asdict, dataclass, field

from .model import (
    DemixState,
    NumericsError,
    covariance,
    loaded_inverse,
    log_det_terms,
    off_block_energy_db,
    orthogonal_constraint_atf,
    score_spherical,
    transmission_matrix,
    DEFAULT_LOADING,
)

__all__ = [
    "RunConfig",
    "IterationRecord",
    "RunDiagnostics",
    "RunResult",
    "DataStats",
    "Moments",
    "moments",
    "grad_w",
    "update_aec",
    "update_bse",
    "normalize_w",
    "backprojection_scale",
    "run_joint",
    "run_bnlms_ive",
    "run_ls_aec",
    "run_ive_only",
    "run_unprocessed",
]

# A bin whose error power falls below this share of its microphone power holds
# a fully cancelled echo: error_covariance zeroes its C_ee, which freezes it.
DEAD_BIN_FLOOR = 1e-12


@dataclass
class RunConfig:
    """Iteration settings shared by all algorithms."""

    iterations: int = 50
    reference_channel: int = 1  # 1-based microphone index for backprojection
    records: bool = True  # form an IterationRecord (cost J, deltas, truth) each iteration

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.reference_channel < 1:
            raise ValueError("reference_channel is 1-based and must be >= 1")


@dataclass
class IterationRecord:
    iteration: int
    cost: float
    delta_h: float
    delta_w: float
    nu_median: float
    rho_median: float
    frozen_bins: int
    off_block_db: float = None


@dataclass
class RunDiagnostics:
    records: list = field(default_factory=list)
    bp_scale: np.ndarray = None

    def as_dict(self):
        return {"iterations": [asdict(r) for r in self.records]}


@dataclass
class RunResult:
    """What every algorithm returns; without a beamformer diagnostics.bp_scale is ones."""

    s_hat: np.ndarray  # (F, T) output: backprojected source estimate, or the
                       # reference channel of e when there is no beamformer
    state: DemixState
    diagnostics: RunDiagnostics
    x: np.ndarray      # (F, T, M) the microphone spectra the run read (not a copy)
    u: np.ndarray      # (F, T) the loudspeaker spectra, zeros for a run without one

    @property
    def e(self):  # (F, T, M) echo-cancelled error signal x - h u, formed on each read
        e = self.state.h[:, None, :] * self.u[:, :, None]
        return np.subtract(self.x, e, out=e)


@dataclass
class DataStats:
    """Second-order statistics of the data, computed once per run.

    C_ee(h) = C_LS + P_u d d^H for d = h - h_LS, with h_LS the least-squares
    echo path and C_LS = C_xx - P_u h_LS h_LS^H its residual covariance, so
    C_ee at any h follows in closed form (error_covariance).
    """

    C_xx: np.ndarray  # (F, M, M) E[x x^H]
    r_xu: np.ndarray  # (F, M) E[x u*]
    P_u: np.ndarray   # (F,) E[|u|^2]
    h_ls: np.ndarray = field(init=False)   # (F, M) r_xu / P_u, 0 without excitation
    C_ls: np.ndarray = field(init=False)   # (F, M, M) C_xx - P_u h_ls h_ls^H
    tr_xx: np.ndarray = field(init=False)  # (F,) tr C_xx

    def __post_init__(self):
        self.h_ls = _least_squares(self.r_xu, self.P_u)
        v = np.sqrt(self.P_u)[:, None] * self.h_ls
        self.C_ls = self.C_xx - v[:, :, None] * v.conj()[:, None, :]
        self.tr_xx = np.einsum("fmm->f", self.C_xx).real

    @classmethod
    def of(cls, x, u):
        return cls(covariance(x), *_echo_moments(x, u))

    def error_cross(self, h):
        """E[e u*] = r_xu - h P_u for the error signal e = x - h u."""
        return self.r_xu - h * self.P_u[:, None]

    def error_covariance(self, h):
        """C_ee = E[e e^H] for e = x - h u, as C_ls + P_u d d^H, made exactly Hermitian.

        A bin whose trace falls below DEAD_BIN_FLOOR times that of C_xx holds
        a fully cancelled echo, and what is left of it is rounding: it gets
        C_ee = 0, as a pass over the exact e gives, which freezes it.
        """
        v = np.sqrt(self.P_u)[:, None] * (h - self.h_ls)
        c = self.C_ls + v[:, :, None] * v.conj()[:, None, :]
        c = 0.5 * (c + np.conj(np.swapaxes(c, 1, 2)))  # the products round off its symmetry
        c[np.einsum("fmm->f", c).real <= DEAD_BIN_FLOOR * self.tr_xx] = 0.0
        return c


@dataclass
class Moments:
    """Score-weighted moments at the current filters, from one pass over the frames.

    e_phi is None when the pass was made for an echo step and a record alone,
    which read no E[e phi].
    """

    y: np.ndarray      # (F, T) beamformed microphones w^H x, valid while w holds
    nu: np.ndarray     # (F,) E[s phi], the score normalizer, real
    rho: np.ndarray    # (F,) E[d phi / d s*]
    e_phi: np.ndarray  # (F, M) E[e phi], or None
    u_phi: np.ndarray  # (F,) E[u phi]


def moments(x, u, state, score=score_spherical, y=None, e_phi=True):
    """One pass at the state's h and w: s = w^H x - (w^H h) u, its score, the moments.

    score(s) returns phi, rho = E[d phi / d s*] and nu = E[s phi], the last
    two from the |s|^2 it forms. s is formed in one buffer, c u with
    c = w^H h, then subtracted from y = w^H x in place; E[u phi] is a batched
    dot product over the frame axis. Only the BSE step reads E[e phi]; with
    e_phi set (the default) the pass also forms E[x phi], one more product
    over the frames and channels, and takes E[e phi] = E[x phi] - h E[u phi]
    in closed form, so e is never formed. u None is a loudspeaker without
    excitation: s = y, E[u phi] = 0 and E[e phi] = E[x phi], so the pass
    forms no c u, subtraction or h E[u phi], and equals one given zeros.
    The result holds while h and w do: the driver passes the moments behind
    one iteration's diagnostics on to the next iteration's first step
    instead of making the pass again. y holds while w does; when given, as
    after an echo step that moved only h, it is not formed again.
    """
    y, s = _extract(x, u, state, y)
    phi, rho, nu = score(s)
    n_frames = s.shape[1]
    u_phi = (np.zeros_like(phi[:, 0]) if u is None
             else (u[:, None, :] @ phi[:, :, None])[:, 0, 0] / n_frames)
    mom = Moments(y=y, nu=nu, rho=rho, e_phi=None, u_phi=u_phi)
    if e_phi:
        x_phi = (np.swapaxes(x, 1, 2) @ phi[:, :, None])[:, :, 0] / n_frames
        mom.e_phi = x_phi if u is None else x_phi - state.h * u_phi[:, None]
    return mom


def _extract(x, u, state, y=None):
    """(y, s): y = w^H x unless given; s = y - (w^H h) u in its own buffer, or y if u is None."""
    y = (x @ state.w.conj()[:, :, None])[:, :, 0] if y is None else y
    if u is None:
        return y, y
    s = np.einsum("fm,fm->f", state.w.conj(), state.h)[:, None] * u
    return y, np.subtract(y, s, out=s)


def grad_w(state, mom):
    """Gradient of the cost w.r.t. conj(w): E[e phi]/nu - a per bin, not finite where nu = 0."""
    return mom.e_phi * (1.0 / mom.nu)[:, None] - state.a


def update_aec(state, x, u, data, score=score_spherical, mom=None):
    """One Newton step on the echo-path filter h for every active bin.

    solve(H, -g) in closed form, for J's h-gradient g = -(kappa w + R r) and
    the curvature H = (R + alpha w w^H) P_u, with r = E[e u*],
    kappa = conj(E[u phi]/nu), alpha = conj(rho/nu) and
    R = C_ee^{-1} - w w^H / (w^H C_ee w): R a = 0 and w^H a = 1, so
    the step is (r + a (kappa - alpha w^H r) / alpha) / P_u,
    the least-squares step plus a correction along a. mom holds the moments
    at the state's h and w; when not given, they come from one pass over x
    and u with the given score, which forms no E[e phi]. Returns (h_new,
    active_mask); a live bin moves where its loudspeaker carries excitation
    (P_u > tiny) and its step is finite, which it is not where nu or alpha
    vanishes. Other bins are left unchanged.
    """
    if mom is None:
        mom = moments(x, u, state, score, e_phi=False)
    r = data.error_cross(state.h)
    with np.errstate(all="ignore"):  # a bin without curvature gets a step that is not finite
        alpha = np.conj(mom.rho / mom.nu)
        coef = ((np.conj(mom.u_phi / mom.nu) - alpha * np.einsum("fm,fm->f", state.w.conj(), r))
                / alpha)
        step = (r + coef[:, None] * state.a) / data.P_u[:, None]
    ok = (state.active & (data.P_u > np.finfo(float).tiny)
          & np.all(np.isfinite(step), axis=1))
    return state.h + np.where(ok[:, None], step, 0.0), ok


def update_bse(state, mom, inv):
    """One fixed-point step on the beamformer w for every active bin.

    w += nu*/(nu* - rho*) C_ee^{-1} grad_w, the approximate Newton step of
    the extraction contrast, with the moments taken at the state's h and w;
    the sign of the curvature denominator is the one that contracts toward
    the fixed point (the same structure as one-unit FastICA). inv is the
    (inverse, ok) pair model.loaded_inverse gives for the loaded C_ee at the
    state's h. A live bin moves where its loaded C_ee has an inverse and its
    step is finite, which it is not where nu or the curvature nu - rho
    vanishes. Returns (w_new, active_mask); the caller is expected to
    renormalize.
    """
    inverse, solvable = inv
    with np.errstate(all="ignore"):  # a bin without curvature gets a step that is not finite
        factor = np.conj(mom.nu) / np.conj(mom.nu - mom.rho)
        step = factor[:, None] * (inverse @ grad_w(state, mom)[:, :, None])[:, :, 0]
    ok = state.active & solvable & np.all(np.isfinite(step), axis=1)
    return state.w + np.where(ok[:, None], step, 0.0), ok


def normalize_w(state):
    """Rescale w per bin so the source estimate has unit power; return C_ee w at the new w.

    Divides by sqrt(w^H C_ee w); raises if that power is not positive on an
    active bin. Frozen bins are left untouched. _refresh_beamformer reads C_ee w.
    """
    cw = (state.C_ee @ state.w[:, :, None])[:, :, 0]
    power = np.einsum("fm,fm->f", state.w.conj(), cw).real
    if np.any(state.active & ~(power > 0.0)):
        raise NumericsError("cannot normalize: estimated source power is not positive")
    scale = np.where(state.active, 1.0 / np.sqrt(np.where(power > 0, power, 1.0)), 1.0)
    state.w = state.w * scale[:, None]
    return cw * scale[:, None]


def backprojection_scale(s_hat, ref):
    """Per-bin scale minimizing E[|alpha s_hat - ref|^2], ref the reference error channel.

    Bins whose source estimate is identically zero get scale 0 (nothing to
    project); an all-zero estimate is an error.
    """
    power = np.mean(np.abs(s_hat) ** 2, axis=1)
    if not np.any(power > 0.0):
        raise NumericsError("cannot backproject: source estimate has zero power")
    corr = np.mean(s_hat.conj() * ref, axis=1)
    return np.divide(corr, power, out=np.zeros_like(corr), where=power > 0)


def _update_statistics(state, data):
    """Form C_ee at the current h in closed form, its loaded inverse, a and the active mask.

    The driver calls it before the first iteration and after each echo step;
    it returns the (inverse, ok) pair of model.loaded_inverse for the BSE steps.
    """
    state.C_ee = data.error_covariance(state.h)
    inv = loaded_inverse(state.C_ee, DEFAULT_LOADING)
    _refresh_beamformer(state, inv[1])
    return inv


def _refresh_beamformer(state, solvable, cw=None):
    """Form a and the active-bin mask at the current w from the held C_ee.

    No linear solve; cw is C_ee w if formed. A bin is live where its loaded
    C_ee has an inverse (solvable, loaded_inverse's ok) and its w^H C_ee w is
    non-degenerate; a bin whose w^H C_ee w is degenerate also keeps its a.
    """
    a, ok = orthogonal_constraint_atf(state.C_ee, state.w, cw)
    state.a = np.where(ok[:, None], a, state.a)
    state.active = ok & solvable


def _run(x, u, cfg=None, joint=True, truth=None):
    """Shared iteration driver; a run that is not joint holds h at h_LS throughout."""
    cfg = cfg or RunConfig()
    x, u = _inputs(x, u, cfg)
    n_freqs, n_frames, m = x.shape
    if n_frames < 2:
        raise ValueError("score statistics need at least 2 frames")
    if m < 2:
        raise ValueError(f"extraction needs at least 2 microphones, got {m}")
    state = DemixState.initial(n_freqs, m)
    data = DataStats.of(x, u)
    echo = bool(np.any(data.P_u > np.finfo(float).tiny))
    joint &= echo  # else no echo step moves h
    if not joint:
        state.h = data.h_ls
    u_live = u if echo else None  # else h = h_LS = 0, and no pass reads u
    diag = RunDiagnostics()

    inv = _update_statistics(state, data)
    mom = moments(x, u_live, state, e_phi=not joint)
    for it in range(cfg.iterations):
        frozen = int(np.sum(~state.active))
        h_old, w_old = state.h, state.w
        if joint:
            state.h, ok = update_aec(state, x, u, data, mom=mom)
            frozen = max(frozen, int(np.sum(~ok)))
            inv = _update_statistics(state, data)
            mom = moments(x, u_live, state, y=mom.y)  # w, and so w^H x, has not moved
        state.w, ok = update_bse(state, mom, inv)
        frozen = max(frozen, int(np.sum(~ok)))
        _refresh_beamformer(state, inv[1], normalize_w(state))

        if cfg.records or it + 1 < cfg.iterations:  # the record's and the next step's
            mom = moments(x, u_live, state, e_phi=not joint)
        if not cfg.records:
            continue
        try:  # E[-log p(s)] = mean_t 2 r_t = 2 sum_f nu_f for the spherical score
            cost_value = 2.0 * float(np.sum(mom.nu.real)) + log_det_terms(state, state.C_ee)
        except NumericsError:  # cancellation can leave an active C_ee indefinite
            cost_value = float("nan")
        record = IterationRecord(
            iteration=it,
            cost=cost_value,
            delta_h=float(np.linalg.norm(state.h - h_old)),
            delta_w=float(np.linalg.norm(state.w - w_old)),
            nu_median=float(np.median(mom.nu.real)),
            rho_median=float(np.median(mom.rho.real)),
            frozen_bins=frozen,
        )
        if truth is not None:
            v = transmission_matrix(state, truth.a_soi, truth.bg_mix, truth.echo_atf)
            record.off_block_db = off_block_energy_db(v)
        diag.records.append(record)

    s = _extract(x, u, state)[1]  # w^H e, and no (F, T, M) e
    ref = cfg.reference_channel - 1
    diag.bp_scale = backprojection_scale(s, x[:, :, ref] - state.h[:, ref, None] * u)
    s *= diag.bp_scale[:, None]
    return RunResult(s_hat=s, state=state, diagnostics=diag, x=x, u=u)


def run_joint(x, u, cfg=None, truth=None):
    """Joint echo-path and beamformer estimation (the full algorithm)."""
    return _run(x, u, cfg, truth=truth)


def run_bnlms_ive(x, u, cfg=None, truth=None):
    """Extraction on the least-squares echo-cancelled signal: h held at h_LS.

    h_LS is where one batch-NLMS step lands from any h, so this is BNLMS
    echo cancellation with the extraction update, each filter updated alone.
    """
    return _run(x, u, cfg, joint=False, truth=truth)


def run_ive_only(x, cfg=None, truth=None):
    """Extraction without echo cancellation: run_bnlms_ive with no loudspeaker (h = 0)."""
    return _run(x, None, cfg, joint=False, truth=truth)


def _inputs(x, u, cfg):
    """Validate spectra x (F, T, M) and u (F, T) (None is silence) and cfg's reference channel."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 3:
        raise ValueError("expected shape (n_freqs, n_frames, n_channels)")
    if u is None:
        u = np.zeros(x.shape[:2], dtype=np.complex128)
    u = np.asarray(u, dtype=np.complex128)
    if x.shape[:2] != u.shape:
        raise ValueError("microphone and loudspeaker spectrograms disagree in shape")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
        raise ValueError("microphone or loudspeaker spectrogram is not finite (NaN or inf)")
    m = x.shape[2]
    if cfg.reference_channel > m:
        raise ValueError(f"reference channel {cfg.reference_channel} exceeds {m} microphones")
    return x, u


def _echo_moments(x, u):
    """E[x u*] (F, M) and E[|u|^2] (F,), the loudspeaker's statistics; no (F, T, M) array."""
    n_frames = x.shape[1]
    r_xu = (np.swapaxes(x, 1, 2) @ u.conj()[:, :, None])[:, :, 0] / n_frames
    return r_xu, np.mean(np.abs(u) ** 2, axis=1)


def _least_squares(r_xu, P_u):
    """Per-channel least-squares echo path r_xu / P_u; bins without excitation get 0.

    One batch-NLMS step from any h lands here.
    """
    ok = P_u > np.finfo(float).tiny
    return np.where(ok[:, None], r_xu / np.where(ok, P_u, 1.0)[:, None], 0.0)


def _reference_output(x, u, h, cfg):
    """Result of a condition without a beamformer: the reference channel of e.

    w = a = that channel's unit vector, so s_hat = w^H e, the backprojection
    scale is 1 and there is no iteration record.
    """
    ref = cfg.reference_channel - 1
    w = np.zeros_like(h)
    w[:, ref] = 1.0
    return RunResult(s_hat=x[:, :, ref] - h[:, ref, None] * u,
                     state=DemixState(h=h, w=w, a=w.copy()),
                     diagnostics=RunDiagnostics(bp_scale=np.ones(len(h))), x=x, u=u)


def run_ls_aec(x, u, cfg=None):
    """Batch least-squares echo canceller, no beamformer: h = E[x u*] / E[|u|^2].

    Its output is the reference channel of e = x - h u.
    """
    cfg = cfg or RunConfig()
    x, u = _inputs(x, u, cfg)
    r_xu, P_u = _echo_moments(x, u)
    if not np.any(P_u > np.finfo(float).tiny):  # as _least_squares tells a bin without excitation
        raise NumericsError("least-squares echo canceller needs a nonzero loudspeaker signal")
    h = _least_squares(r_xu, P_u)
    return _reference_output(x, u, h, cfg)


def run_unprocessed(x, cfg=None):
    """The unprocessed condition: h = 0 and no beamformer; the output is x's reference channel."""
    cfg = cfg or RunConfig()
    x, u = _inputs(x, None, cfg)
    return _reference_output(x, u, np.zeros_like(x[:, 0, :]), cfg)
