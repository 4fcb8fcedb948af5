"""The online eigenvector game over the spectrahedron.

An adversary supplies symmetric gain matrices before seeing the current
action; the player projects the running gain sum through one of three
strategies (exact multiplicative weights, the exact rank-1 sketch, or its
Krylov approximation).  The engine enforces the information order
structurally: the gain for step t is requested before the sphere vector
for step t is drawn.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .lanczos import DEFAULT_K0
from .linalg import (
    ConvergenceError,
    SparseSymOperator,
    dense_eigh,
    gaussian_symmetric,
    rank_one_within,
    require_dense,
    sample_unit_sphere,
    spectrum_within,
    top_eigenvalue,
    tridiagonalize,
)
from .projections import mmw_projection, rank1_projection, rank1_projection_lanczos

STRATEGIES = ("exact_mmw", "rank1_exact", "rank1_lanczos")
#: The gain classes, each with the interval its spectrum must lie in (1e-9 slack).
GAIN_SPECTRUM = {
    "bounded_inf_norm_1": (-1.0 - 1e-9, 1.0 + 1e-9),
    "psd_unit": (-1e-9, 1.0 + 1e-9),
}

#: Step size at or below which the refined (PSD-gain) regret bound applies.
REFINED_ETA_MAX = 1.0 / 6.0



class GainValidationError(Exception):
    """An adversary emitted a gain outside its declared class."""


class Adversary:
    """Source of symmetric gain matrices, oblivious to the current action.

    Subclasses set ``n`` and ``gain_class`` (one of ``bounded_inf_norm_1``,
    ``psd_unit``) and implement :meth:`next_gain`, which may depend only on
    the played history and the adversary's own random stream.  The history is
    the engine's live list of past actions (:class:`SpectrahedronAction`),
    to be read, not modified; an adversary that needs its past gains keeps them.
    """

    n: int
    gain_class: str

    def next_gain(self, history):
        raise NotImplementedError


def _haar_orthogonal(n, rng):
    """Haar-distributed orthogonal matrix: Q of a Gaussian matrix's QR, with R's diagonal made positive (Mezzadri 2007).

    Calls the two LAPACK gufuncs behind ``np.linalg.qr`` (``geqrf`` and
    ``orgqr`` in numpy's own BLAS build) without its wrapper, so Q and the
    signs are that function's to the bit at any BLAS thread count.  scipy's
    LAPACK is a different OpenBLAS build, whose threaded QR rounds
    differently from n = 257 up.
    """
    g = rng.standard_normal((n, n))
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            # like np.linalg.qr, geqrf leaves R and the reflectors in g
            tau = _umath_linalg.qr_r_raw(g, signature="d->d")
            signs = np.sign(g.diagonal())
            q = _umath_linalg.qr_reduced(g, tau, signature="dd->d")
    except FloatingPointError as exc:
        raise ConvergenceError(f"Haar QR failed for n={n}") from exc
    q *= signs
    return q


def _sym(a):
    return 0.5 * (a + a.T)


class FixedMatrixAdversary(Adversary):
    """Returns the same gain matrix every step."""

    def __init__(self, matrix, gain_class="bounded_inf_norm_1"):
        self.matrix = _sym(np.asarray(matrix, dtype=float))
        self.n = self.matrix.shape[0]
        self.gain_class = gain_class

    def next_gain(self, history):
        return self.matrix


class RandomRotationAdversary(Adversary):
    """A fixed random spectrum re-rotated by a fresh Haar rotation each step.

    The seed matrix is normalized to unit operator norm once, so every gain
    satisfies the unit-norm class exactly (rotations preserve the spectrum).
    """

    gain_class = "bounded_inf_norm_1"

    def __init__(self, n, rng):
        self.n = n
        self._rng = rng
        _, lam = gaussian_symmetric(n, rng)
        self._spectrum = lam / max(abs(lam[0]), abs(lam[-1]))

    def next_gain(self, history):
        q = _haar_orthogonal(self.n, self._rng)
        return _sym((q * self._spectrum) @ q.T)


class PsdRandomAdversary(Adversary):
    """Random PSD gains with spectrum in [0, 1]."""

    gain_class = "psd_unit"

    def __init__(self, n, rng):
        self.n = n
        self._rng = rng

    def next_gain(self, history):
        q = _haar_orthogonal(self.n, self._rng)
        d = self._rng.uniform(0.0, 1.0, self.n)
        return _sym((q * d) @ q.T)


class StreamingPcaAdversary(Adversary):
    """Rank-1 unit-trace gains ``a a'`` from fresh unit vectors."""

    gain_class = "psd_unit"

    def __init__(self, n, rng):
        self.n = n
        self._rng = rng

    def next_gain(self, history):
        a = sample_unit_sphere(self.n, self._rng)
        return np.outer(a, a)


ADVERSARY_KINDS = ("random_rotation", "fixed_matrix", "psd_random", "streaming_pca")


def builtin_adversaries(kind, n, rng, matrix=None):
    """Construct one of the built-in oblivious adversaries by name."""
    if kind == "random_rotation":
        return RandomRotationAdversary(n, rng)
    if kind == "fixed_matrix":
        if matrix is None:
            seed_matrix, lam = gaussian_symmetric(n, rng)
            matrix = seed_matrix / max(abs(lam[0]), abs(lam[-1]))
        return FixedMatrixAdversary(matrix)
    if kind == "psd_random":
        return PsdRandomAdversary(n, rng)
    if kind == "streaming_pca":
        return StreamingPcaAdversary(n, rng)
    raise ValueError(f"unknown adversary kind {kind!r}")


def default_eta(n, T):
    """Step size ``sqrt(2 log(4n) / (3T))`` tuned for unit-norm gains."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    return math.sqrt(2.0 * math.log(4.0 * n) / (3.0 * T))


def kt_schedule(n, T, eta, delta, k0=DEFAULT_K0):
    """Per-step Krylov depth rule ``t -> ceil(k0 sqrt(1 + eta t) log(nT/delta))``.

    Nondecreasing in t; at this depth the approximate plays lose at most one
    unit of cumulative gain relative to the exact sketch, with probability at
    least 1 - delta over the whole run.
    """
    if min(n, T) < 1 or eta < 0 or k0 <= 0:
        raise ValueError("n, T must be positive, eta >= 0, k0 > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    log_term = math.log(n * T / delta)

    def rule(t):
        return max(1, math.ceil(k0 * math.sqrt(1.0 + eta * t) * log_term))

    return rule


@dataclass
class Schedule:
    """Run parameters: step size, horizon, confidence, and Krylov depth rule."""

    eta: float
    T: int
    delta: float = 0.1
    kt_rule: object = None

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.T < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass
class RegretTrace:
    """Per-step records and summary statistics of one online run.

    ``lam_max_running[t-1]`` is the top eigenvalue of the gain sum after
    step t.  The dense strategies record it at every step.  ``rank1_lanczos``
    records it only at its checkpoints, t a power of two and t = T, and
    holds NaN between them; the CSV row leaves that field empty.
    ``lam_max_final`` is the value at t = T in every strategy.

    For ``rank1_lanczos`` runs, ``k_used`` is the Krylov depth run at each
    step (equal to its matvec count), ``k_cap`` the depth rule's cap
    ``min(kt_rule(t), n)``, and ``krylov_err_est`` the a posteriori error
    estimate at the stop; all three are 0 for the dense strategies.
    """

    n: int
    strategy: str
    eta: float
    T: int
    step_gain: np.ndarray = field(repr=False)
    cum_gain: np.ndarray = field(repr=False)
    lam_max_running: np.ndarray = field(repr=False)
    k_used: np.ndarray = field(repr=False)
    k_cap: np.ndarray = field(repr=False)
    matvecs: np.ndarray = field(repr=False)
    krylov_err_est: np.ndarray = field(repr=False)
    wall_ns: np.ndarray = field(repr=False)
    lam_max_final: float = 0.0
    lam_max_tol: float = 0.0
    total_regret: float = 0.0
    avg_regret: float = 0.0

    def validate(self):
        """Check to within 1e-9 that cumulative fields are prefix sums of the per-step fields."""
        tol = 1e-9
        recomputed = np.cumsum(self.step_gain)
        if np.abs(recomputed - self.cum_gain).max() > tol:
            raise ValueError("cumulative gain is not the prefix sum of step gains")
        regret = self.lam_max_final - self.cum_gain[-1]
        if abs(regret - self.total_regret) > tol:
            raise ValueError("total regret does not match per-step records")
        if abs(self.total_regret / self.T - self.avg_regret) > tol:
            raise ValueError("average regret does not match total")

    def rows(self):
        """Per-step rows for CSV emission, in the order of :meth:`columns`."""
        for i in range(self.T):
            yield [
                i + 1,
                repr(float(self.step_gain[i])),
                repr(float(self.cum_gain[i])),
                "" if np.isnan(self.lam_max_running[i]) else repr(float(self.lam_max_running[i])),
                int(self.k_used[i]),
                int(self.k_cap[i]),
                int(self.matvecs[i]),
                repr(float(self.krylov_err_est[i])),
                int(self.wall_ns[i]),
            ]

    @staticmethod
    def columns():
        return [
            "t", "step_gain", "cum_gain", "lam_max_running",
            "k_used", "k_cap", "matvecs", "krylov_err_est", "wall_ns",
        ]


def _validate_gain(g, gain_class, t, n):
    if g.shape != (n, n):
        raise GainValidationError(f"step {t}: gain has shape {g.shape}, expected ({n}, {n})")
    # every built-in adversary emits exactly symmetric gains, which skip the scans; NaN fails here
    exact = np.array_equal(g, g.T)
    if not exact:
        scale = 1.0 + np.abs(g).max()
        if np.abs(g - g.T).max() > 1e-12 * scale:
            raise GainValidationError(f"step {t}: gain matrix is not symmetric")
    if gain_class not in GAIN_SPECTRUM:
        raise GainValidationError(f"step {t}: unknown gain class {gain_class!r}")
    lo, hi = GAIN_SPECTRUM[gain_class]
    if (exact and rank_one_within(g, lo, hi)) or spectrum_within(g, lo, hi):
        return
    # a failed factorization proves nothing: the eigenvalues decide and name the violation
    if not np.isfinite(g).all():
        raise GainValidationError(f"step {t}: gain has non-finite entries")
    lam = np.linalg.eigvalsh(g)
    if lam[0] < lo or lam[-1] > hi:
        if gain_class == "bounded_inf_norm_1":
            raise GainValidationError(
                f"step {t}: gain operator norm {max(abs(lam[0]), abs(lam[-1])):.6g} exceeds 1"
            )
        raise GainValidationError(f"step {t}: gain spectrum [{lam[0]:.6g}, {lam[-1]:.6g}] outside [0, 1]")


def _dense_decompose(strategy):
    """How a dense strategy decomposes the scaled n x n gain sum once per step; ``None`` for ``rank1_lanczos``."""
    return {"exact_mmw": dense_eigh, "rank1_exact": tridiagonalize}.get(strategy)


def require_strategy(strategy, n):
    """Refuse an unknown strategy (``ValueError``) and a dense one above the dense limit (``DenseLimitError``)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if _dense_decompose(strategy) is not None:
        require_dense(n, f"strategy {strategy!r}")


def run_online(adversary, strategy, schedule, rng):
    """Play the online game for ``schedule.T`` steps and return the trace.

    At each step the engine (1) requests the gain from the adversary using
    only the past history, (2) draws the sphere vector for sketch strategies,
    (3) projects the scaled gain sum accumulated strictly before this step,
    and (4) records the earned inner product.  Total regret compares the
    cumulative gain against the top eigenvalue of the realized gain sum
    (exact at dense scale, ``n <= DENSE_LIMIT``; above it, where only
    ``rank1_lanczos`` runs, a Lanczos estimate whose Ritz values are stable
    to a relative ``LANCZOS_RTOL``, with that tolerance recorded as
    ``lam_max_tol``; see :func:`top_eigenvalue`).
    The gain sum is one dense running matrix in both modes, behind one
    operator for the whole game, so a Krylov matvec costs O(n^2) whatever
    the step.  An exactly symmetric gain within rounding of rank one, such
    as a ``streaming_pca`` gain, is proved in its class in O(n^2) by Weyl's
    inequality (:func:`rank_one_within`); any other gain by two Cholesky
    factorizations.  An eigensolve runs only when both proofs fail.

    The dense strategies decompose the scaled gain sum once per step, after
    adding the gain: ``exact_mmw`` into eigenpairs (:func:`dense_eigh`),
    ``rank1_exact`` into its tridiagonal form (:func:`tridiagonalize`), which
    skips the eigenvectors of the sum.  The decomposition projects the next
    step, and its top eigenvalue over ``eta > 0`` is the step's running
    ``lam_max``.  ``rank1_lanczos`` needs no decomposition to play, so its
    step is matvecs only: it computes the running ``lam_max`` only at the
    checkpoints t = 1, 2, 4, ... and t = T, by one :func:`top_eigenvalue`
    call, and records NaN between them.  ``lam_max_final`` and the regret
    come from the t = T checkpoint.

    ``rank1_lanczos`` stops each Krylov run once its error estimate is at
    most ``1/(4T)``, with ``min(kt_rule(t), n)`` as the cap.  The rank-1
    trace distance is at most twice the relative error of the exponential,
    so this keeps a 2x margin on the ``1/T`` per-step budget of the rule.
    """
    n = adversary.n
    require_strategy(strategy, n)
    T = schedule.T
    eta = schedule.eta
    decompose = _dense_decompose(strategy)
    kt_rule = schedule.kt_rule
    if strategy == "rank1_lanczos" and kt_rule is None:
        kt_rule = kt_schedule(n, T, eta, schedule.delta)

    step_gain = np.zeros(T)
    cum_gain = np.zeros(T)
    lam_running = np.full(T, np.nan)
    k_used = np.zeros(T, dtype=np.int64)
    k_cap = np.zeros(T, dtype=np.int64)
    matvecs = np.zeros(T, dtype=np.int64)
    krylov_err_est = np.zeros(T)
    wall_ns = np.zeros(T, dtype=np.int64)

    actions = []  # the play history handed to the adversary: past actions, no gains
    gain_sum = np.zeros((n, n))  # updated in place: gain_op reads the live sum
    gain_op = SparseSymOperator(n, lambda v: gain_sum @ v)
    if decompose is not None:
        dual = decompose(eta * gain_sum)  # the dual point of the next play
    running_total = 0.0
    lam_tol_abs = 0.0

    for t in range(1, T + 1):
        gain = np.asarray(adversary.next_gain(actions), dtype=float)
        _validate_gain(gain, adversary.gain_class, t, n)
        gain_op.matvec_count = 0
        t0 = time.perf_counter_ns()
        if strategy == "exact_mmw":
            action = mmw_projection(dual)
        elif strategy == "rank1_exact":
            u = sample_unit_sphere(n, rng)
            action = rank1_projection(dual, u)
        else:  # rank1_lanczos
            u = sample_unit_sphere(n, rng)
            k_cap[t - 1] = min(kt_rule(t), n)
            action = rank1_projection_lanczos(gain_op.scaled(eta), u, k_cap[t - 1], tol=0.25 / T)
            matvecs[t - 1] = k_used[t - 1] = gain_op.matvec_count
            krylov_err_est[t - 1] = action.error_estimate
        wall_ns[t - 1] = time.perf_counter_ns() - t0

        earned = action.inner(gain)
        running_total += earned
        step_gain[t - 1] = earned
        cum_gain[t - 1] = running_total

        gain_sum += gain
        if decompose is not None:
            dual = decompose(eta * gain_sum)
            lam_running[t - 1] = dual.top / eta
        elif t & (t - 1) == 0 or t == T:  # rank1_lanczos: checkpoints at powers of two and T
            lam_running[t - 1], lam_tol_abs = top_eigenvalue(gain_sum)
        actions.append(action)

    lam_final = float(lam_running[-1])
    total_regret = lam_final - running_total
    return RegretTrace(
        n=n,
        strategy=strategy,
        eta=eta,
        T=T,
        step_gain=step_gain,
        cum_gain=cum_gain,
        lam_max_running=lam_running,
        k_used=k_used,
        k_cap=k_cap,
        matvecs=matvecs,
        krylov_err_est=krylov_err_est,
        wall_ns=wall_ns,
        lam_max_final=lam_final,
        lam_max_tol=lam_tol_abs,
        total_regret=float(total_regret),
        avg_regret=float(total_regret / T),
    )


def expected_regret_bound(n, eta, T):
    """Expected-regret bound for unit-operator-norm gains: log(4n)/eta + 1.5 eta T."""
    return math.log(4.0 * n) / eta + 1.5 * eta * T


def high_probability_regret_bound(n, eta, T, delta):
    """High-probability regret bound: the expected bound plus sqrt(2 T log(1/delta))."""
    return expected_regret_bound(n, eta, T) + math.sqrt(2.0 * T * math.log(1.0 / delta))


def refined_regret_bound(n, eta, lam_max):
    """Refined bound for PSD gains with spectrum in [0,1] and eta <= 1/6."""
    return math.log(4.0 * n) / eta + 3.0 * eta * lam_max
