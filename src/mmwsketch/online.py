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
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .lanczos import DEFAULT_K0
from .linalg import (
    _EPS,
    ConvergenceError,
    SparseSymOperator,
    _outer_self,
    gaussian_symmetric,
    rank_one_within,
    require_dense,
    sample_unit_sphere,
    spectrum_within,
    top_eigenvalue,
)
from .projections import ROUTES, MatrixPlayer

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
    the adversary's own random stream and what it kept of its past gains.
    The engine keeps no play history and passes ``history`` as an empty
    tuple; the parameter stays for adversaries that forward it.
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
        return _outer_self(a)


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
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(2.0 * math.log(4.0 * n) / (3.0 * T))


def kt_schedule(n, T, eta, delta, k0=DEFAULT_K0):
    """Per-step Krylov depth rule ``t -> ceil(k0 sqrt(1 + eta t) log(nT/delta))``.

    Nondecreasing in t; at this depth the approximate plays lose at most one
    unit of cumulative gain relative to the exact sketch, with probability at
    least 1 - delta over the whole run.
    """
    if min(n, T) < 1:
        raise ValueError("n, T must be positive")
    if not 0.0 <= eta < math.inf:
        raise ValueError("eta must be finite and >= 0")
    if not 0.0 < k0 < math.inf:
        raise ValueError("k0 must be finite and > 0")
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
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if isinstance(self.T, bool) or not isinstance(self.T, numbers.Integral) or self.T < 1:
            raise ValueError(f"horizon T must be an integer >= 1, got {self.T!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass
class RegretTrace:
    """Per-step records and summary statistics of one online run.

    ``lam_max_running[t-1]`` is the top eigenvalue of the gain sum after
    step t.  ``exact_mmw`` records it at every step.  ``rank1_exact``, and
    ``rank1_lanczos`` at dense scale, record it at each step where the
    player anchors and at the checkpoints, t a power of two and t = T;
    ``rank1_lanczos`` above the dense limit only at the checkpoints.  All
    hold NaN between them, and the CSV row leaves that field empty.
    ``lam_max_final`` is the value at t = T in every strategy.

    For ``rank1_lanczos`` runs, ``matvecs`` (and ``k_used``, equal to it)
    is the number of products with ``Y`` a step ran: the series degree, 0
    at t = 1 where ``Y = 0``, or the Lanczos depth.  ``k_cap`` is the depth
    rule's cap ``min(kt_rule(t), n)`` on either, and ``krylov_err_est`` the
    error at the stop: the bound the series proved on the relative error of
    ``exp(Y/2) u``, or Lanczos's estimate of it.  All three are 0 for the
    dense strategies.
    """

    n: int
    strategy: str
    eta: float
    T: int
    step_gain: np.ndarray = field(repr=False)
    cum_gain: np.ndarray = field(repr=False)
    lam_max_running: np.ndarray = field(repr=False)
    k_cap: np.ndarray = field(repr=False)
    matvecs: np.ndarray = field(repr=False)
    krylov_err_est: np.ndarray = field(repr=False)
    wall_ns: np.ndarray = field(repr=False)
    lam_max_final: float = 0.0
    lam_max_tol: float = 0.0
    total_regret: float = 0.0
    avg_regret: float = 0.0

    @property
    def k_used(self):
        """The products each step ran: ``matvecs`` itself, kept as the trace's ``k_used`` column."""
        return self.matvecs

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
    if gain_class in GAIN_SPECTRUM:
        lo, hi = GAIN_SPECTRUM[gain_class]
        # a rank-one proof that bounds |E|_F = |g - b b'|_F by e needs no symmetry scan: |g - g'|_F <= 2 e
        # is within the 1e-12 tolerance below, and the lower-triangle completion the fallback reads lies
        # within sqrt(2) e of b b', which the proof's narrowed interval leaves room for
        e = min(0.5e-12, -lo / math.sqrt(2.0))
        if rank_one_within(g, -e, hi - (math.sqrt(2.0) - 1.0) * e):
            return
    # every built-in adversary emits exactly symmetric gains, which skip the scans; NaN fails here
    if not np.array_equal(g, g.T):
        scale = 1.0 + np.abs(g).max()
        if np.abs(g - g.T).max() > 1e-12 * scale:
            raise GainValidationError(f"step {t}: gain matrix is not symmetric")
    if gain_class not in GAIN_SPECTRUM:
        raise GainValidationError(f"step {t}: unknown gain class {gain_class!r}")
    lo, hi = GAIN_SPECTRUM[gain_class]
    if spectrum_within(g, lo, hi):
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


def require_strategy(strategy, n):
    """Refuse an unknown strategy (``ValueError``) and a dense one above the dense limit (``DenseLimitError``)."""
    if strategy not in ROUTES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy != "rank1_lanczos":
        require_dense(n, f"strategy {strategy!r}")


def _drift_bound(eta, t, t_a, n, gain_class):
    """A bound on ``|R_t - A_a|_2`` over a game's anchored route, from the anchor at step ``t_a`` to step ``t``.

    The engine sums the gains in place, ``G_s = fl(G_{s-1} + g_s)`` from
    ``G_0 = 0``, and the player projects ``Y_s = fl(eta G_s)``.  ``A_a`` is
    the matrix the anchor at ``t_a`` reduced, ``Y_a`` made exactly symmetric
    (:func:`~mmwsketch.linalg.sym_array`), and ``R_t`` is the one the series
    reads between anchors, the symmetric matrix that the upper triangle of
    ``Y_t`` defines (BLAS ``symv``); the spectrum of ``R_t`` thus lies in the
    anchor's interval widened by the bound (Weyl).

    Every gain passed :func:`_validate_gain`, so with ``(lo, hi)`` its class
    interval in :data:`GAIN_SPECTRUM` and ``c = max(-lo, hi)``, the upper
    completion ``U(g)`` of a gain has ``|U(g)|_2 <= c + rho`` and
    ``|g - g'|_F <= rho``, ``rho = 2.1e-12 n``: the rank-one proof holds both
    triangles' completions in ``[lo, hi]`` and ``|g - g'|_F`` below 1e-12;
    the Cholesky proof (or ``eigvalsh``) holds the lower one, ``L(g)``, and
    the symmetry check keeps each ``|g_ij - g_ji|`` below
    ``1e-12 (1 + max |g|) < 2.1e-12``, so ``|U(g) - L(g)|_2 <= |g - g'|_F < rho``.
    Then ``|g|_F <= sqrt(n) (c + rho)``, and with ``u = eps / 2`` each sum
    rounds by ``|E_s|_F <= u |G_s|_F``, so ``|G_s|_F <= S = t sqrt(n) (c + rho)
    (1 + t eps)`` for ``s <= t``.  Write ``Y_s = eta G_s + D_s`` with
    ``|D_s|_F <= u eta S``, and ``A_a = (Y_a + Y_a') / 2 + F`` with
    ``|F|_F <= u eta S (1 + u)`` for the rounding of that mean.  As
    ``|U(X)|_2 <= sqrt(2) |X|_F``,

    - ``|U(Y_t - Y_a)|_2 <= eta (t - t_a) (c + rho) + sqrt(2) u eta S (t - t_a + 2)``
      (the gains, the sums' rounding, ``D_t`` and ``D_a``), and
    - ``|U(Y_a) - (Y_a + Y_a') / 2|_2 <= |Y_a - Y_a'|_F / 2 <= eta t_a (rho + 2 u S) / 2 + u eta S``,

    so ``|R_t - A_a|_2 <= eta ((t - t_a) c + t rho + eps (t + 3) S)``, with
    ``u eta S`` to spare for the rounding of the player's ``lo - bound`` and
    ``hi + bound``; the factor ``1 + 16 eps`` covers the rounding of this
    bound.  Underflow is not counted, and the class intervals rest on the
    proofs' own rounding margins.
    """
    lo, hi = GAIN_SPECTRUM[gain_class]
    c, rho = max(-lo, hi), 2.1e-12 * n
    frobenius = t * math.sqrt(n) * (c + rho) * (1.0 + t * _EPS)
    return (1.0 + 16.0 * _EPS) * eta * ((t - t_a) * c + t * rho + (t + 3) * _EPS * frobenius)


def run_online(adversary, strategy, schedule, rng):
    """Play the online game for ``schedule.T`` steps and return the trace.

    At each step the engine (1) requests the gain from the adversary, which
    sees no play, (2) checks it (:func:`_validate_gain`: an O(n^2) rank-one
    proof, else a 1e-12 relative symmetry check and two Cholesky proofs of
    its class, and an eigensolve only when both proofs fail), (3) has its
    :class:`MatrixPlayer` project ``Y = eta G``, with ``G`` the gain sum
    strictly before this step and the sketches' sphere vector drawn only
    now, and (4) records the earned inner product.  ``G`` is one dense
    running matrix, behind one operator for ``Y`` for the whole game.

    The player is told of each move of ``G``, once the step's gain is in it,
    with :func:`_drift_bound` on how far ``Y`` has moved since the player
    last decomposed it.  ``exact_mmw`` decomposes ``Y`` at every move;
    ``rank1_exact``, and ``rank1_lanczos`` at dense scale, anchor it (one
    ``O(n^3)`` reduction) only once that bound exceeds ``ANCHOR_TAU / 2``,
    about every ``ANCHOR_TAU / (2 eta)`` steps, and otherwise widen the last
    anchor's interval by the bound, rounded up to a multiple of
    ``WIDEN_STEP``.  A decomposition's top eigenvalue over ``eta`` is the
    step's running ``lam_max``.  At every other checkpoint, t = 1, 2, 4, ...
    and t = T, the engine computes it by one :func:`top_eigenvalue` call,
    and it records NaN between them; above the dense limit
    ``rank1_lanczos`` plays by matvecs alone and decomposes nothing.  The
    regret compares the cumulative
    gain with the t = T value: exact at dense scale, ``n <= DENSE_LIMIT``;
    above it, where only ``rank1_lanczos`` runs, a Lanczos estimate stable
    to a relative ``LANCZOS_RTOL``, recorded as ``lam_max_tol``.  The Krylov
    cap, on the series degree or the Lanczos depth, is ``min(kt_rule(t), n)``,
    by :func:`kt_schedule` when the schedule sets no rule.
    """
    n = adversary.n
    require_strategy(strategy, n)
    T, eta = schedule.T, schedule.eta
    kt_rule = schedule.kt_rule or kt_schedule(n, T, eta, schedule.delta)

    step_gain = np.zeros(T)
    cum_gain = np.zeros(T)
    lam_running = np.full(T, np.nan)
    k_cap = np.zeros(T, dtype=np.int64)
    matvecs = np.zeros(T, dtype=np.int64)
    krylov_err_est = np.zeros(T)
    wall_ns = np.zeros(T, dtype=np.int64)

    gain_sum = np.zeros((n, n))  # updated in place: the player reads the live sum
    dual_op = SparseSymOperator(n, lambda v: eta * (gain_sum @ v))  # Y = eta * gain_sum, for the whole game
    player = MatrixPlayer(strategy, T, lambda: eta * gain_sum, dual_op, kt_rule)
    player.moved()  # the empty sum projects step 1
    anchored = 0  # the step whose gain sum the player last decomposed
    running_total = 0.0
    lam_tol_abs = 0.0

    for t in range(1, T + 1):
        gain = np.asarray(adversary.next_gain(()), dtype=float)
        _validate_gain(gain, adversary.gain_class, t, n)
        t0 = time.perf_counter_ns()
        action = player.play(t, rng)
        wall_ns[t - 1] = time.perf_counter_ns() - t0
        k_cap[t - 1], matvecs[t - 1], krylov_err_est[t - 1] = player.record

        earned = action.inner(gain)
        running_total += earned
        step_gain[t - 1] = earned
        cum_gain[t - 1] = running_total

        gain_sum += gain
        top = player.moved(lambda: _drift_bound(eta, t, anchored, n, adversary.gain_class))
        if top is not None:
            anchored = t
            lam_running[t - 1] = top / eta
        elif t & (t - 1) == 0 or t == T:  # no free top: checkpoints at powers of two and T
            lam_running[t - 1], lam_tol_abs = top_eigenvalue(gain_sum)

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
