"""The benchmark's workloads: seeded inputs, one engine call, independent checks.

Each workload is called through the same public entry point and with the
same arguments the ``mmwsketch`` CLI resolves.  Inputs are generated here
from the call seed; the SDP instance comes from this file's own generator,
not from the library's instance builders, so that merging or changing those
builders cannot change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from mmwsketch import online, sdp
from mmwsketch.linalg import SeededRng, SparseSymOperator
from mmwsketch.projections import (
    rank1_projection,
    rank1_projection_lanczos,
    trace_norm_distance,
)

#: The CLI's default ``--hp-delta``, used for the high-probability regret check.
HP_DELTA = 0.05
#: Horizon of the warm-up call made during set-up.
WARMUP_T = 40
#: Offset that seeds the warm-up game apart from the measured call.
WARMUP_SEED_OFFSET = 2**31
#: Number of steps at which the depth-headroom oracle compares sketches.
ORACLE_STEPS = 8


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


# --------------------------------------------------------------------------- online


class RecordingAdversary(online.Adversary):
    """Forwards a built-in adversary, timing rounds and summing the gains itself.

    The engine asks for the gain of step t before it draws the sphere vector
    of step t, so the interval between two ``next_gain`` calls is one whole
    round.  ``snapshots`` maps a step t to the gain sum strictly before t.
    """

    def __init__(self, inner, clock, snapshot_steps=()):
        self.inner = inner
        self.n = inner.n
        self.gain_class = inner.gain_class
        self.clock = clock
        self.gain_sum = np.zeros((inner.n, inner.n))
        self.snapshot_steps = frozenset(snapshot_steps)
        self.snapshots = {}
        self._t = 0

    def next_gain(self, history):
        self.clock.tick()
        self._t += 1
        if self._t in self.snapshot_steps:
            self.snapshots[self._t] = self.gain_sum.copy()
        gain = np.asarray(self.inner.next_gain(history), dtype=float)
        self.gain_sum += gain
        return gain


@dataclass
class OnlineInputs:
    adversary: online.Adversary
    schedule: online.Schedule
    rng: SeededRng
    seed: int


@dataclass
class OnlineOutcome:
    trace: online.RegretTrace
    recorder: RecordingAdversary


@dataclass(frozen=True)
class OnlineWorkload:
    """``run_online`` as ``mmwsketch online-eig`` calls it for one seed."""

    strategy: str
    adversary: str
    n: int
    T: int
    probe: tuple  # kernels of the speed probe (see ``timing``)
    delta: float = 0.1
    k0: float | None = None  # Krylov depth constant; None for dense strategies
    kind: str = field(default="online", init=False)

    @property
    def refined(self):
        return self.adversary in ("psd_random", "streaming_pca")

    def _inputs(self, seed, T):
        adv_rng, play_rng = SeededRng(seed).spawn(2)
        eta = online.default_eta(self.n, T)
        if self.refined:
            eta = min(eta, online.REFINED_ETA_MAX)
        kt_rule = None if self.k0 is None else online.kt_schedule(self.n, T, eta, self.delta, self.k0)
        adversary = online.builtin_adversaries(self.adversary, self.n, adv_rng)
        schedule = online.Schedule(eta=eta, T=T, delta=self.delta, kt_rule=kt_rule)
        return OnlineInputs(adversary, schedule, play_rng, seed)

    def setup(self, seed):
        warm = self._inputs(seed + WARMUP_SEED_OFFSET, WARMUP_T)
        online.run_online(warm.adversary, self.strategy, warm.schedule, warm.rng)
        return self._inputs(seed, self.T)

    def call(self, inputs, clock, oracle=False):
        steps = _oracle_steps(self.T) if oracle else ()
        recorder = RecordingAdversary(inputs.adversary, clock, steps)
        trace = online.run_online(recorder, self.strategy, inputs.schedule, inputs.rng)
        return OnlineOutcome(trace, recorder)

    def check(self, inputs, out):
        trace, failures = out.trace, []
        trace.validate()
        eta, T = inputs.schedule.eta, self.T
        if self.refined:
            bound = online.refined_regret_bound(self.n, eta, trace.lam_max_final)
            bound += np.sqrt(2.0 * T * np.log(1.0 / HP_DELTA))
        else:
            bound = online.high_probability_regret_bound(self.n, eta, T, HP_DELTA)
        if not trace.total_regret <= bound:
            failures.append(f"regret {trace.total_regret:.6g} above the bound {bound:.6g}")
        lam = float(np.linalg.eigvalsh(out.recorder.gain_sum)[-1])
        if abs(lam - trace.lam_max_final) > 1e-9 * max(1.0, abs(lam)) + trace.lam_max_tol:
            failures.append(f"lam_max_final {trace.lam_max_final!r} differs from {lam!r}")
        return failures

    def steps(self, out):
        return out.trace.T

    def digest(self, out):
        t = out.trace
        return _digest(
            t.step_gain, t.cum_gain, t.lam_max_running, t.k_used, t.matvecs,
            (t.lam_max_final, t.lam_max_tol, t.total_regret, t.avg_regret),
        )

    def work(self, out, spans_k):
        t = out.trace
        return {
            "lanczos.matvecs_per_step": float(t.matvecs.sum()) / t.T,
            "lanczos.depth_mean": float(t.k_used.mean()),
        }

    def useful_depth(self, inputs, out):
        """Smallest k within trace distance 1/T of the exact sketch, over the k used.

        Rebuilds ``Y = eta * gain_sum`` from the recorder's own snapshots and
        draws a fresh sphere vector, so the engine's operators, counters and
        random stream are not touched.
        """
        if self.strategy != "rank1_lanczos":
            return None
        rng = np.random.default_rng(inputs.seed)
        eta, tol = inputs.schedule.eta, 1.0 / self.T
        useful = used = 0
        for t, gain_sum in sorted(out.recorder.snapshots.items()):
            y = eta * gain_sum
            u = rng.standard_normal(self.n)
            u /= np.linalg.norm(u)
            exact = rank1_projection(y, u)
            k_used = int(out.trace.k_used[t - 1])
            op = SparseSymOperator.from_dense(y)
            k = next(
                (j for j in range(1, k_used + 1)
                 if trace_norm_distance(rank1_projection_lanczos(op, u, j), exact) <= tol),
                k_used,
            )
            useful += k
            used += k_used
        return useful / used


def _oracle_steps(T):
    return sorted({max(1, round(T * (i + 1) / ORACLE_STEPS)) for i in range(ORACLE_STEPS)})


# --------------------------------------------------------------------------- sdp


def sparse_instance(seed, n, m, density):
    """Random sparse constraints, each scaled to unit operator norm.

    Every upper-triangle entry (diagonal included) is nonzero with
    probability ``density``.  Returns the dense matrices, which the checks
    use, and the same constraints as an :class:`SdpInstance` without a
    precomputed width, as a file-loaded instance arrives.
    """
    gen = np.random.default_rng(seed)
    mats, triplets = [], []
    for i in range(m):
        upper = np.triu(gen.standard_normal((n, n)) * (gen.uniform(size=(n, n)) < density))
        a = upper + np.triu(upper, 1).T
        lam = np.linalg.eigvalsh(a)
        a /= max(abs(lam[0]), abs(lam[-1]))
        rows, cols = np.nonzero(np.triu(a))
        triplets.extend((i + 1, r + 1, c + 1, a[r, c]) for r, c in zip(rows.tolist(), cols.tolist()))
        mats.append(a)
    return np.array(mats), sdp.SdpInstance(n, m, triplets)


class TimedRng:
    """Forwards a :class:`SeededRng`; ``standard_normal`` opens each SDP round.

    ``solve_feasibility`` draws one sphere vector at the start of every step,
    so successive draws time whole rounds without changing the stream.
    """

    def __init__(self, rng, clock):
        self._rng = rng
        self._clock = clock

    def standard_normal(self, size=None):
        self._clock.tick()
        return self._rng.standard_normal(size)


@dataclass
class SdpInputs:
    instance: sdp.SdpInstance
    mats: np.ndarray
    seed: int


@dataclass(frozen=True)
class SdpWorkload:
    """``solve_feasibility`` as ``mmwsketch sdp-feas`` calls it for one seed."""

    use_lanczos: bool
    n: int = 200
    m: int = 20
    density: float = 0.05
    epsilon: float = 0.5
    delta: float = 0.1
    kind: str = field(default="sdp", init=False)

    @property
    def probe(self):
        """Kernels of the speed probe (see ``timing``)."""
        return ("sparse_adjoint" if self.use_lanczos else "dense_eigh", "python")

    def setup(self, seed):
        _, warm = sparse_instance(seed + WARMUP_SEED_OFFSET, 20, 4, 0.2)
        sdp.solve_feasibility(warm, 1.0, delta=self.delta, rng=SeededRng(seed), use_lanczos=self.use_lanczos)
        mats, instance = sparse_instance(seed, self.n, self.m, self.density)
        return SdpInputs(instance, mats, seed)

    def call(self, inputs, clock, oracle=False):
        return sdp.solve_feasibility(
            inputs.instance, self.epsilon, delta=self.delta,
            rng=TimedRng(SeededRng(inputs.seed), clock), use_lanczos=self.use_lanczos,
        )

    def check(self, inputs, res):
        failures = []
        if not res.completed:
            failures.append("solve stopped before its horizon")
        if not res.gap.value <= self.epsilon:
            failures.append(f"gap {res.gap.value:.6g} above epsilon {self.epsilon}")
        if not res.s_lower <= res.s_upper:
            failures.append(f"s_lower {res.s_lower!r} above s_upper {res.s_upper!r}")
        expected = "feasible" if res.s_lower > 0 else "infeasible" if res.s_upper < 0 else "undetermined-at-epsilon"
        if res.verdict != expected:
            failures.append(f"verdict {res.verdict!r} disagrees with the interval ({expected!r})")
        s_lower = float(np.einsum("ijk,jk->i", inputs.mats, res.x_avg.matrix).min())
        if abs(s_lower - res.s_lower) > 1e-9:
            failures.append(f"s_lower {res.s_lower!r} differs from the recomputed {s_lower!r}")
        lam = float(np.linalg.eigvalsh(np.tensordot(res.y_avg, inputs.mats, axes=1))[-1])
        if not res.s_upper >= lam - 1e-9:
            failures.append(f"s_upper {res.s_upper!r} below lam_max(A* y_avg) = {lam!r}")
        return failures

    def steps(self, res):
        return res.T

    def digest(self, res):
        return _digest(
            res.x_factor_history,
            (res.T, res.eta, res.omega, res.gap.value, res.gap.lo, res.gap.hi,
             res.s_lower, res.s_upper, res.verdict, res.matvecs, res.completed),
        )

    def work(self, res, spans_k):
        return {
            "lanczos.matvecs_per_step": res.matvecs / res.T,
            "lanczos.depth_mean": float(np.mean(spans_k)) if spans_k else 0.0,
        }

    def useful_depth(self, inputs, res):
        return None


# Why each workload (BENCHMARK.json records the same reasons):
# - online-dense: the README headline, ``online-eig --strategy rank1``.  Haar
#   rotations, gain validation and the running lam_max eigensolves dominate;
#   no Krylov code runs, so Krylov changes must leave it unchanged.
# - online-krylov: ``rank1-lanczos`` with the kt depth rule.  Lanczos and
#   matvecs dominate, rank-1 gains make the adversary nearly free, and the
#   history of dense gains sets peak memory.
# - sdp-krylov: ``sdp-feas --lanczos`` on a sparse 200x20 instance, where the
#   m-way adjoint matvec dominates.
# - sdp-dense: the same instance and seeds with exact projections, the CLI
#   default: costs, the dense adjoint and averaging, and no Krylov code.
WORKLOADS = {
    "online-dense": OnlineWorkload(
        "rank1_exact", "random_rotation", n=32, T=5000, probe=("small_dense", "python"),
    ),
    "online-krylov": OnlineWorkload(
        "rank1_lanczos", "streaming_pca", n=128, T=600, k0=4.0, probe=("dense_matvec", "python"),
    ),
    "sdp-krylov": SdpWorkload(use_lanczos=True),
    "sdp-dense": SdpWorkload(use_lanczos=False),
}
