"""Round clock and machine-speed probe.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds.  Times are therefore reported in reference seconds: a wall
time multiplied by the ratio of the probe's nominal time to the time it took
while that wall time was measured, raised to ``SENSITIVITY``.  Each workload
has its own probe, a mix of numpy/scipy kernels shaped like the work its
engine does, because kernels of different kinds slow down by different
factors when the machine is busy.  The probes are the benchmark's own code
and do not use the package, so no change to the package can move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse

#: Exponent on the probe's speed ratio.  The engines mostly slow down less
#: than their probes when the machine is busy: fitted slopes of log call time
#: on log probe time were 0.76 to 0.82 over 5 runs per workload, and up to
#: 1.0 in other sets of runs.
SENSITIVITY = 0.8
#: Probes in the burst taken before and after a set-up or a traced call.
BURST = 9
#: Minimum gap between two probes made inside an engine call.
PROBE_EVERY_NS = 50_000_000


def _kernels():
    """name -> (kernel, nominal ns).

    The nominal time is the kernel's time on the machine where the benchmark
    was defined (2-core Intel Xeon VM, in its fast state); it only sets the
    scale of reference seconds.
    """
    gen = np.random.default_rng(0)
    csrs = [scipy.sparse.random(200, 200, density=0.05, random_state=gen, format="csr") for _ in range(20)]
    weights = gen.dirichlet(np.ones(20))
    vec200 = gen.standard_normal(200)
    small = gen.standard_normal((32, 32))
    small_sym = small + small.T
    mid = gen.standard_normal((128, 128))
    mid_sym = mid + mid.T
    vec128 = gen.standard_normal(128)

    def sparse_adjoint():
        # the m-way weighted sum of sparse products an SDP operator applies
        out = np.zeros(200)
        for w, a in zip(weights, csrs):
            out += w * (a @ vec200)

    def small_dense():
        # Haar QR, eigvalsh and products at n=32, as in the dense online game
        for _ in range(3):
            q, _ = np.linalg.qr(small)
            np.linalg.eigvalsh(small_sym)
            q @ small_sym @ q.T

    def dense_matvec():
        # a Lanczos-like chain of n=128 dense products
        y = vec128
        for _ in range(40):
            y = mid @ y
            y = y / np.linalg.norm(y)

    def dense_eigh():
        # the eigendecomposition behind an exact projection
        np.linalg.eigh(mid_sym)

    def python():
        acc = 0
        for i in range(4000):
            acc += i * i

    return {
        "sparse_adjoint": (sparse_adjoint, 170_000),
        "small_dense": (small_dense, 280_000),
        "dense_matvec": (dense_matvec, 200_000),
        "dense_eigh": (dense_eigh, 1_200_000),
        "python": (python, 210_000),
    }


class Probe:
    """Runs a fixed mix of kernels (see ``_kernels``); returns its duration in ns."""

    def __init__(self, kernels):
        table = _kernels()
        self._run = [table[k][0] for k in kernels]
        self.nominal_ns = sum(table[k][1] for k in kernels)

    def __call__(self):
        t0 = time.perf_counter_ns()
        for kernel in self._run:
            kernel()
        return time.perf_counter_ns() - t0

    def burst(self):
        return [self() for _ in range(BURST)]

    def scale(self, probe_ns):
        """Reference seconds per wall second, from probes taken during the interval."""
        return (self.nominal_ns / statistics.median(probe_ns)) ** SENSITIVITY


class RoundClock:
    """Timestamps the opening of every game round, probing speed between rounds.

    With a probe, at most every ``PROBE_EVERY_NS`` a round opens with one
    probe.  Its duration is taken out of that interval, and tells the
    machine speed at that moment.  ``mark`` adds a timestamp without a
    probe, for the start and end of a call.
    """

    def __init__(self, probe=None):
        self.stamps = []
        self.probes = []  # (stamp index, probe ns)
        self._probe = probe
        self._next_ns = 0

    def mark(self):
        now = time.perf_counter_ns()
        self.stamps.append(now)
        return now

    def tick(self):
        now = self.mark()
        if self._probe is not None and now >= self._next_ns:
            took = self._probe()
            self.probes.append((len(self.stamps) - 1, took))
            self._next_ns = now + took + PROBE_EVERY_NS

    @property
    def probe_ns(self):
        return [took for _, took in self.probes]

    def intervals_us(self):
        """Intervals between timestamps in reference microseconds, each scaled by the speed near it.

        The speed for an interval is the median of the probe that preceded
        it (the first probe, for intervals before it) and that probe's two
        neighbours.
        """
        iv = np.diff(np.asarray(self.stamps, dtype=np.int64)).astype(float)
        if not self.probes or not len(iv):
            return iv / 1e3
        at = np.array([i for i, _ in self.probes])
        took = np.array(self.probe_ns, dtype=float)
        inside = at < len(iv)
        iv[at[inside]] -= took[inside]
        padded = np.concatenate([took[:1], took, took[-1:]])
        local = np.median(np.stack([padded[:-2], padded[1:-1], padded[2:]]), axis=0)
        nearest = np.maximum(np.searchsorted(at, np.arange(len(iv)), side="right") - 1, 0)
        return iv * (self._probe.nominal_ns / local[nearest]) ** SENSITIVITY / 1e3
