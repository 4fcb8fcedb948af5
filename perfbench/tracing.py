"""Spans recorded from outside the package, at the calls into its public functions.

:meth:`Tracer.installed` replaces each traced function with a timing wrapper
in every ``mmwsketch`` module that holds it (modules that imported it with
``from ... import`` included) and restores the originals on exit.  Spans are
kept in memory as ``[name, start_ns, end_ns, parent, run_id, note]``; the
note carries a work count (a matvec's ``nnz_hint``, a Krylov depth ``k``).
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from collections import defaultdict

import numpy as np

from mmwsketch import lanczos, linalg, online, projections, sdp

#: (module, function, span name, note taken from the positional arguments)
FUNCTIONS = (
    (online, "run_online", "online.run_online", None),
    (sdp, "solve_feasibility", "sdp.solve_feasibility", None),
    (sdp, "costs", "sdp.costs", None),
    (sdp, "duality_gap", "sdp.duality_gap", None),
    (projections, "rank1_projection", "projections.rank1_projection", None),
    (projections, "rank1_projection_lanczos", "projections.rank1_projection_lanczos", lambda a: int(a[2])),
    (projections, "softmax_grad", "projections.softmax_grad", None),
    (lanczos, "expm_multiply", "lanczos.expm_multiply", None),
    (lanczos, "lanczos_decompose", "lanczos.lanczos_decompose", None),
    (linalg, "dense_eigh", "linalg.dense_eigh", None),
    (linalg, "sample_unit_sphere", "linalg.sample_unit_sphere", None),
)
#: (class, method, span name, note); methods are replaced on the class itself.
METHODS = (
    (linalg.SparseSymOperator, "matvec", "linalg.matvec", lambda a: a[0].nnz_hint),
    (linalg.SparseSymOperator, "from_dense", "linalg.from_dense", None),
    (sdp.SdpInstance, "compute_width", "sdp.compute_width", None),
)


class Tracer:
    """In-memory span recorder; one ``run_id`` per traced engine call."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self.eigvalsh_calls = defaultdict(int)  # run_id -> numpy eigvalsh calls inside a span
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.run_id, note(args) if note else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def _count_eigvalsh(self, fn):
        def counted(*args, **kwargs):
            if self._stack:
                self.eigvalsh_calls[self.run_id] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            modules = [m for name, m in sys.modules.items() if name == "mmwsketch" or name.startswith("mmwsketch.")]
            for module, attr, name, note in FUNCTIONS:
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, note)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, key, wrapped)
            for cls, attr, name, note in METHODS:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patch(cls, attr, classmethod(self.wrap(name, raw.__func__, note)))
                else:
                    patch(cls, attr, self.wrap(name, raw, note))
            patch(np.linalg, "eigvalsh", self._count_eigvalsh(np.linalg.eigvalsh))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def write(self, path):
        """Write all spans as gzipped CSV: name,start_ns,end_ns,parent,run_id,note."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent,run_id,note\n")
            for i, (name, start, end, parent, run_id, note) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{run_id},{'' if note is None else note}\n")


class RunSpans:
    """The spans of one traced engine call, with self times and self-checks."""

    def __init__(self, tracer, run_id):
        spans = tracer.spans
        self.eigvalsh_calls = tracer.eigvalsh_calls[run_id]
        self.index = [i for i, s in enumerate(spans) if s[4] == run_id]
        self.spans = spans
        children = defaultdict(list)
        for i in self.index:
            if spans[i][3] >= 0:
                children[spans[i][3]].append(i)
        self.errors = []
        self.self_ns = {}
        for i in self.index:
            _, start, end, _, _, _ = spans[i]
            covered, reach = 0, start
            for c in children[i]:  # appended in start order
                c_start, c_end = spans[c][1], spans[c][2]
                if c_start < start or c_end > end:
                    self.errors.append(f"span {c} ({spans[c][0]}) lies outside its parent {i}")
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self.self_ns[i] = end - start - covered
        roots = [i for i in self.index if spans[i][3] < 0]
        if len(roots) != 1:
            self.errors.append(f"run {run_id} has {len(roots)} root spans")
            self.root = None
            return
        self.root = roots[0]
        root_ns = spans[self.root][2] - spans[self.root][1]
        if sum(self.self_ns.values()) != root_ns:
            self.errors.append(f"self times sum to {sum(self.self_ns.values())} ns, root lasts {root_ns} ns")

    def named(self, name, outermost=True):
        """Indices of spans called ``name``; ``outermost`` drops those nested in a same-name span."""
        s = self.spans
        return [
            i for i in self.index
            if s[i][0] == name and not (outermost and s[i][3] >= 0 and s[s[i][3]][0] == name)
        ]

    def total_s(self, name):
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.named(name)) / 1e9

    def self_s(self, name):
        return sum(self.self_ns[i] for i in self.named(name, outermost=False)) / 1e9

    def notes(self, name):
        return [self.spans[i][5] for i in self.named(name)]

    def duration_s(self, i):
        return (self.spans[i][2] - self.spans[i][1]) / 1e9

    def certificate_split(self):
        """(per-step ``costs`` seconds, final certificate seconds) of an SDP solve.

        The certificate is the final ``duality_gap`` plus the top-level
        ``costs`` calls made after it.
        """
        s = self.spans
        gaps = [i for i in self.named("sdp.duality_gap") if s[i][3] == self.root]
        if not gaps:
            return 0.0, 0.0
        gap = gaps[-1]
        top_costs = [i for i in self.named("sdp.costs") if s[i][3] == self.root]
        per_step = sum(self.duration_s(i) for i in top_costs if s[i][2] <= s[gap][1])
        final = sum(self.duration_s(i) for i in top_costs if s[i][1] >= s[gap][2])
        return per_step, self.duration_s(gap) + final
