"""The benchmark must still run against the package.

``perfbench/tracing.py`` wraps package functions and methods by name, and
``perfbench/workloads.py`` calls the engines and reads their results; a
rename or deletion in the package would otherwise only show up as an
error in a benchmark run.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_targets_resolve():
    tracing = _load_tracing()
    for module, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls, attr, *_ in tracing.METHODS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"


def _load_workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


class _StubClock:
    def tick(self):
        pass


#: Each workload at toy size: the same engine calls, checks and readers, in a fraction of a second.
TOY_SIZES = {
    "online-dense": dict(n=8, T=30),
    "online-krylov": dict(n=8, T=30),
    "sdp-krylov": dict(n=20, m=4, density=0.2, epsilon=1.0),
    "sdp-dense": dict(n=20, m=4, density=0.2, epsilon=1.0),
}


@pytest.mark.parametrize("name", sorted(TOY_SIZES))
def test_workload_runs_at_toy_size(name):
    workloads = _load_workloads()
    wl = dataclasses.replace(workloads.WORKLOADS[name], **TOY_SIZES[name])
    inputs = wl.setup(7)
    out = wl.call(inputs, _StubClock(), oracle=True)
    assert wl.check(inputs, out) == []
    assert wl.steps(out) >= 1
    assert len(wl.digest(out)) == 64
    assert set(wl.work(out, [])) == {"lanczos.matvecs_per_step", "lanczos.depth_mean"}
    useful = wl.useful_depth(inputs, out)
    if name == "online-krylov":
        assert 0.0 < useful <= 1.0
    else:
        assert useful is None


@pytest.mark.parametrize("toy", [True, False], ids=["toy", "full"])
def test_sdp_instances_keep_a_dense_gain_sum(toy):
    from mmwsketch.sdp import _gain_storage

    workloads = _load_workloads()
    wl = workloads.WORKLOADS["sdp-krylov"]
    if toy:
        wl = dataclasses.replace(wl, **TOY_SIZES["sdp-krylov"])
    _, instance = workloads.sparse_instance(7, wl.n, wl.m, wl.density)
    gain, _, _ = _gain_storage(instance, use_lanczos=True)
    assert isinstance(gain, np.ndarray) and gain.shape == (wl.n, wl.n)


@pytest.mark.parametrize("name", ["online-krylov", "sdp-krylov"])
def test_traced_toy_run_shows_every_product_and_decomposition(name):
    tracing, workloads = _load_tracing(), _load_workloads()
    wl = dataclasses.replace(workloads.WORKLOADS[name], **TOY_SIZES[name])
    inputs = wl.setup(7)
    tracer = tracing.Tracer()
    tracer.run_id = 1
    with tracer.installed():
        out = wl.call(inputs, _StubClock(), oracle=True)
    spans = tracing.RunSpans(tracer, 1)
    assert spans.errors == []
    # the per-layer metrics see a product only through its matvec span, and a sketch's Krylov
    # work only through the lanczos_decompose span below it
    matvecs = int(out.trace.matvecs.sum()) if wl.kind == "online" else out.matvecs
    assert len(spans.named("linalg.matvec")) == matvecs > 0
    sketches = spans.named("projections.rank1_projection_lanczos")
    assert len(sketches) == wl.steps(out)
    decomposed = {spans.spans[i][3] for i in spans.named("lanczos.lanczos_decompose")}
    assert set(sketches) <= decomposed
