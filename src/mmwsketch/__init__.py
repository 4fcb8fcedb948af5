"""Rank-1 sketched matrix multiplicative weights over the spectrahedron.

Library layout:

- :mod:`mmwsketch.linalg` -- symmetric dense/operator linear algebra, seeded
  randomness, sphere and Dirichlet(1/2) samplers, extremal eigenvalue estimates.
- :mod:`mmwsketch.lanczos` -- Krylov matrix-exponential-vector products.
- :mod:`mmwsketch.projections` -- spectrahedron/simplex mirror projections,
  the rank-1 sketch, and Monte-Carlo estimators of the averaged projection.
- :mod:`mmwsketch.online` -- the online eigenvector game and regret traces.
- :mod:`mmwsketch.sdp` -- primal-dual SDP feasibility via the sketch.
- :mod:`mmwsketch.cli` -- the ``mmwsketch`` command-line entry point.
"""

__version__ = "0.1.0"

from .linalg import (  # noqa: F401
    DENSE_LIMIT,
    AnchoredForm,
    ConvergenceError,
    DenseLimitError,
    EigenDecomposition,
    LinalgError,
    SeededRng,
    SparseSymOperator,
    anchor,
    dense_eigh,
    sample_dirichlet_half,
    sample_unit_sphere,
)
from .lanczos import (  # noqa: F401
    LanczosDecomposition,
    expm_multiply,
    lanczos_decompose,
    required_iterations,
)
from .projections import (  # noqa: F401
    SpectrahedronAction,
    estimate_avg_projection_direct,
    estimate_avg_projection_dirichlet,
    estimate_bregman,
    estimate_potential,
    mmw_projection,
    rank1_projection,
    rank1_projection_lanczos,
    softmax_grad,
    trace_norm_distance,
)
from .online import (  # noqa: F401
    Adversary,
    RegretTrace,
    Schedule,
    builtin_adversaries,
    default_eta,
    kt_schedule,
    run_online,
)
from .sdp import (  # noqa: F401
    SdpInstance,
    builtin_instance,
    costs,
    duality_gap,
    feasibility_schedule,
    load_instance,
    save_instance,
    solve_feasibility,
)
