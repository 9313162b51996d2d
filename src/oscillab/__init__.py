"""oscillab: frequently oscillating subharmonic functions at desk scale.

Explicit tube-tree constructions, a combinatorial lower-bound engine on
rogue-cube configurations, numerical potential theory, and grid-based
verification of every checkable inequality, behind one CLI.
"""

from .geometry import (
    Annulus,
    DyadicCube,
    LatticeCube,
    OrthantMap,
    annulus_cubes,
    containing_dyadic,
    enumerate_basic_cubes,
)
from .treeset import (
    GrowthParameters,
    TreeSpec,
    TubeSpec,
    choose_s_k,
    count_nonsparse,
    is_sparse,
    parse_growth,
)
from .subfun import (
    GlueSchedule,
    build_tau,
    build_u,
    eval_L,
    eval_T,
    eval_W,
    glue_schedule,
    in_region_G,
    log_MM,
)
from .verify import (
    GridField,
    OscillationReport,
    classify_cube,
    content_lower_projection,
    content_upper,
    discrete_laplacian_report,
    growth_profile,
    rogue_census,
    sup_on,
)
from .mainlemma import (
    RhoField,
    RogueConfiguration,
    bound_value,
    build_cover,
    chain_contraction,
    compute_r,
    kappa_chains,
    rho_cube,
)
from .potential import (
    DiscreteMeasure,
    WosEstimate,
    check_claim1,
    check_obs1,
    energy,
    equilibrium,
    frostman,
    kernel,
    wos_harmonic_measure,
)

__version__ = "0.1.0"
