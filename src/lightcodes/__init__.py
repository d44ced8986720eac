"""W-light constant-weight codes and LPOCV null distributions.

The package links leave-pair-out cross-validation to constant-weight
error-correcting codes: the LPO behavior of any symmetric pairwise
learner on a fixed sample is an orientation of a Johnson graph, so the
number of labelings with at most W errors is the size of a W-light code.
Modules: words (constant-weight words), johnson (graphs and
orientations), codes (constructions and exact search), bounds (tables
and critical values), wilcoxon (exact WMW null), learners/lpocv/datagen/
experiments (the cross-validation harness), cli (command line).
"""

from .bounds import (
    BoundRecord,
    assemble_table,
    gs_lower,
    lightcode_critical,
)
from .codes import (
    LightCode,
    boundary_exact,
    construct_graham_sloane,
    construct_orbit,
    construct_tournament,
    exact_L,
    johnson_upper,
    tau,
    verify_light,
)
from .datagen import Dataset, generate_data, load_csv
from .experiments import (
    SimulationConfig,
    empirical_critical_table,
    empirical_critical_value,
    replicate_error_counts,
    type2_experiment,
)
from .johnson import (
    InducedSubgraph,
    JohnsonGraph,
    Orientation,
    ResourceLimitError,
    build_induced,
    count_w_light,
    eulerian_orientation,
    min_max_outdegree,
    orientation_feasible,
    outdegree,
    random_orientation,
)
from .learners import (
    ConstantLearner,
    KnnLearner,
    Learner,
    OrderDirectionLearner,
    ParityLearner,
    RandomOrientationLearner,
    RidgeLearner,
    make_learner,
)
from .lpocv import (
    EmpiricalNull,
    exact_null_distribution,
    lpo_kernel,
    lpocv_u,
    mc_null_pvalue,
    orientation_of_learner,
)
from .wilcoxon import (
    NullDistribution,
    q_count,
    wmw_critical,
    wmw_critical_grid,
    wmw_distribution,
    wmw_pvalue,
)
from .words import (
    Word,
    enumerate_words,
    hamming,
    neighbors,
    rank,
    transpose,
    unrank,
)

__version__ = "0.1.0"
