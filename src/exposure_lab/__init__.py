"""exposure-lab: estimate the fraction of a network exposed to shared
information from small node samples.

Two unbiased estimators (uniform-node and friendship-paradox sampling),
exact variance analytics deciding between them, synthetic network shaping
with controlled assortativity and degree-sharing correlation, cascade
models, and real-time stochastic-approximation trackers.
"""

from .cascade import (
    CascadeTrajectory,
    SharingState,
    exposure_all,
    exposure_bits,
    exposure_times,
    icm_step,
    ltm_step,
    run_cascade,
    true_exposure,
)
from .estimators import (
    ConditionVerdict,
    EstimatorReport,
    ExponentialDegrees,
    MarkovianSpec,
    PowerLawDegrees,
    condition_analytic,
    condition_empirical,
    condition_independent_case,
    directed_estimates,
    exact_variance_fp,
    exact_variance_vanilla,
    fp_estimate,
    markovian_exposure_prob,
    sharer_degree_sign_heuristic,
    vanilla_estimate,
)
from .genmodel import (
    CorrelationTarget,
    DegreeSequence,
    ShapingResult,
    assortativity_coefficient,
    bernoulli_sharing,
    configuration_model,
    degree_sharing_correlation,
    powerlaw_cap,
    powerlaw_degree_sequence,
    rewire_to_assortativity,
    shape_network,
    shaping_targets,
    swap_to_correlation,
)
from .graph import (
    DiGraph,
    Graph,
    average_degree,
    build_directed,
    build_undirected,
    component_labels,
    is_bipartite,
    is_connected,
    random_walk_friends,
    sample_directed_many,
    sample_friend_two_step,
    sample_random_friends,
    sample_uniform_nodes,
)
from .rng import make_generator
from .tracking import (
    StepPolicy,
    TrackerState,
    TrackRecord,
    make_tracker,
    run_tracking_experiment,
    tracker_update,
)

__version__ = "0.1.0"
