"""Multi-type Wright-Fisher processes with heavy reproductive events.

Exact finite-population simulation with pluggable colouring rules, a
jump-diffusion integrator for the continuum limit, the dual lineage-count
chain for fixation probabilities, and a statistical experiment harness.
"""

from .ancestral import (
    AncestralModel,
    FixationPrediction,
    StationaryLaw,
    dual_moment,
    fixation_probabilities,
    simulate_ancestral,
    stationary_law,
)
from .bernstein import PolynomialMap, bernstein_table
from .core import (
    OffspringLaw,
    as_frequencies,
    random_interior_points,
    round_to_counts,
)
from .discrete import DiscreteModel, empirical_drift, simulate_discrete
from .errors import ConfigError, LwfError, RateExplosionError, ScheduleError
from .measures import (
    BetaLaw,
    FiniteAtoms,
    LambdaMeasure,
    PointMass,
    TruncatedSizeLaw,
    UniformLaw,
    ZeroMeasure,
    lambda_nk_quadrature,
)
from .rng import RngStream
from .rules import (
    BernsteinRule,
    ColouringRule,
    LogisticRule,
    NegFreqDepRule,
    NeutralRule,
    PartialOrderRule,
    PosFreqDepRule,
    TransitiveRule,
    TransitiveWithMutationRule,
    bernstein_rule,
)
from .sde import BatchSde, SdeConfig, simulate_sde, zeta
from .selection import DriftFunction, cyclic_contest_map, transitive_pair_map
from .trajectory import write_trajectories_csv

__version__ = "0.1.0"
