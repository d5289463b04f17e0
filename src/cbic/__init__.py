"""Simulation and exponential-ergodicity certification for continuous-state
branching processes with immigration and competition.

The package covers: mechanism definitions and their analytic checks
(:mod:`cbic.mechanisms`), the overlap-measure algebra driving the coupling
(:mod:`cbic.measures`), generator evaluation and Lyapunov/coupling drift
bounds (:mod:`cbic.generator`), jump-SDE path and coupled-pair simulation
(:mod:`cbic.simulator`), and the rate-certificate pipeline with weighted
total-variation diagnostics (:mod:`cbic.ergodicity`).
"""

from .mechanisms import (
    BranchingMechanism,
    CompetitionMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    MechanismError,
    ModelSpec,
    conservative_condition,
    phi_eval,
    psi_eval,
    psi_prime_at_zero,
    stable_to_generic,
)
from .measures import kappa, overlap_mass, rn_ratio_many
from .generator import (
    CouplingControl,
    LyapunovCertificate,
    LyapunovFailure,
    SmoothFunction,
    WeightFunction,
    apply_generator,
    coupling_generator_F0,
    lyapunov_certify,
)
from .simulator import (
    CoupledEnsembleResult,
    EnsembleResult,
    SimConfig,
    SimulationError,
    simulate_coupled_ensemble,
    simulate_ensemble,
    simulate_ensembles,
)
from .ergodicity import (
    CertificateError,
    DecayEstimate,
    RateCertificate,
    StationaryEstimate,
    TransportError,
    ValidationReport,
    compute_rate_certificate,
    estimate_stationary,
    estimate_wv_decay,
    render_certificate,
    validate_certificate,
    wv_exact_discrete,
    wv_ot_small,
)

__version__ = "0.1.0"
