"""Reproduce one quantum measurement with repeated uses of another.

Synthesize partition protocols, optimize the achievable statistics with
box-constrained quadratic programs, construct the prepared states, and
quantify the reproduction error exactly and by Haar Monte Carlo. The
``subroutines`` module covers post-measurement realisation and
generalised classical cloning; ``coding`` covers the finite-rate
block-coding protocol and channel capacity.
"""

from .coding import (
    BlockCode,
    CapacityResult,
    ClassicalChannel,
    associated_channel,
    binary_symmetric_channel,
    blahut_arimoto,
    mutual_information,
    random_codebook,
    repetition_code,
    simulate_block_protocol,
)
from .errors import MeasrepError
from .io import load_measurement, load_povm, save_measurement
from .qcore import (
    Instrument,
    Povm,
    Rng,
    degenerate_qutrit_povm,
    haar_state,
    haar_states,
    hermitian_eig,
    induced_povm,
    lueders_instrument,
    noisy_z_povm,
    tensor,
    trine_povm,
    validate_povm,
    von_neumann_povm,
)
from .rms import (
    RmsEstimate,
    rms_closed_form_qubit,
    rms_monte_carlo_instrument,
    rms_monte_carlo_povm,
)
from .subroutines import (
    CloningBasis,
    chernoff_information,
    cloning_error_rate,
    build_measurement_isometry,
    run_post_measurement,
    select_cloning_basis,
)
from .vnsynth import (
    PartitionProtocol,
    build_partition_povm,
    classify_noisy_z,
    construct_states,
    exhaustive_search,
    hill_climb_search,
    implemented_povm,
    noisy_z_optimal,
    solve_box_quadratic_qubit,
    solve_box_quadratic_qudit,
    trine_optimal_protocol,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
