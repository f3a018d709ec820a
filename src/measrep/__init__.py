"""Reproduce one quantum measurement with repeated uses of another.

Synthesize partition protocols, optimize the achievable statistics with
a box-constrained quadratic program, construct the prepared states, and
quantify the reproduction error exactly and by Haar Monte Carlo. The
``subroutines`` module covers post-measurement realisation, read back
for an exact check, and generalised classical cloning; ``coding``
covers the finite-rate block-coding protocol, channel capacity and the
exact ML error that cloning and repetition codes share.
"""

from .coding import (
    BlockCode,
    CapacityResult,
    ClassicalChannel,
    associated_channel,
    blahut_arimoto,
    cloning_error_rate,
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
    hermitian_eig,
    induced_povm,
    lueders_instrument,
    noisy_z_povm,
    tensor,
    trine_povm,
    validate_povm,
    von_neumann_povm,
)
from .rms import RmsEstimate, rms_exact_instrument, rms_exact_povm, rms_monte_carlo_povm
from .subroutines import (
    CloningBasis,
    chernoff_information,
    build_measurement_isometry,
    select_cloning_basis,
)
from .vnsynth import (
    PartitionProtocol,
    build_partition_povm,
    construct_states,
    exhaustive_search,
    hill_climb_search,
    implemented_povm,
    solve_box_quadratic_qubit,
    synthesize,
    trine_optimal_protocol,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
