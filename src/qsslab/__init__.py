"""qsslab: construct, simulate, and verify quantum secret sharing schemes."""

from .protocols import (
    DecouplingError,
    ProtocolOutcome,
    attack_threshold34_pair12,
    attack_threshold34_pair23,
    decoupling_decoder,
    random_secrets,
    run_block_measure_protocol,
    run_threshold34_circuit,
)
from .qstate import (
    DensityMatrix,
    PureState,
    RegisterLayout,
    apply_isometry,
    mutual_information,
    partial_trace,
    purify_secret,
    von_neumann_entropy,
)
from .schemes import (
    SchemeSpec,
    build_block_scheme,
    build_threshold34,
    distribute_purified,
    induce_structure,
    load_scheme,
    save_scheme,
    search_assignment,
)
from .structures import (
    HYPERSTAR_CATALOG,
    AccessStructure,
    PlayerSubset,
    catalog_number,
    enumerate_hyperstars,
    is_quantum_admissible,
    load_structure,
    perfect_feasibility,
    threshold_structure,
)
from .verifier import (
    StructuralMismatchError,
    VerificationReport,
    feasibility_matrix,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
