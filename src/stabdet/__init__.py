"""Stabilizer and graph states, their reduced density matrices in closed
form, and constructive checks that the marginals on generator supports
determine the state."""

from .f2_pauli import (
    PauliOperator,
    commutes,
    dense_matrix,
    f2_rank,
    format_pauli,
    from_binary,
    multiply,
    parse_pauli,
    restrict,
    support,
    to_binary,
)
from .stabilizer import (
    GeneratorSet,
    ValidationReport,
    density_matrix as stabilizer_density_matrix,
    enumerate_group,
    enumerate_stabilizer_states,
    generator_matrix,
    minimal_support_set,
    recombine_generators,
    stabilizer_rdm,
    validate,
)
from .graph_state import (
    Graph,
    LocalCliffordLayer,
    canonical_generators,
    lc_to_graph,
    state_vector,
)
from .determination import (
    CounterexampleReport,
    KernelBasis,
    RdmConstraintSet,
    ReconstructionReport,
    dense_partial_trace,
    forcing_chain_mixed,
    forcing_chain_pure,
    rdm_kernel,
    trace_distance,
    uniqueness_by_enumeration,
    verify_counterexample,
)

from types import ModuleType as _ModuleType

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
