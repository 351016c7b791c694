"""Latin-square network-coding maps for the two-way relay channel.

Synthesizes and verifies relay maps (Latin squares) that remove singular
fade states: enumerate the singular fade states of a signal set, group the
superposed constellation into singularity-removal constraints, color the
removal graph, and complete the resulting partial square.
"""

from .errors import (
    AmbiguousGroupingError,
    CertificateMismatchError,
    CompletionError,
    SearchBudgetExceeded,
)
from .signal_set import SignalSet, from_spec, make_custom, make_pam, make_psk, make_square_qam
from .fade_state import (
    FadeState,
    enumerate_singular_fade_states,
    psk_representative,
    psk_representatives,
    psk_singular_fade_states,
)
from .constraint import (
    ConstraintPartition,
    build_constraints,
    constrained_pls,
    effective_constellation,
)
from .latin import (
    Grid,
    candidate_cells,
    column_rotate,
    complete_rows_hall,
    find_sdr,
    from_coloring,
    interchange_symbol_row,
    transpose,
    verify_latin,
    verify_removes,
)
from .srg import (
    RemovalGraph,
    build_srg,
    qam_clique_certificate,
    row_clique,
    to_dot,
    vital_subgraph,
)
from .coloring import (
    ChromaticResult,
    Coloring,
    exact_chromatic,
    extend_coloring,
    generic_complete,
    verify_proper,
)
from .psk_construct import (
    PskCase,
    classify,
    psk_constraints_closed_form,
    remove_all_psk,
    removal_square,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousGroupingError",
    "CertificateMismatchError",
    "ChromaticResult",
    "Coloring",
    "CompletionError",
    "ConstraintPartition",
    "FadeState",
    "Grid",
    "PskCase",
    "RemovalGraph",
    "SearchBudgetExceeded",
    "SignalSet",
    "build_constraints",
    "build_srg",
    "candidate_cells",
    "classify",
    "column_rotate",
    "complete_rows_hall",
    "constrained_pls",
    "effective_constellation",
    "enumerate_singular_fade_states",
    "exact_chromatic",
    "extend_coloring",
    "find_sdr",
    "from_coloring",
    "from_spec",
    "generic_complete",
    "interchange_symbol_row",
    "make_custom",
    "make_pam",
    "make_psk",
    "make_square_qam",
    "psk_constraints_closed_form",
    "psk_representative",
    "psk_representatives",
    "psk_singular_fade_states",
    "qam_clique_certificate",
    "removal_square",
    "remove_all_psk",
    "row_clique",
    "to_dot",
    "transpose",
    "verify_latin",
    "verify_proper",
    "verify_removes",
    "vital_subgraph",
]
