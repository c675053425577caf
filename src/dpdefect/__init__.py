"""dpdefect: exact verification toolkit for defective DP-colorings.

Decides (i, j)-defective colorability of simple graphs under arbitrary
full 2-fold covers and per-vertex capacity pairs, computes potential and
discharging quantities exactly, generates the sharp flag-path
constructions, and certifies their criticality exactly from the loads
of their block-cut trees.
"""

from .model import (
    PARALLEL,
    POOR,
    RICH,
    TWISTED,
    CoverSigning,
    DefectParams,
    InstanceFormatError,
    SimpleGraph,
    WeightedInstance,
    instance_digest,
    map_from_str,
    map_to_str,
    parse_instance,
    serialize_instance,
)
from .solver import (
    CoverScan,
    Violation,
    brute_force_oracle,
    check_coloring,
    colorable_all_covers,
    find_coloring,
    maximal_profiles,
    sample_covers,
)
from .potential import (
    PotentialReport,
    SparsityResult,
    min_potential_subset,
    sparsity_test,
    subset_potential,
    vertex_potential,
)
from .discharging import (
    ORDINARY,
    SURPLUS,
    ChargeLedger,
    charges,
    classify_vertices,
    ordinary_charge_doubled,
    verify_total_charge,
)
from .constructions import (
    ConstructionSpec,
    CountsReport,
    FlagSigning,
    FlagSpec,
    GraphBuilder,
    edge_orbits,
    flag_path_graph,
    flag_path_instance,
    flag_sign_classes,
    hard_cover_signing,
    make_flag,
    parallel_flag_signing,
    reduced_cover_iterator,
    twisted_flag_signing,
    verify_counts,
)
from .harness import (
    COLORABLE,
    CRITICAL,
    NOT_CRITICAL,
    UNREFUTED,
    CriticalityVerdict,
    EnumerationReport,
    Exhaustive,
    Reduced,
    Sampled,
    enumerate_critical,
    graphs_up_to_iso,
    is_critical,
    sampled_edge_deletion_sweep,
    verify_sharpness_suite,
)

__version__ = "0.1.0"
