"""Criticality analysis of RSN primitives (Sec. IV)."""

from .accessibility import (
    AccessibilityReport,
    accessibility_under_single_faults,
    verify_critical_instruments,
)
from .batch import BatchFaultAnalysis
from .damage import (
    DamageReport,
    ExplicitDamageAnalysis,
    FastDamageAnalysis,
    analyze_damage,
)
from .effects import (
    FaultEffect,
    control_cell_break_effect,
    effect_of_fault,
    mux_stuck_effect,
    observability_tree,
    segment_break_effect,
    settability_tree,
)
from .degradation import DegradationReport, degrade, worst_surviving_faults
from .engine import (
    ANALYSIS_VERSION,
    CriticalityEngine,
    CumulativeEngineStats,
    EngineStats,
    analysis_fingerprint,
    default_cache_dir,
)
from .graph_analysis import GraphDamageAnalysis, expected_damage_under_rate
from .route import route_analysis
from .structure import hierarchy_depth, kill_sizes, network_statistics
from .faults import (
    ControlCellBreak,
    Fault,
    MuxStuck,
    SegmentBreak,
    controlled_muxes,
    fault_from_dict,
    fault_to_dict,
    faults_of_primitive,
    iter_all_faults,
    sib_stuck_asserted,
    sib_stuck_deasserted,
)

__all__ = [
    "ANALYSIS_VERSION",
    "AccessibilityReport",
    "BatchFaultAnalysis",
    "ControlCellBreak",
    "CriticalityEngine",
    "CumulativeEngineStats",
    "DamageReport",
    "DegradationReport",
    "EngineStats",
    "ExplicitDamageAnalysis",
    "FastDamageAnalysis",
    "Fault",
    "FaultEffect",
    "GraphDamageAnalysis",
    "MuxStuck",
    "SegmentBreak",
    "accessibility_under_single_faults",
    "analysis_fingerprint",
    "analyze_damage",
    "control_cell_break_effect",
    "controlled_muxes",
    "default_cache_dir",
    "degrade",
    "effect_of_fault",
    "expected_damage_under_rate",
    "fault_from_dict",
    "fault_to_dict",
    "faults_of_primitive",
    "hierarchy_depth",
    "iter_all_faults",
    "kill_sizes",
    "mux_stuck_effect",
    "network_statistics",
    "observability_tree",
    "route_analysis",
    "segment_break_effect",
    "settability_tree",
    "sib_stuck_asserted",
    "sib_stuck_deasserted",
    "verify_critical_instruments",
    "worst_surviving_faults",
]
