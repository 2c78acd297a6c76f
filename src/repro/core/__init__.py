"""LeaFTL core: learned segments, PLR, CRB, log-structured mapping table."""

from repro.core.crb import ConflictResolutionBuffer
from repro.core.group import LPAGroup
from repro.core.leaftl import LeaFTL, LeaFTLStats
from repro.core.level import Level
from repro.core.mapping_table import (
    LogStructuredMappingTable,
    LookupResult,
    MappingTableStats,
)
from repro.core.plr import LearnedSegment, PLRLearner, learn_segments
from repro.core.segment import (
    GROUP_SIZE,
    SEGMENT_BYTES,
    Segment,
    group_base_of,
    group_id_of,
    quantize_slope,
    slope_is_accurate,
)

__all__ = [
    "ConflictResolutionBuffer",
    "LPAGroup",
    "LeaFTL",
    "LeaFTLStats",
    "Level",
    "LogStructuredMappingTable",
    "LookupResult",
    "MappingTableStats",
    "LearnedSegment",
    "PLRLearner",
    "learn_segments",
    "GROUP_SIZE",
    "SEGMENT_BYTES",
    "Segment",
    "group_base_of",
    "group_id_of",
    "quantize_slope",
    "slope_is_accurate",
]
