"""Flash translation layers: the abstract interface and the baseline schemes."""

from repro.ftl.base import FTL, FTLStats
from repro.ftl.dftl import DFTL
from repro.ftl.pagemap import PageLevelFTL
from repro.ftl.sftl import SFTL

__all__ = [
    "FTL",
    "FTLStats",
    "DFTL",
    "PageLevelFTL",
    "SFTL",
]
