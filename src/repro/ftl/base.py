"""The FTL interface shared by the baselines and LeaFTL.

An FTL owns the logical-to-physical mapping table.  The SSD model
(:class:`repro.ssd.ssd.SimulatedSSD`) is responsible for everything else —
flash state, write buffering, data caching, GC and wear leveling — and the
contract is exactly what the device, the harness and the recovery driver
call; a method stays on :class:`FTL` only while one of them (or an example,
the perf ledger or a reference test) calls it:

* :meth:`FTL.translate_range` resolves a *contiguous run* of LPAs — the
  flash-resident page span of one host read command — in a single batch.
  It is the one translation method an FTL must implement and the only one
  the device calls;
* :meth:`FTL.update_batch` records a batch of freshly programmed
  ``(LPA, PPA)`` mappings after a write-buffer flush (and, through the
  ``migrate_batch`` default, a reclaim migration), charging
  ``stats.updates`` once per pair.
  It is the only way a mapping changes: an overwrite replaces the LPA's
  mapping, and there is no TRIM — the device rejects every opcode but
  ``R`` / ``W`` and the paper's LeaFTL never forgets an LPA;
* :meth:`FTL.resident_bytes` / :meth:`FTL.full_mapping_bytes` report the
  DRAM footprint, which drives the data-cache sizing;
* :meth:`FTL.rebuild_from_oob` reconstructs the table after a power
  failure from the ``(LPA, PPA)`` pairs of an OOB scan.

Four hooks have defaults that only LeaFTL overrides:

* :meth:`FTL.migrate_batch` — record the batch a reclaim migration
  programmed, with the page each pair moved from (default:
  ``update_batch``; LeaFTL carries the learned segments that moved whole);

* :meth:`FTL.oob_window` — how many neighbours' reverse mappings each side
  the write path must store in every page's OOB (default 0; LeaFTL: γ).
  The device reads it once, at construction;
* :meth:`FTL.resolve_misprediction` — name the candidate PPAs of an LPA
  from the OOB window of a page that turned out not to be its live copy
  (default: none, and the device scans the error window page by page);
* :meth:`FTL.reset_stats` — zero every counter the FTL keeps (end of a
  warm-up); an FTL with counters beyond ``stats`` extends it.

Background work is not part of the contract: LeaFTL compacts from inside
its own ``update_batch`` / ``migrate_batch`` (``LeaFTL.maintenance``), so
no device calls it.

Flash accesses the resolution itself required (translation-page fetches
and dirty evictions in DFTL/SFTL) are reported through
``stats.translation_page_reads`` / ``translation_page_writes``.  The device
charges flash time from each call's delta: what those counters grew by
across the one ``translate_range``, ``update_batch`` or ``migrate_batch``
call that caused the I/O.  A counter change anywhere else (a reset, a rebuild) is never
charged.

The ``translate_range`` contract
--------------------------------

``translate_range(lpa, npages)`` returns one PPA per page of
``[lpa, lpa + npages)``, in LPA order (``None`` for an LPA that was never
written; a learned prediction may be off by up to the error bound and
even fall off the array), resolved against the
mapping state at the time of the call (page ``i``'s result may not reflect
updates applied after the call began); ``npages < 1`` raises
``ValueError``.  The accounting contract:

* ``stats.lookups`` is charged **once per mapping-structure resolution**,
  not once per page: one learned segment that answers a whole run
  (LeaFTL), one translation-page visit that serves every entry on that
  page (DFTL/SFTL), one table probe for the whole run (PageMapFTL).
  A contiguous 8-page read served by a single learned segment therefore
  grows ``stats.lookups`` by 1, not 8.  LeaFTL's table charges its own
  ``MappingTableStats`` (lookups, levels searched, the Figure 23a
  histogram) and ``stats.lookups`` grows by what the table's did.
* ``FTLStats`` has no misprediction counter: the device counts them
  (``SSDStats.mispredictions``) and LeaFTL splits its own into OOB
  corrections and failures (``LeaFTLStats``).
* translation-page flash traffic is batched the same way: a DFTL/SFTL
  run that misses on a translation page charges **one**
  ``translation_page_reads`` for all of its entries in the run, plus
  whatever dirty evictions the admission forced.

There is no one-page ``translate`` on the contract: a one-page lookup is
``translate_range(lpa, 1)[0]``.  LeaFTL alone has a ``translate`` — the
paper's Algorithm-1 per-LPA walk, the reference its ``lookup_range``
(answered from a per-group owner index) is tested against and what the
lookup micro-benchmarks time.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass
class FTLStats:
    """Counters common to every FTL implementation."""

    lookups: int = 0
    updates: int = 0
    translation_page_reads: int = 0
    translation_page_writes: int = 0

    def reset(self) -> None:
        self.lookups = 0
        self.updates = 0
        self.translation_page_reads = 0
        self.translation_page_writes = 0


class FTL(abc.ABC):
    """Abstract base class of all flash translation layers."""

    #: Human-readable scheme name used in reports and benchmark tables.
    name: str = "ftl"

    def __init__(self, mapping_budget_bytes: Optional[int] = None) -> None:
        #: Maximum bytes of DRAM the mapping structures may occupy
        #: (``None`` means unlimited — used by memory-footprint studies).
        self.mapping_budget_bytes = mapping_budget_bytes
        self.stats = FTLStats()

    # ------------------------------------------------------------------ #
    # Address translation
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def translate_range(self, lpa: int, npages: int) -> List[Optional[int]]:
        """Resolve the contiguous run ``[lpa, lpa + npages)`` in one batch.

        Returns one PPA per page, in LPA order, ``None`` where the LPA has
        never been written; see the module docstring for the accounting
        contract.
        """

    @abc.abstractmethod
    def update_batch(self, mappings: Sequence[Tuple[int, int]]) -> None:
        """Record freshly written ``(lpa, ppa)`` pairs (a buffer flush).

        The pairs arrive in programming order: when the write buffer is
        flushed LPA-sorted (the default), both LPAs and PPAs are ascending.
        """

    def migrate_batch(
        self, mappings: Sequence[Tuple[int, int]], old_ppas: Sequence[int]
    ) -> None:
        """Record the ``(lpa, ppa)`` pairs a reclaim migration programmed.

        ``old_ppas[i]`` is the page pair ``i`` moved from.  The default is
        :meth:`update_batch`; LeaFTL uses the shifts to carry segments.
        """
        self.update_batch(mappings)

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def resident_bytes(self) -> int:
        """Bytes of controller DRAM the mapping structures currently occupy."""

    @abc.abstractmethod
    def full_mapping_bytes(self) -> int:
        """Bytes needed to keep the *entire* mapping structure in DRAM.

        This is the quantity compared in Figures 15 and 19 of the paper: it
        ignores any caching budget and measures how compactly each scheme
        can represent all live mappings.
        """

    # ------------------------------------------------------------------ #
    # Hooks with default implementations
    # ------------------------------------------------------------------ #
    def oob_window(self) -> int:
        """Reverse-mapping window the write path must store in each OOB."""
        return 0

    def resolve_misprediction(
        self, lpa: int, predicted_ppa: int, window: Sequence[int]
    ) -> Sequence[int]:
        """The PPAs that may hold ``lpa``, from the OOB window read at ``predicted_ppa``.

        ``window`` is that page's reverse-mapping window as the flash array
        stores it (:meth:`repro.flash.flash_array.FlashArray.oob_window_of`):
        entry ``i`` is the LPA of page ``predicted_ppa - oob_window() + i``,
        ``-1`` where it held none.  The device reads the first candidate
        that is a VALID page holding ``lpa``; when none is, it falls back
        to scanning the error window.
        """
        return ()

    def reset_stats(self) -> None:
        """Zero the FTL's counters; mapping state is untouched."""
        self.stats.reset()

    def rebuild_from_oob(self, mappings: Sequence[Tuple[int, int]]) -> None:
        """Reconstruct the mapping table from an OOB reverse-mapping scan.

        ``mappings`` holds the ``(lpa, ppa)`` pair of every VALID flash page
        in PPA order — the ground truth a post-crash scan recovers from the
        durable substrate.  Implementations must discard ALL in-DRAM mapping
        state (a power failure already destroyed it) and rebuild from the
        pairs alone, without charging translation counters: the recovery
        driver accounts the scan's flash reads itself, and the rebuild is a
        pure in-memory reconstruction.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support OOB-scan recovery"
        )
