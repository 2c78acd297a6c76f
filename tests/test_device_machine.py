"""The whole device as one state machine, checked against its oracles.

:class:`DeviceMachine` checks LeaFTL's four guarantees on generated
histories of one ``SimulatedSSD``: predictions land within ±γ, one OOB read
fixes a misprediction, acked writes survive a power failure, and reclaim
never loses a live page.  ``init`` draws the FTL (LeaFTL at γ 0, 1, 4, 8
or 16, DFTL, SFTL or the page map), the GC mode, the queue depth and one
of :data:`DEVICES`, pins the data cache at its floor, sizes the OOB for γ
and ages the device.  The rules are host commands, flush, a forced GC or
wear pass, a power failure or a crash at the k-th completion or GC event
followed by either recovery, LeaFTL's compaction and a two-namespace host
batch.  :meth:`DeviceMachine.check` runs every oracle after every step, a
drained run reads every written LPA back, and a recovery must rebuild
exactly ``power_fail()``'s oracle.  The differentials that compare the
device with a reference import the oracles from here.

Each rule outcome is labelled with ``hypothesis.event``
(``--hypothesis-show-statistics`` prints them); the fixed histories of
:func:`test_every_configuration_runs_every_rule` must reach theirs.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import currently_in_test_context, event, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.core.segment import Segment
from repro.flash.flash_array import PageState
from repro.flash.oob import oob_size_for_gamma, required_oob_bytes
from repro.ftl.base import FTL
from repro.ftl.dftl import DFTL
from repro.ftl.pagemap import PageLevelFTL
from repro.ftl.sftl import SFTL
from repro.host.interface import HostInterface
from repro.ssd import gc
from repro.ssd.recovery import RECOVERY_MODES, CrashTimer, PowerFailure
from repro.ssd.recovery import attach_checkpointer, recover
from repro.ssd.ssd import SimulatedSSD, SSDOptions

KB = 1024
MB = 1024 * KB

Step = Tuple[str, int, int]


def assert_gc_invariants(ssd: SimulatedSSD) -> Dict[int, int]:
    """No LPA maps to an erased page; validity equals the reverse-map size.

    Returns the live mappings it checked.
    """
    flash = ssd.flash
    live = ssd.live_mappings()
    for lpa, ppa in live.items():
        assert flash.page_state(ppa) is PageState.VALID, (lpa, ppa)
        assert flash.lpa_of(ppa) == lpa
    total_valid = sum(
        flash.valid_page_count(block) for block in range(flash.geometry.total_blocks)
    )
    assert total_valid == len(live)
    return live


def answers_for(ssd: SimulatedSSD, ppa: int, lpa: int) -> bool:
    """A page answers for an LPA only while it is VALID."""
    return ssd.flash.lpa_of(ppa) == lpa and ssd.flash.page_state(ppa) is PageState.VALID


class FixCounting(SimulatedSSD):
    """The device under test, logging what each misprediction cost and what
    each host read sensed last."""

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        #: Per mispredicted page: (OOB named the true page, extra reads).
        self.fixes: List[Tuple[bool, int]] = []
        #: Mispredicted pages fixed on another channel than the sensed page.
        self.cross_channel_fixes = 0
        #: Per host page sensed from flash: (LPA, the last page sensed for
        #: it, the LPA's live page when it was read).
        self.last_sensed: List[Tuple[int, int, Optional[int]]] = []
        read_chunk = self.flash.read_chunk

        def logged_read_chunk(lpas, ppas, now_us, misprediction_reads):
            live = [self._current_ppa[lpa] for lpa in lpas]
            last = dict(zip(lpas, ppas))

            def logged_fix(lpa: int, ppa: int) -> Tuple[int, Sequence[int]]:
                sensed, fixes = misprediction_reads(lpa, ppa)
                last[lpa] = fixes[-1] if fixes else sensed
                return sensed, fixes

            done = read_chunk(lpas, ppas, now_us, logged_fix)
            self.last_sensed += [
                (lpa, last[lpa], None if ppa < 0 else ppa) for lpa, ppa in zip(lpas, live)
            ]
            return done

        self.flash.read_chunk = logged_read_chunk  # type: ignore[method-assign]

    def _misprediction_reads(self, lpa: int, ppa: int) -> Tuple[int, Sequence[int]]:
        before = self.stats.mispredictions
        lea = self.ftl.lea_stats if isinstance(self.ftl, LeaFTL) else None
        lea_before = 0 if lea is None else lea.mispredictions
        sensed, fixes = super()._misprediction_reads(lpa, ppa)
        if lea is not None:
            # The device and LeaFTL each count a misprediction once.
            assert lea.mispredictions - lea_before == self.stats.mispredictions - before
        if self.stats.mispredictions > before:
            first = sensed - self._oob_window
            named = any(
                entry == lpa and first + index != sensed and answers_for(self, first + index, lpa)
                for index, entry in enumerate(self.flash.oob_window_of(sensed))
            )
            self.fixes.append((named, len(fixes)))
            channels = {ppa // self._pages_per_channel for ppa in (sensed, *fixes)}
            self.cross_channel_fixes += len(channels) > 1
        return sensed, fixes


def check_fix_bound(ssd: FixCounting, gamma: int) -> None:
    """One extra read when the OOB names the true page, else at most 2γ;
    an FTL without an OOB window never mispredicts."""
    for named, reads in ssd.fixes:
        if named:
            assert reads == 1
        else:
            assert 1 <= reads <= 2 * max(gamma, 1)
    assert ssd.stats.mispredictions == len(ssd.fixes)
    assert ssd.stats.misprediction_extra_reads == sum(reads for _, reads in ssd.fixes)
    if not isinstance(ssd.ftl, LeaFTL):
        assert ssd.fixes == []
        return
    assert ssd.ftl.lea_stats.mispredictions == len(ssd.fixes)


def check_reads(ssd: FixCounting) -> None:
    """The read oracle's first half: every host read ended on the live page."""
    stale = [read for read in ssd.last_sensed if read[1] != read[2]]
    assert stale == [], "(lpa, last sensed page, live page)"


def check_predictions(ssd: SimulatedSSD, gamma: int) -> List[Optional[int]]:
    """The read oracle's second half: the FTL predicts every live LPA
    within ±gamma of its live page, exactly at gamma 0, and no other LPA.
    One ``translate_range`` over the whole space, charged like any other;
    returns every LPA's prediction."""
    predicted = ssd.ftl.translate_range(0, ssd.logical_pages)
    live = ssd.live_mappings()
    off = {
        lpa: (guess, live.get(lpa))
        for lpa, guess in enumerate(predicted)
        if (guess is None) != (lpa not in live) or (lpa in live and abs(guess - live[lpa]) > gamma)
    }
    assert off == {}, "lpa: (prediction, live page)"
    return predicted


#: The two devices: 512 LPAs on 44 blocks of 16 pages behind an 8-page
#: write buffer (reclaim runs every few flushes), and 20 blocks of 64 pages
#: whose write buffer is one block (the hard watermark is three blocks).
DEVICES = {
    "512-lpa": SSDConfig(
        capacity_bytes=512 * 4 * KB,
        pages_per_block=16,
        channels=4,
        dies_per_channel=1,
        write_buffer_bytes=8 * 4 * KB,
        overprovisioning=0.25,
    ),
    "20-block": replace(SSDConfig.tiny(), capacity_bytes=4 * MB, overprovisioning=0.15),
}
#: The data cache at its floor whatever the mapping table's size.
PINNED_CACHE = DRAMBudget(dram_bytes=1, min_cache_bytes=2 * 4 * KB)
#: The FTLs ``init`` draws from: LeaFTL at each γ, then the baselines.
SCHEMES = ("LeaFTL-0", "LeaFTL-1", "LeaFTL-4", "LeaFTL-8", "LeaFTL-16", "DFTL", "SFTL", "PageMap")
GC_MODES = ("sync", "background")

#: Examples and steps per run: a few in tier-1; ``--hypothesis-profile=deep``
#: (``tests/conftest.py``) runs the profile's example count, longer.
DEEP = settings().max_examples > settings.get_profile("default").max_examples
EXAMPLES, STEPS = (settings().max_examples, 40) if DEEP else (30, 15)


@pytest.fixture(autouse=True)
def eager_wear_leveling(monkeypatch: pytest.MonkeyPatch) -> None:
    """Wear checks every 32 erases, a pass above a spread of 4.

    The controller's constants are sized for a full-size device: on 20 or
    44 blocks a history of a few dozen steps almost never reaches a pass.
    """
    monkeypatch.setattr(gc, "WEAR_CHECK_ERASES", 32)
    monkeypatch.setattr(gc, "WEAR_IMBALANCE", 4)


def make_ftl(scheme: str) -> FTL:
    if scheme.startswith("LeaFTL-"):
        gamma = int(scheme.split("-")[1])
        return LeaFTL(LeaFTLConfig(gamma=gamma, compaction_interval_writes=400))
    if scheme == "DFTL":
        return DFTL(mapping_budget_bytes=1 * KB)
    if scheme == "SFTL":
        return SFTL(mapping_budget_bytes=1 * KB)
    return PageLevelFTL()


def aging(config: SSDConfig, seed: int) -> List[Step]:
    """A fill of 15/16 of the LPAs, then short overwrites of the lower half."""
    n = config.logical_pages
    rng = random.Random(seed)
    fill = [("W", lpa, 8) for lpa in range(0, n * 15 // 16, 8)]
    return fill + [("W", rng.randrange(n // 2), rng.randint(1, 8)) for _ in range(n // 4)]


def force_reclaim(ssd: SimulatedSSD, purpose: str, k: int) -> bool:
    """Collect (``gc``) or move (``wear``) the k-th block holding valid
    data; False, and nothing done, on a device with no such block."""
    blocks = [
        block for block in ssd.allocator.gc_candidates() if ssd.flash.valid_page_count(block) > 0
    ]
    if blocks:
        ssd.gc.collect([blocks[k % len(blocks)]], purpose, ssd.now_us)
    return bool(blocks)


def unowned_segments(ftl: FTL) -> Set[Segment]:
    """The segments in a level of LeaFTL's table at which the level walk
    stops for no LPA (none for another FTL).

    A reclaim pass must add none: a refit drops each owner it empties.
    A compaction leaves none."""
    if not isinstance(ftl, LeaFTL):
        return set()
    unowned: Set[Segment] = set()
    for group in ftl.table.groups():
        base = group.group_base
        owned = {group.lookup(lpa).segment for lpa in range(base, base + group.group_size)}
        unowned.update(segment for segment in group.segments() if segment not in owned)
    return unowned


def read_runs(lpas: Iterable[int]) -> List[Step]:
    """Sorted LPAs as read commands, one per run of up to 16 consecutive LPAs."""
    runs: List[Step] = []
    for lpa in sorted(lpas):
        if runs and runs[-1][1] + runs[-1][2] == lpa and runs[-1][2] < 16:
            runs[-1] = ("R", runs[-1][1], runs[-1][2] + 1)
        else:
            runs.append(("R", lpa, 1))
    return runs


#: Commands as drawn: (op, pick, pages).  A write's pick is its LPA (modulo
#: the space), a read's indexes the written LPAs, so most reads hit data.
command_lists = st.lists(
    st.tuples(st.sampled_from(["R", "W"]), st.integers(0, 1023), st.integers(1, 16)),
    min_size=1,
    max_size=8,
)
depths = st.sampled_from([1, 4, 8])
modes = st.sampled_from(RECOVERY_MODES)


class DeviceMachine(RuleBasedStateMachine):
    """One device, its rules, and the oracles checked after every step."""

    @initialize(
        scheme=st.sampled_from(SCHEMES),
        gc_mode=st.sampled_from(GC_MODES),
        device=st.sampled_from(sorted(DEVICES)),
        queue_depth=depths,
        seed=st.integers(0, 3),
    )
    def init(self, scheme: str, gc_mode: str, device: str, queue_depth: int, seed: int) -> None:
        ftl = make_ftl(scheme)
        self.gamma = ftl.oob_window()
        config = DEVICES[device]
        if required_oob_bytes(self.gamma) > config.oob_size:
            config = replace(config, oob_size=oob_size_for_gamma(self.gamma))
        self.ssd = FixCounting(
            config,
            ftl,
            dram_budget=PINNED_CACHE,
            options=SSDOptions(gc_mode=gc_mode, queue_depth=queue_depth),
        )
        if isinstance(ftl, LeaFTL):
            attach_checkpointer(self.ssd, interval_pages=4 * config.write_buffer_pages)
        #: LPAs the host wrote that a power failure has not taken back.
        self.written: Set[int] = set()
        #: LPAs live on flash at the last check: an overwrite waiting in the
        #: write buffer leaves the flushed copy live, so none may drop out.
        self.flushed: Set[int] = set()
        #: Rule outcomes reached (also reported through ``hypothesis.event``).
        self.reached: Set[str] = set()
        self._counts = self._outcome_counts()
        self.erases = self.ssd.flash.erase_counts()
        self._run(aging(config, seed), depth=1, drain=False)

    def _note(self, label: str) -> None:
        self.reached.add(label)
        if currently_in_test_context():
            event(label)

    def _outcome_counts(self) -> Dict[str, int]:
        stats = self.ssd.stats
        counts = {
            "reclaim: sync": stats.gc_invocations - stats.gc_background_runs,
            "reclaim: background": stats.gc_background_runs,
            "reclaim: urgent": stats.gc_urgent_collections,
            "wear pass": stats.wl_page_moves,
        }
        if isinstance(self.ssd.ftl, LeaFTL):
            lea = self.ssd.ftl.lea_stats
            counts["misprediction: OOB-corrected"] = lea.oob_corrections
            counts["misprediction: scan fallback"] = lea.oob_correction_failures
        return counts

    def _requests(
        self, drawn: Sequence[Step], base: int = 0, size: Optional[int] = None
    ) -> List[Step]:
        """Drawn commands as requests inside ``[base, base + size)``,
        relative to ``base``."""
        size = self.ssd.logical_pages if size is None else size
        targets = sorted(lpa - base for lpa in self.written if base <= lpa < base + size)
        return [
            (op, targets[pick % len(targets)] if op == "R" and targets else pick % size, npages)
            for op, pick, npages in drawn
        ]

    def _wrote(self, requests: Iterable[Step], base: int = 0, size: Optional[int] = None) -> int:
        """Add the requests' writes to :attr:`written`, in order; returns how
        many pages they read that were never written (unmapped reads)."""
        end = base + (self.ssd.logical_pages if size is None else size)
        unmapped = 0
        for op, lpa, npages in requests:
            pages = range(base + lpa, min(base + lpa + npages, end))
            if op == "W":
                self.written.update(pages)
            else:
                unmapped += sum(page not in self.written for page in pages)
        return unmapped

    def _run(self, requests: List[Step], depth: int, drain: bool) -> None:
        """Replay ``requests``: each page inside the space counts once, and
        a read is unmapped exactly where no earlier request wrote the page
        (admission keeps submission order)."""
        stats, n = self.ssd.stats, self.ssd.logical_pages
        unmapped, pages = stats.unmapped_reads, stats.host_read_pages + stats.host_write_pages
        self.ssd.run(requests, drain=drain, queue_depth=depth)
        pages += sum(min(npages, n - lpa) for _, lpa, npages in requests)
        assert stats.host_read_pages + stats.host_write_pages == pages
        assert stats.unmapped_reads - unmapped == self._wrote(requests)
        if drain:
            self._read_back()

    def _read_back(self) -> None:
        """A drained device: the live set is the written set, and every
        written LPA reads back mapped."""
        assert self.ssd.live_mappings().keys() == self.written
        before = self.ssd.stats.unmapped_reads
        self.ssd.run(read_runs(self.written), drain=False, queue_depth=8)
        assert self.ssd.stats.unmapped_reads == before

    def _power_fail_and_recover(self, mode: str, unacked: Set[int]) -> str:
        """Power-fail, recover, and hold the rebuilt map to the oracle.

        ``unacked`` is what the host may have written beyond
        :attr:`written` (a batch cut short by a crash).  Returns the
        recovery mode that ran.
        """
        ssd, flash, stats = self.ssd, self.ssd.flash, self.ssd.stats
        # Only a write never flushed may be lost; a flushed copy survives.
        unflushed = {lpa for lpa in self.written - self.flushed if lpa in ssd.write_buffer}
        lost, failures = stats.buffered_pages_lost + len(ssd.write_buffer), stats.power_failures
        if len(ssd.write_buffer):
            self._note("power failure: buffered pages lost")
        oracle = ssd.power_fail()
        assert stats.buffered_pages_lost == lost
        assert stats.power_failures == failures + 1
        assert self.written - unflushed <= oracle.keys() <= self.written | unacked
        programmed = sum(
            len(flash.programmed_ppas_of_block(block))
            for block in range(flash.geometry.total_blocks)
        )
        image = ssd.checkpointer.image if ssd.checkpointer is not None else None
        result = recover(ssd, mode)
        assert ssd.live_mappings() == oracle
        assert result.recovered_lpas == len(oracle)
        assert result.recovery_time_us > 0.0
        if result.mode == "oob_scan":
            assert result.flash_reads == programmed
        else:
            assert image is not None
            assert result.checkpoint_pages_read == image.pages
            assert result.flash_reads <= programmed
        self.written, self.flushed = set(oracle), set(oracle)
        self._read_back()
        return result.mode

    @rule(drawn=command_lists, depth=depths, drain=st.booleans())
    def commands(self, drawn: List[Step], depth: int, drain: bool) -> None:
        self._run(self._requests(drawn), depth, drain)

    @rule()
    def flush(self) -> None:
        self.ssd.flush()

    @rule(purpose=st.sampled_from(["gc", "wear"]), k=st.integers(0, 63))
    def reclaim(self, purpose: str, k: int) -> None:
        unowned = unowned_segments(self.ssd.ftl)
        if force_reclaim(self.ssd, purpose, k):
            self._note(f"forced {purpose} pass")
        assert unowned_segments(self.ssd.ftl) <= unowned, "a pass left a segment it emptied"
        # A forced pass is not the controller's: keep it out of the labels.
        self._counts = self._outcome_counts()

    @rule(mode=modes)
    def power_failure(self, mode: str) -> None:
        ran = self._power_fail_and_recover(mode, unacked=set())
        self._note(f"power failure, then {ran}")

    @rule(
        kind=st.sampled_from(["request_complete", "gc"]),
        k=st.integers(1, 8),
        drawn=command_lists,
        depth=depths,
        mode=modes,
    )
    def crash(self, kind: str, k: int, drawn: List[Step], depth: int, mode: str) -> None:
        """A batch with a crash at its k-th ``kind`` event, then recovery."""
        requests = self._requests(drawn)
        self.ssd.event_observer = CrashTimer(after_kind=kind, kind_count=k)
        try:
            self._run(requests, depth, drain=False)
        except PowerFailure:
            pass
        else:
            # Every command completes, so only a later completion is missed.
            assert kind == "gc" or k > len(requests)
            self._note(f"crash at {kind}: not reached")
            return
        finally:
            self.ssd.event_observer = None
        before = set(self.written)
        self._wrote(requests)
        unacked, self.written = self.written - before, before
        ran = self._power_fail_and_recover(mode, unacked)
        self._note(f"crash at {kind}, then {ran}")

    @rule()
    def maintenance(self) -> None:
        """LeaFTL's compaction; the baselines have no background work.

        Compaction leaves no segment owning no LPA, and no group deeper."""
        ftl = self.ssd.ftl
        if isinstance(ftl, LeaFTL):
            levels = ftl.table.level_counts()
            ftl.maintenance()
            assert not unowned_segments(ftl), "compaction kept a segment owning no LPA"
            assert all(
                after <= before for before, after in zip(levels, ftl.table.level_counts())
            ), "compaction deepened a group"

    @rule(first=command_lists, second=command_lists)
    def host_batch(self, first: List[Step], second: List[Step]) -> None:
        """Both tenants' commands through the arbiter; the run drains."""
        host = HostInterface(self.ssd)
        half = self.ssd.logical_pages // 2
        tenants = {}
        for name, drawn in (("a", first), ("b", second)):
            namespace = host.add_namespace(name, size_pages=half)
            tenants[name] = self._requests(drawn, namespace.base_lpa, half)
        before = self.ssd.stats.unmapped_reads
        host.run(tenants)
        # The namespaces are disjoint, so each keeps its own order.
        unmapped = sum(
            self._wrote(requests, host.namespace(name).base_lpa, half)
            for name, requests in tenants.items()
        )
        assert self.ssd.stats.unmapped_reads - before == unmapped
        self._read_back()

    @invariant()
    def check(self) -> None:
        ssd = self.ssd
        assert not ssd.gc.active  # every replay ends with the loop drained
        live = assert_gc_invariants(ssd)
        erases = ssd.flash.erase_counts()
        assert all(now >= before for now, before in zip(erases, self.erases))
        self.erases = erases
        assert self.flushed <= live.keys() <= self.written
        self.flushed = set(live)
        assert all(lpa in live or lpa in ssd.write_buffer for lpa in self.written)
        if isinstance(ssd.ftl, LeaFTL):
            ssd.ftl.table.validate()
        check_predictions(ssd, self.gamma)
        check_reads(ssd)
        ssd.last_sensed.clear()
        check_fix_bound(ssd, self.gamma)
        counts = self._outcome_counts()
        for label, count in counts.items():
            if count > self._counts[label]:
                self._note(label)
        self._counts = counts

    def teardown(self) -> None:
        if hasattr(self, "ssd"):
            self.ssd.flush()
            self._read_back()
            self.check()


TestDeviceMachine = DeviceMachine.TestCase
TestDeviceMachine.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=STEPS, deadline=None
)


def every_rule(depth: int) -> List[Tuple[str, dict]]:
    """One history through every rule; its crash (2nd of 3 completions) fires."""
    drawn = [("W", 40, 16), ("R", 3, 8), ("W", 300, 5), ("R", 17, 16), ("W", 41, 3)]
    crashed = [("W", 120, 8), ("R", 5, 4), ("W", 7, 16)]
    return [
        ("commands", dict(drawn=drawn, depth=depth, drain=False)),
        ("flush", {}),
        ("reclaim", dict(purpose="gc", k=1)),
        ("reclaim", dict(purpose="wear", k=2)),
        ("crash", dict(kind="request_complete", k=2, drawn=crashed, depth=depth, mode="oob_scan")),
        ("commands", dict(drawn=drawn[::-1], depth=depth, drain=True)),
        ("maintenance", {}),
        ("power_failure", dict(mode="checkpoint_replay")),
        ("crash", dict(kind="gc", k=1, drawn=drawn, depth=depth, mode="checkpoint_replay")),
        ("host_batch", dict(first=drawn[:3], second=drawn[2:])),
    ]


#: Each configuration ``init`` can draw, at depth 1 (the serial replay
#: path) and 8 (the event loop), through every rule: each must reach the
#: controller's reclaim in its GC mode, both forced passes and the crash.
CONFIGURATIONS = [
    pytest.param(
        dict(scheme=scheme, gc_mode=mode, device=device, queue_depth=depth, seed=0),
        every_rule(depth),
        {f"reclaim: {mode}", "forced gc pass", "forced wear pass"}
        | {"crash at request_complete, then oob_scan"},
        id=f"{scheme}-{mode}-{device}-{depth}",
    )
    for scheme, mode, device, depth in product(SCHEMES, GC_MODES, sorted(DEVICES), (1, 8))
]

#: The coverage guard: one short history that reaches sync, background and
#: urgent reclaim, a wear pass, a misprediction the OOB corrects and one
#: that falls back to the scan, buffered pages lost to a power failure, and
#: a crash inside background GC followed by checkpoint recovery.
CRASHED = [("W", 200, 14), ("W", 190, 16), ("W", 35, 3), ("W", 375, 15), ("W", 990, 15)]
COVERAGE_GUARD = pytest.param(
    dict(scheme="LeaFTL-16", gc_mode="background", device="20-block", queue_depth=4, seed=1),
    [
        ("commands", dict(drawn=[("W", 1001, 16), ("W", 991, 13)], depth=1, drain=True)),
        ("commands", dict(drawn=[("W", 293, 7)], depth=1, drain=False)),
        ("crash", dict(kind="gc", k=4, drawn=CRASHED, depth=4, mode="checkpoint_replay")),
        ("commands", dict(drawn=[("W", 730, 14)], depth=4, drain=True)),
        ("reclaim", dict(purpose="gc", k=5)),
        ("maintenance", {}),
        ("commands", dict(drawn=[("W", 600, 3)], depth=1, drain=False)),
        ("power_failure", dict(mode="oob_scan")),
        ("host_batch", dict(first=[("W", 10, 16), ("R", 3, 8)], second=[("R", 0, 16)])),
    ],
    {"reclaim: sync", "reclaim: background", "reclaim: urgent", "wear pass"}
    | {"misprediction: OOB-corrected", "misprediction: scan fallback", "forced gc pass"}
    | {"power failure: buffered pages lost", "power failure, then oob_scan"}
    | {"crash at gc, then checkpoint_replay"},
    id="coverage-guard",
)


@pytest.mark.parametrize("configuration, steps, outcomes", [COVERAGE_GUARD, *CONFIGURATIONS])
def test_every_configuration_runs_every_rule(
    configuration: dict, steps: List[Tuple[str, dict]], outcomes: Set[str]
) -> None:
    """Fixed histories through the rules, every oracle after each step.

    Generated histories draw their configuration at random and may reach
    few outcomes; these pin each, and the guard fails if the machine goes quiet.
    """
    state = DeviceMachine()
    state.init(**configuration)
    state.check()
    for name, arguments in steps:
        getattr(state, name)(**arguments)
        state.check()
    state.teardown()
    assert outcomes <= state.reached, outcomes - state.reached
