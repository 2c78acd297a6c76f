"""The owner index against the Algorithm-1 walk.

``LPAGroup.lookup_range`` answers from a per-group owner index (one slot
per LPA: the last learned segment that contained it) and charges the
table's statistics one lookup per resolution run, at the depth of the
owner's level; ``LPAGroup.lookup`` — the paper's top-down level walk — is
the reference.  The property below drives both through flush-shaped
histories with compactions and checkpoint round trips and requires, after
every step, the same PPA for every page of random windows, and that the
FTL's and the table's lookup counters grow by exactly one charge per run
of the walk's answers (a maximal stretch with the *same segment object*),
at the levels the walk searched: a run merged or split across segment
identities changes the count.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.config import LeaFTLConfig
from repro.core.group import LPAGroup
from repro.core.leaftl import LeaFTL
from repro.core.segment import Segment
from tests.conftest import make_ssd

#: Groups 0, 1 and 3 are written; group 2 never is, and windows reach group 4.
WRITTEN_GROUPS = (0, 1, 3)
WINDOW_GROUPS = 5


@st.composite
def batches(draw, gamma: int, group_size: int):
    """One flush-shaped batch of ``(lpa, ppa offset)`` pairs.

    Batches crowd the head of a group or straddle its end, so segments
    overlap, shadow, trim and fully bury one another within a few steps.
    """
    anchor = draw(st.sampled_from(WRITTEN_GROUPS)) * group_size + draw(
        st.sampled_from([0, 8, group_size - 24])
    )
    shape = draw(st.sampled_from(["jitter", "overwrite", "point", "stride"]))
    if shape == "jitter":
        # PR 14's rank + jitter PPAs: an unsorted flush or a GC migration.
        points = draw(
            st.lists(
                st.tuples(st.integers(0, 79), st.integers(-gamma, gamma)),
                min_size=1,
                max_size=40,
                unique_by=lambda point: point[0],
            )
        )
        points.sort()
        pairs = [(anchor + off, gamma + rank + jit) for rank, (off, jit) in enumerate(points)]
    elif shape == "point":
        pairs = [(anchor + draw(st.integers(0, 40)), 0)]
    else:
        start = anchor + draw(st.integers(0, 24))
        count = draw(st.integers(2, 48))
        stride = 1 if shape == "overwrite" else draw(st.integers(2, 4))
        pairs = [(start + rank * stride, rank) for rank in range(count)]
    return [pair for pair in pairs if pair[0] // group_size in WRITTEN_GROUPS]


@st.composite
def histories(draw):
    """(gamma, group_size, steps); every step carries its probe windows."""
    gamma = draw(st.sampled_from([0, 1, 4, 8, 16]))
    group_size = draw(st.sampled_from([64, 256]))
    span = WINDOW_GROUPS * group_size
    window = st.tuples(
        st.integers(0, span - 1),
        st.sampled_from([1, 1, 2, 7, 16, group_size, 2 * group_size + 3]),
    )
    # Four batches to one compaction or checkpoint: levels must pile up
    # before a compaction has anything to bury.
    action = st.integers(0, 9).flatmap(
        lambda kind: st.just(("compact", "checkpoint")[kind])
        if kind < 2
        else batches(gamma, group_size)
    )
    step = st.tuples(action, st.lists(window, min_size=1, max_size=3))
    return gamma, group_size, draw(st.lists(step, min_size=12, max_size=40))


def walk(ftl: LeaFTL, lpa: int) -> Tuple[Optional[int], int, Optional[Segment]]:
    """The reference answer: ``LPAGroup.lookup``, without touching any stats."""
    group = ftl.table.group_for(lpa)
    if group is None:
        return None, 1, None
    result = group.lookup(lpa)
    return result.ppa, result.levels_searched, result.segment


def counters(ftl: LeaFTL) -> dict:
    """Every lookup counter: the FTL's and the table's (histogram copied)."""
    table = ftl.table.stats
    return {
        "lookups": ftl.stats.lookups,
        "table.lookups": table.lookups,
        "table.levels": table.lookup_levels_total,
        "histogram": Counter(table.levels_histogram),
    }


Answer = Tuple[Optional[int], int, Optional[Segment]]


def run_starts(answers: List[Answer], start: int, group_size: int) -> List[bool]:
    """Per page, whether it opens a resolution run of the walk's answers: a
    maximal stretch with one segment identity, a miss gap split wherever it
    crosses a group boundary."""
    opens = []
    previous: object = opens  # no answer's segment
    for lpa, (_ppa, _depth, segment) in enumerate(answers, start):
        opens.append(segment is not previous or (segment is None and lpa % group_size == 0))
        previous = segment
    return opens


def expected_charges(answers: List[Answer], start: int, group_size: int) -> dict:
    """One charge per resolution run, at the run's level."""
    charge = {key: 0 for key in ("lookups", "table.lookups", "table.levels")}
    charge["histogram"] = Counter()
    for opens, (_ppa, depth, segment) in zip(run_starts(answers, start, group_size), answers):
        if not opens:
            continue
        charge["lookups"] += 1
        charge["table.lookups"] += 1
        charge["table.levels"] += depth
        if segment is not None:
            charge["histogram"][depth] += 1
    return charge


@given(history=histories())
@settings(max_examples=60, deadline=None)
def test_range_resolution_is_the_walk_page_by_page_and_charges_per_run(history):
    gamma, group_size, steps = history
    ftl = LeaFTL(
        LeaFTLConfig(gamma=gamma, group_size=group_size, compaction_interval_writes=10**9)
    )
    next_ppa = 1 << 12
    for action, windows in steps:
        if action == "compact":
            ftl.maintenance()
        elif action == "checkpoint":
            ftl.restore_checkpoint(ftl.serialize_checkpoint())
        elif action:
            ftl.update_batch([(lpa, next_ppa + offset) for lpa, offset in action])
            next_ppa += len(action) + 2 * gamma
        ftl.table.validate()  # audits every owner slot against the walk
        for start, npages in windows:
            answers = [walk(ftl, lpa) for lpa in range(start, start + npages)]
            before = counters(ftl)
            assert ftl.translate_range(start, npages) == [ppa for ppa, _, _ in answers]
            after = counters(ftl)
            grown = {key: after[key] - before[key] for key in after}
            assert grown == expected_charges(answers, start, group_size)


def test_miss_gap_is_charged_once_per_group_it_crosses():
    ftl = LeaFTL(LeaFTLConfig(gamma=0))
    ftl.update_batch([(lpa, 9000 + lpa) for lpa in range(200, 240)])  # group 0 only
    before = dataclasses.replace(ftl.table.stats)
    ppas = ftl.translate_range(250, 600)  # groups 0 (written), 1-3 (never)
    assert ppas == [None] * 600
    assert ftl.table.stats.lookups - before.lookups == 4
    assert ftl.table.stats.lookup_levels_total - before.lookup_levels_total == 4
    assert ftl.table.stats.levels_histogram == {}  # no miss is a resolved lookup


def test_device_replay_never_runs_the_level_walk(monkeypatch):
    """The device resolves reads from the owner index; ``LPAGroup.lookup`` —
    Algorithm 1, what ``bench_fig23b`` and ``bench_table3`` time — stays the
    reference and is reached only through ``translate`` / ``table.lookup``."""
    walks = []
    real = LPAGroup.lookup
    monkeypatch.setattr(
        LPAGroup, "lookup", lambda self, lpa: walks.append(lpa) or real(self, lpa)
    )
    rng = random.Random(17)
    ssd = make_ssd(gamma=4, dram_bytes=1 << 20)
    ssd.run([("W", rng.randrange(20_000), 1) for _ in range(20_000)])
    ssd.flush()
    ssd.run([("R", rng.randrange(20_000), npages) for npages in (1, 5, 16) * 200])
    assert ssd.stats.flash_reads_for_host > 0 and ssd.stats.mispredictions > 0
    assert walks == []
    ssd.ftl.translate(0)
    assert walks == [0]
