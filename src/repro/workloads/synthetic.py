"""Synthetic workload generation.

The paper evaluates LeaFTL on MSR-Cambridge and FIU block traces (simulator)
and on FileBench/BenchBase database workloads (real SSD).  Those traces are
not redistributable, so this module generates synthetic traces whose *access
patterns* exercise the same code paths and reproduce the qualitative
properties the paper reports:

* long strictly-sequential runs (pattern A in Figure 1) — condensable by
  both SFTL and LeaFTL;
* regular strided runs (pattern B) — condensable only by LeaFTL's accurate
  segments;
* irregular, approximately-linear runs (pattern C) — condensable only by
  LeaFTL's approximate segments (gamma > 0);
* skewed random accesses (hotspots) — the worst case, where LeaFTL degrades
  to single-point segments;
* read/write mixes and footprints that differ per named workload profile.

Every generator is deterministic given its seed.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.workloads.trace import IORequest, READ, Trace, WRITE


# --------------------------------------------------------------------------- #
# Low-level pattern generators
# --------------------------------------------------------------------------- #
def sequential_run(start_lpa: int, length: int) -> List[int]:
    """Pattern A: ``length`` consecutive LPAs."""
    return list(range(start_lpa, start_lpa + length))

def strided_run(start_lpa: int, stride: int, count: int) -> List[int]:
    """Pattern B: ``count`` LPAs separated by a regular ``stride``."""
    return list(range(start_lpa, start_lpa + stride * count, stride))

def jittered_run(
    start_lpa: int, length: int, rng: random.Random, skip_probability: float = 0.2
) -> List[int]:
    """Pattern C: a mostly-sequential run with irregular small gaps.

    The resulting LPAs are monotonically increasing but not regularly
    spaced; fitted against consecutive PPAs they stay within a small error
    bound, which is exactly what approximate segments capture.
    """
    lpas: List[int] = []
    lpa = start_lpa
    for _ in range(length):
        lpas.append(lpa)
        lpa += 1
        if rng.random() < skip_probability:
            lpa += rng.randint(1, 3)
    return lpas

def zipf_lpa(rng: random.Random, footprint: int, alpha: float) -> int:
    """A Zipf-skewed LPA in ``[0, footprint)`` (smaller LPAs are hotter).

    Uses the inverse-CDF approximation ``u^(1/(1-alpha))`` which is cheap
    and adequate for generating hotspot traffic.
    """
    if alpha <= 0.0:
        return rng.randrange(footprint)
    exponent = 1.0 / (1.0 - min(alpha, 0.99))
    u = rng.random()
    position = int((u ** exponent) * footprint)
    return min(footprint - 1, position)


# --------------------------------------------------------------------------- #
# Profiles
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkloadProfile:
    """Knobs describing a synthetic workload's access-pattern mix.

    The four pattern fractions apply to *write* traffic; reads follow the
    written working set with the configured skew (so that reads mostly hit
    previously written, cache-able data, as in the original traces).
    """

    name: str
    #: Distinct LPAs the workload touches.
    footprint_pages: int
    #: Total number of requests to generate.
    num_requests: int
    #: Fraction of requests that are reads.
    read_ratio: float
    #: Write-pattern mix; the four fractions should sum to 1.
    sequential_fraction: float = 0.4
    strided_fraction: float = 0.2
    jittered_fraction: float = 0.2
    random_fraction: float = 0.2
    #: Mean length (pages) of sequential / jittered runs.
    mean_run_length: int = 32
    #: Stride values used by strided runs.
    strides: Tuple[int, ...] = (2, 3, 4, 8)
    #: Mean number of points in a strided run.
    mean_stride_count: int = 24
    #: Zipf skew of random accesses and point reads (0 = uniform).
    zipf_alpha: float = 0.7
    #: Mean request size in pages for reads.
    mean_read_pages: int = 8
    #: Random seed (combined with the name for determinism).
    seed: int = 1

    def __post_init__(self) -> None:
        total = (
            self.sequential_fraction
            + self.strided_fraction
            + self.jittered_fraction
            + self.random_fraction
        )
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"pattern fractions of {self.name} sum to {total}, not 1")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if self.footprint_pages <= 0 or self.num_requests <= 0:
            raise ValueError("footprint_pages and num_requests must be positive")

    def scaled(self, request_scale: float = 1.0, footprint_scale: float = 1.0) -> "WorkloadProfile":
        """A copy with the request count and footprint scaled."""
        return WorkloadProfile(
            name=self.name,
            footprint_pages=max(1024, int(self.footprint_pages * footprint_scale)),
            num_requests=max(100, int(self.num_requests * request_scale)),
            read_ratio=self.read_ratio,
            sequential_fraction=self.sequential_fraction,
            strided_fraction=self.strided_fraction,
            jittered_fraction=self.jittered_fraction,
            random_fraction=self.random_fraction,
            mean_run_length=self.mean_run_length,
            strides=self.strides,
            mean_stride_count=self.mean_stride_count,
            zipf_alpha=self.zipf_alpha,
            mean_read_pages=self.mean_read_pages,
            seed=self.seed,
        )


#: The simulator-trace workloads (Section 4.1).  The paper replays block
#: traces from Microsoft Research Cambridge servers — ``hm`` (hardware
#: monitoring), ``src2`` (source control), ``prxy`` (web proxy), ``prn``
#: (print server), ``usr`` (home directories) — and two from Florida
#: International University, ``home`` and ``mail`` (a departmental mail
#: server).  The originals are not redistributable, so each profile is a
#: synthetic stand-in whose read/write mix, footprint, sequentiality and
#: skew follow the published characterisations, and they are deliberately
#: diverse: ``prxy`` is almost write-only with small random writes, ``usr``
#: read-heavy with long sequential runs, the FIU pair write-dominated with
#: heavy overwrite of a small working set (``mail`` small and scattered,
#: ``home`` medium and partly sequential).  What matters is that the
#: *relative* behaviour of DFTL / SFTL / LeaFTL across them matches the paper.
SYNTHETIC_PROFILES: Dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in (
        WorkloadProfile(
            name="MSR-hm",
            footprint_pages=160_000,
            num_requests=60_000,
            read_ratio=0.35,
            sequential_fraction=0.40,
            strided_fraction=0.30,
            jittered_fraction=0.20,
            random_fraction=0.10,
            mean_run_length=40,
            mean_stride_count=28,
            zipf_alpha=0.8,
            seed=11,
        ),
        WorkloadProfile(
            name="MSR-src2",
            footprint_pages=220_000,
            num_requests=60_000,
            read_ratio=0.25,
            sequential_fraction=0.50,
            strided_fraction=0.25,
            jittered_fraction=0.15,
            random_fraction=0.10,
            mean_run_length=64,
            mean_stride_count=30,
            zipf_alpha=0.6,
            seed=12,
        ),
        WorkloadProfile(
            name="MSR-prxy",
            footprint_pages=90_000,
            num_requests=60_000,
            read_ratio=0.05,
            sequential_fraction=0.25,
            strided_fraction=0.25,
            jittered_fraction=0.30,
            random_fraction=0.20,
            mean_run_length=20,
            mean_stride_count=20,
            zipf_alpha=0.9,
            seed=13,
        ),
        WorkloadProfile(
            name="MSR-prn",
            footprint_pages=260_000,
            num_requests=60_000,
            read_ratio=0.22,
            sequential_fraction=0.45,
            strided_fraction=0.25,
            jittered_fraction=0.20,
            random_fraction=0.10,
            mean_run_length=48,
            mean_stride_count=26,
            zipf_alpha=0.7,
            seed=14,
        ),
        WorkloadProfile(
            name="MSR-usr",
            footprint_pages=300_000,
            num_requests=60_000,
            read_ratio=0.55,
            sequential_fraction=0.55,
            strided_fraction=0.25,
            jittered_fraction=0.12,
            random_fraction=0.08,
            mean_run_length=96,
            mean_stride_count=32,
            zipf_alpha=0.6,
            seed=15,
        ),
        WorkloadProfile(
            name="FIU-home",
            footprint_pages=120_000,
            num_requests=60_000,
            read_ratio=0.10,
            sequential_fraction=0.35,
            strided_fraction=0.25,
            jittered_fraction=0.25,
            random_fraction=0.15,
            mean_run_length=32,
            mean_stride_count=22,
            zipf_alpha=0.85,
            seed=21,
        ),
        WorkloadProfile(
            name="FIU-mail",
            footprint_pages=150_000,
            num_requests=60_000,
            read_ratio=0.08,
            sequential_fraction=0.25,
            strided_fraction=0.25,
            jittered_fraction=0.30,
            random_fraction=0.20,
            mean_run_length=20,
            mean_stride_count=18,
            zipf_alpha=0.9,
            seed=22,
        ),
    )
}

#: Workload names in the order the paper's figures list them.
MSR_WORKLOAD_NAMES: List[str] = [n for n in SYNTHETIC_PROFILES if n.startswith("MSR-")]
FIU_WORKLOAD_NAMES: List[str] = [n for n in SYNTHETIC_PROFILES if n.startswith("FIU-")]


class SyntheticWorkload:
    """Generates a :class:`Trace` from a :class:`WorkloadProfile`."""

    def __init__(self, profile: WorkloadProfile) -> None:
        self.profile = profile
        # Python's str hash is salted per process (PYTHONHASHSEED), so it
        # would make every process generate a different trace; CRC32 keeps
        # the name-derived seed stable across runs and machines.
        name_hash = zlib.crc32(profile.name.encode("utf-8"))
        self._rng = random.Random((name_hash & 0xFFFF) ^ profile.seed)
        #: Regions written so far; reads are drawn from them.
        self._written_regions: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(self) -> Trace:
        """Produce the full trace for this profile.

        Reads and writes are interleaved so that the *request-level* read
        ratio converges to the profile's ``read_ratio`` even though write
        bursts emit several requests per decision.
        """
        profile = self.profile
        requests: List[IORequest] = []
        reads_emitted = 0
        while len(requests) < profile.num_requests:
            total = len(requests) or 1
            behind_on_reads = reads_emitted / total < profile.read_ratio
            if behind_on_reads and self._written_regions:
                emitted = self._read_request()
                reads_emitted += len(emitted)
            else:
                emitted = self._write_request()
            requests.extend(emitted)
        return Trace(profile.name, requests[: profile.num_requests])

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def _write_request(self) -> List[IORequest]:
        profile = self.profile
        rng = self._rng
        choice = rng.random()
        if choice < profile.sequential_fraction:
            lpas = self._sequential_write()
        elif choice < profile.sequential_fraction + profile.strided_fraction:
            lpas = self._strided_write()
        elif (
            choice
            < profile.sequential_fraction
            + profile.strided_fraction
            + profile.jittered_fraction
        ):
            lpas = self._jittered_write()
        else:
            lpas = self._random_write()
        if not lpas:
            return []
        self._remember_region(min(lpas), max(lpas))
        return self._lpas_to_requests(lpas, WRITE)

    def _sequential_write(self) -> List[int]:
        length = max(1, int(self._rng.expovariate(1.0 / self.profile.mean_run_length)))
        length = min(length, 512)
        start = self._pick_start(length)
        return sequential_run(start, length)

    def _strided_write(self) -> List[int]:
        stride = self._rng.choice(self.profile.strides)
        count = max(2, int(self._rng.expovariate(1.0 / self.profile.mean_stride_count)))
        count = min(count, 256 // stride if stride else 256)
        start = self._pick_start(stride * count)
        return strided_run(start, stride, count)

    def _jittered_write(self) -> List[int]:
        length = max(2, int(self._rng.expovariate(1.0 / self.profile.mean_run_length)))
        length = min(length, 256)
        start = self._pick_start(length * 2)
        return jittered_run(start, length, self._rng)

    def _random_write(self) -> List[int]:
        count = self._rng.randint(1, 4)
        footprint = self.profile.footprint_pages
        return [
            zipf_lpa(self._rng, footprint, self.profile.zipf_alpha) for _ in range(count)
        ]

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def _read_request(self) -> List[IORequest]:
        profile = self.profile
        rng = self._rng
        region_start, region_end = rng.choice(self._written_regions)
        span = max(1, region_end - region_start + 1)
        npages = max(1, int(rng.expovariate(1.0 / profile.mean_read_pages)))
        npages = min(npages, 64)
        if rng.random() < 0.75:
            # Locality read within a recently written region (these regions
            # are small and hot, so they reward a larger data cache).
            lpa = region_start + rng.randrange(span)
        else:
            # Skewed point read over the whole footprint.
            lpa = zipf_lpa(rng, profile.footprint_pages, profile.zipf_alpha)
        return [IORequest(READ, lpa, npages)]

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _pick_start(self, span: int) -> int:
        footprint = self.profile.footprint_pages
        upper = max(1, footprint - span - 1)
        if self._rng.random() < 0.3 and self._written_regions:
            # Revisit an existing region (overwrite traffic).
            region_start, _ = self._rng.choice(self._written_regions)
            return min(region_start, upper)
        return self._rng.randrange(upper)

    def _remember_region(self, start: int, end: int) -> None:
        self._written_regions.append((start, end))
        if len(self._written_regions) > 512:
            del self._written_regions[: len(self._written_regions) // 2]

    def _lpas_to_requests(self, lpas: Sequence[int], op: str) -> List[IORequest]:
        """Coalesce consecutive LPAs into multi-page requests."""
        requests: List[IORequest] = []
        run_start = lpas[0]
        previous = lpas[0]
        for lpa in lpas[1:]:
            if lpa == previous + 1:
                previous = lpa
                continue
            requests.append(IORequest(op, run_start, previous - run_start + 1))
            run_start = lpa
            previous = lpa
        requests.append(IORequest(op, run_start, previous - run_start + 1))
        return requests


def generate(profile: WorkloadProfile) -> Trace:
    """Convenience wrapper: build the trace for ``profile``."""
    return SyntheticWorkload(profile).generate()


def synthetic_workload(
    name: str, request_scale: float = 1.0, footprint_scale: float = 1.0
) -> Trace:
    """Generate the trace of one named MSR / FIU stand-in, optionally scaled down."""
    return generate(SYNTHETIC_PROFILES[name].scaled(request_scale, footprint_scale))
