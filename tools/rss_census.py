"""Where a ledger replay's memory lives: ``python -m tools.rss_census [WORKLOAD [SEED [SCALE [TOP]]]]``.

Imports ``benchmarks.ledger.workloads`` read-only and prints the peak RSS after the imports (the
floor every ledger run pays), then starts ``tracemalloc``, runs ``prepare().replay()`` and prints the
top sites still holding memory after the replay, by ``file:line``, with MB and object counts.
Defaults: ``read_lookup``, seed 1, scale 1.0, top 25.  The ledger's ``peak_rss_mb`` is the same
``ru_maxrss`` taken after the replay without tracing; a memory claim names the sites it removes.
"""

import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.ledger.workloads import prepare  # noqa: E402

MB = 1024 * 1024


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def census(workload: str, seed: int, scale: float, top: int) -> None:
    print(f"{workload} seed {seed} scale {scale}: peak RSS after imports {peak_rss_mb():.2f} MB")
    tracemalloc.start()
    prepared = prepare(workload, seed, scale)
    prepared.replay()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = snapshot.statistics("lineno")
    total = sum(stat.size for stat in stats)
    print(f"traced after replay: {total / MB:.2f} MB in {len(stats)} sites; top {top}:")
    for stat in stats[:top]:
        frame = stat.traceback[0]
        path = Path(frame.filename)
        where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"{stat.size / MB:8.2f} MB {stat.count:9d} objects  {where}:{frame.lineno}")


if __name__ == "__main__":
    args = sys.argv[1:] + ["read_lookup", "1", "1.0", "25"][len(sys.argv) - 1 :]
    census(args[0], int(args[1]), float(args[2]), int(args[3]))
