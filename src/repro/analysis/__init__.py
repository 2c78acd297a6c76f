"""Analysis helpers: latency statistics, memory accounting, report formatting."""
