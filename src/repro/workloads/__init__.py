"""Workload generators and trace handling."""

from repro.workloads.database import (
    DATABASE_PROFILES,
    DATABASE_WORKLOAD_DESCRIPTIONS,
    DATABASE_WORKLOAD_NAMES,
    DatabaseProfile,
    DatabaseWorkload,
    database_profile,
    database_workload,
)
from repro.workloads.multi_tenant import (
    fill_namespace,
    latency_sensitive_reader,
    sequential_writer,
)
from repro.workloads.parser import (
    TraceParseError,
    parse_msr_line,
    parse_msr_trace,
    write_msr_trace,
)
from repro.workloads.synthetic import (
    FIU_WORKLOAD_NAMES,
    MSR_WORKLOAD_NAMES,
    SYNTHETIC_PROFILES,
    SyntheticWorkload,
    WorkloadProfile,
    generate,
    jittered_run,
    sequential_run,
    strided_run,
    synthetic_workload,
    zipf_lpa,
)
from repro.workloads.trace import IORequest, READ, Trace, WRITE

__all__ = [
    "DATABASE_PROFILES",
    "DATABASE_WORKLOAD_DESCRIPTIONS",
    "DATABASE_WORKLOAD_NAMES",
    "DatabaseProfile",
    "DatabaseWorkload",
    "database_profile",
    "database_workload",
    "FIU_WORKLOAD_NAMES",
    "MSR_WORKLOAD_NAMES",
    "SYNTHETIC_PROFILES",
    "fill_namespace",
    "latency_sensitive_reader",
    "sequential_writer",
    "TraceParseError",
    "parse_msr_line",
    "parse_msr_trace",
    "write_msr_trace",
    "SyntheticWorkload",
    "WorkloadProfile",
    "generate",
    "jittered_run",
    "sequential_run",
    "strided_run",
    "synthetic_workload",
    "zipf_lpa",
    "IORequest",
    "READ",
    "WRITE",
    "Trace",
]
