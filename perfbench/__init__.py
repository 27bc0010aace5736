"""Benchmark of cyclat: workloads, tracing and the comparison of results."""
