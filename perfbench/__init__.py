"""HIPO benchmark: workloads, load generator and per-layer tracing."""
