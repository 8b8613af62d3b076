"""The repository benchmark: workloads, tracer and driver (see README.md)."""
