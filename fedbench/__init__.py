"""The repository benchmark: federated workloads timed end to end and per layer."""
