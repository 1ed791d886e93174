"""talescale: orchestration middleware plus a deterministic simulated-cluster
harness for packaging, placing and running executable research objects."""
