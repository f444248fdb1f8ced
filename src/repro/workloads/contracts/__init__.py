"""Hand-assembled EVM workload contracts."""
