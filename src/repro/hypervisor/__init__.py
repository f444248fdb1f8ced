"""The Hypervisor firmware: attestation, channels, scheduling, sync."""
