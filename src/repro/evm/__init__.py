"""A from-scratch Ethereum Virtual Machine.

256-bit stack architecture with the full Shanghai-era instruction set,
Berlin/London gas rules (EIP-2929 warm/cold access, EIP-2200/3529 SSTORE
metering, EIP-150 call-gas forwarding), precompiles, and pluggable
tracers.  This is the functional core behind the paper's HEVM, the Geth
baseline, and the simulated full node.
"""
