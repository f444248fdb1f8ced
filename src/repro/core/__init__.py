"""HarDTAPE's public API: device, service, and user client."""
