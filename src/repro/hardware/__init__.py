"""Hardware model: HEVM cores, 3-layer memory, timing, area, secure boot."""
