"""Path ORAM and the oblivious paged world-state store."""
