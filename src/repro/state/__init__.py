"""World-state substrate: accounts, journaled overlays, blocks, backends."""
