"""Flash translation layers: the abstract interface and the baseline schemes."""
