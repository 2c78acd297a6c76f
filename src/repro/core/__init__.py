"""LeaFTL core: learned segments, PLR, CRB, log-structured mapping table."""
