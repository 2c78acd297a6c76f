"""Flash substrate: geometry, NAND array with OOB metadata, block allocation."""
