"""SSD substrate: cache, write buffer, reclaim (GC and wear leveling) and the device model."""
