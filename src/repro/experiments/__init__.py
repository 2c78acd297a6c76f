"""Experiment harness: per-figure experiment drivers built on the SSD model."""
