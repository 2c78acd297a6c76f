"""Workload generators and trace handling."""
