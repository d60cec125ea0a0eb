"""Seeded, checked, closed-loop benchmark of the qwalk library.

``run.py`` next to this package is the entry point; ``README.md`` there
describes the workloads and every metric.
"""
