"""Simulation and mean-field toolkit for random client migration between
parallel processor-sharing servers."""

__version__ = "0.1.0"
