"""Electro-optic modulator models: finite-mode su(2) dynamics vs Bessel sidebands."""

__version__ = "0.1.0"
