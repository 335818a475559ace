"""Exact desk-scale laboratory for composition-operator dynamics on product
probability spaces: odometers, diagonal translations and weighted shifts."""

__version__ = "0.1.0"
