"""Homology invariants of Artin and Coxeter groups from Coxeter graphs."""

from .graph import from_catalog
from .invariants import analyze, pair_classes
from .words import omega_sets

__version__ = "0.1.0"
