"""Nonperturbative qubit channel between two delta-switched detectors.

Field-side statistics (closed forms plus a quadrature oracle), the induced
qubit channel, its classical capacity with a brute-force cross-check, and a
deterministic sweep CLI.  The package exports what a library caller needs
to go from couplings and geometry to a capacity; everything else lives in
its submodule (deltachannel.field, .channel, .capacity, .sweep, .weyl).
"""
from __future__ import annotations

from .capacity import capacity_bruteforce, capacity_closed_form
from .channel import ChannelParams, QubitState, apply
from .field import VACUUM, PairGeometry, SmearingSpec, assemble_statistics, thermal
from .selftest import selftest

__version__ = "0.1.0"

__all__ = [
    "VACUUM",
    "PairGeometry",
    "SmearingSpec",
    "assemble_statistics",
    "thermal",
    "ChannelParams",
    "QubitState",
    "apply",
    "capacity_closed_form",
    "capacity_bruteforce",
    "selftest",
]
