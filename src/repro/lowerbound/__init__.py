"""Lower Bounding Module: ALT landmarks."""

from repro.lowerbound.alt import AltLowerBounder
from repro.lowerbound.base import LowerBounder, ZeroLowerBounder

__all__ = [
    "AltLowerBounder",
    "LowerBounder",
    "ZeroLowerBounder",
]
