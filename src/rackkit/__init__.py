"""Finite racks and quandles: polynomial invariants and link colorings."""

from .core import *
from .generators import *
from .iso import *
from .links import *
from .poly import *

__version__ = "0.1.0"

__all__ = (core.__all__ + generators.__all__ + iso.__all__ + links.__all__
           + poly.__all__)
