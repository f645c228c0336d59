"""Modal analysis and power budgeting for sectoral cylindrical DRAs."""

from .specfun import *
from .modal import *
from .fields import *
from .oracle import *
from .sar import *
from .design import *

__version__ = "0.1.0"

__all__ = (specfun.__all__ + modal.__all__ + fields.__all__ + oracle.__all__
           + sar.__all__ + design.__all__ + ["__version__"])
