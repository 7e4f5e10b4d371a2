"""Unit-argument generalized hypergeometric series: direct summation,
classical closed-form summation theorems, and numerical identity
verification.

Each module's ``__all__`` declares the names it exports; this package
re-exports them all, and ``__version__`` is the version pyproject.toml reads.
"""

from .errors import *
from .specialfn import *
from .series import *
from .theorems import *
from .verify import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + specialfn.__all__ + series.__all__ + theorems.__all__
           + verify.__all__ + ["__version__"])
