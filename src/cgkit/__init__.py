"""cgkit: conjugate-gradient solver and identity verifier for SPD quadratics.

Solves ``min f(x) = 0.5 x.T A x + b.T x`` with interchangeable stepsize and
direction-coupling rules, records full iteration traces, and numerically
certifies the orthogonality/conjugacy structure of the iteration: descent,
direction conjugacy, gradient orthogonality, gradient A-conjugacy, the
equivalence of the exact-line-search and gradient-orthogonality stepsizes,
agreement of the FR/HS/PRP/DY coupling rules, and finite termination
against a direct-solve oracle.

The package exports each module's ``__all__``; the modules own their lists.
"""

from . import cg, errors, linalg, problems_io, verify
from .errors import *
from .linalg import *
from .cg import *
from .verify import *
from .problems_io import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *linalg.__all__, *cg.__all__, *verify.__all__,
           *problems_io.__all__, "__version__"]
