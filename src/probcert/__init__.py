"""Certified probability estimation and Chernoff-surrogate optimization.

The package answers two questions about a [0, 1]-bounded random quantity:

* how many i.i.d. samples certify its mean to within an absolute tolerance
  eps_a OR a relative tolerance eps_r, with risk below delta; and
* how to pick decision parameters that make a failure probability small,
  by descending a smooth empirical Chernoff surrogate and certifying the
  result on fresh samples.

See ``probcert.verification`` for the executable evidence behind the bounds
and ``probcert.cli`` for the command-line surface.

The public names are those in each module's ``__all__``; a name is made
public by adding it there, and nowhere else.
"""

from . import errors, tail_bounds, estimator, chernoff_opt, verification
from .errors import *
from .tail_bounds import *
from .estimator import *
from .chernoff_opt import *
from .verification import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *tail_bounds.__all__,
    *estimator.__all__,
    *chernoff_opt.__all__,
    *verification.__all__,
    "__version__",
]
