"""charmat: characteristic matrices of linear operators.

The public names of ``graph`` (characteristic matrices and their identity
suite), ``family`` (direct integrals), ``calculus`` (the self-adjoint
functional calculus) and ``boundary`` (the boundary-condition examples), plus
``hilbert``'s ``adjoint`` and ``Checks``, the checks' record of residuals and
bounds.  Everything acts on finite ``numpy`` arrays, and inner products are
linear in the second argument.  On a finite grid the maximal fiberwise operator
and the block-diagonal assembly are one object, so the library exposes one type
for both (README).
"""

from . import boundary, calculus, family, graph, hilbert
from .boundary import *  # noqa: F403
from .calculus import *  # noqa: F403
from .family import *  # noqa: F403
from .graph import *  # noqa: F403
from .hilbert import *  # noqa: F403

__version__ = "0.1.0"

# each public name is declared once, in its own module's __all__
__all__ = [*hilbert.__all__, *graph.__all__, *family.__all__, *calculus.__all__,
           *boundary.__all__]
