"""CSS quantum codes from Cayley graphs over F_2^m.

A self-orthogonal generator set S gives an adjacency matrix M with
M . M^T = 0 and hence a CSS code of length 2^m.  The package builds
these matrices, computes [[N, K, D]] exactly at desk scale, certifies
hypercube covering maps, and machine-checks the structural facts of
the repetition-code tower family.
"""

__version__ = "0.1.0"

from .cayley import (  # noqa: F401
    CyclicProductGroup,
    GeneratorSet,
    SizeGuardError,
    adjacency_matrix,
    ball,
    check_self_orthogonal_combinatorial,
    halved_matrix,
    sphere,
)
from .css import (  # noqa: F401
    CssCode,
    DistanceReport,
    SelfOrthogonalityError,
    WordClass,
    build_css,
    classify_word,
    css_from_matrix,
    distance,
    distance_exact,
    distance_lower_bound_theorem,
)
from .gf2 import (  # noqa: F401
    BitMatrix,
    BitVector,
    DimensionBudgetError,
    kernel_basis,
    rank,
)
