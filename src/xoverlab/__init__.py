"""Laboratory for k-point crossover recombination sets.

Recombination sets over Hamming spaces, their transit-function axioms,
partial-cube structure, and the oriented matroids spanned by their closures.
"""

from .words import (
    AlphabetSpec,
    BudgetExceededError,
    IncompatibleWordsError,
    Word,
    WordSet,
    hamming_distance,
    interval,
    phi,
)
from .crossover import (
    CutSet,
    RSetResult,
    closure,
    find_parents,
    is_closed,
    lex_extreme_path_vertices,
    recombine,
    rset,
    rset_by_cut_enumeration,
    rset_recursive,
    rset_size_formula,
    transit_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetSpec",
    "BudgetExceededError",
    "IncompatibleWordsError",
    "Word",
    "WordSet",
    "hamming_distance",
    "interval",
    "phi",
    "CutSet",
    "RSetResult",
    "closure",
    "find_parents",
    "is_closed",
    "lex_extreme_path_vertices",
    "recombine",
    "rset",
    "rset_by_cut_enumeration",
    "rset_recursive",
    "rset_size_formula",
    "transit_graph",
    "__version__",
]
