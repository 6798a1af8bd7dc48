"""Exact computations in the Iwahori-Hecke algebra of the braid group:
normal forms in the T_w basis, the normalized Markov trace, HOMFLYPT and
Jones invariants of braid closures, and cell-module representation theory
with Gram-rank head dimensions.

All arithmetic is exact (arbitrary-precision rationals, Laurent
polynomials, rational functions, prime fields); there is no floating point
anywhere.  Values are immutable and operations pure, so everything is safe
to share across threads.
"""

from .braid import (
    BraidError,
    BraidSyntaxError,
    BraidWord,
    MarkovMoveRecord,
    Permutation,
    bennequin,
    closure_components,
    conjugate,
    destabilize,
    free_reduce,
    parse_braid_word,
    stabilize,
    underlying_permutation,
    writhe,
)
from .coefficients import (
    CoefficientError,
    FieldContext,
    LaurentPoly,
    PrimeField,
    RationalFunction,
    RationalFunctionField,
    Rationals,
    SpecializationError,
    canonicalize,
    generic_field_context,
    one_parameter_context,
    quantum_e,
    specialize,
)
from .hecke import (
    HeckeContext,
    HeckeElement,
    HeckeError,
    from_braid_word,
    to_symmetric_group,
)
from .invariants import (
    BracketCapError,
    InvariantError,
    JonesPolynomial,
    homflypt,
    jones,
    jones_via_bracket,
    kauffman_bracket_oracle,
)
from .oracles import exhaustive_word_closure, sga_mul
from .specht import (
    SpechtContext,
    SpechtModule,
    count_standard_tableaux,
    dim_D_lambda,
    ideal_I,
    specht_module,
    young_subgroup,
)
from .trace import (
    ClosureDecomposition,
    Partition,
    b_lambda,
    decompose_closure,
    dominates,
    e_restricted,
    markov_trace,
    partitions_of,
    strictly_dominates,
    trace_of_braid,
)
from . import hecke as _hecke, specht as _specht

# The cached functions themselves, bound at import: a caller that rebinds the
# module attributes (a tracer, a test double) still has its caches cleared.
_CACHES = (
    _specht.specht_module,
    _specht._shape,
    _hecke._rank_keys,
    _hecke._packing_units,
    _hecke._permutation_generator,
)


def clear_caches() -> None:
    """Empty the module-level caches, each a bounded lru cache: cell modules
    per (partition, context), shape combinatorics per partition, the rank
    keys of ``hecke._rank_keys``, each built whole with its tables, which
    the cell modules, the word-closure oracle and the closure decomposition
    share, the signed-monomial units per field context and the permutation
    steps per generator; and drop the one ideal ``specht_module`` holds for
    its next build."""
    for cache in _CACHES:
        cache.cache_clear()
    _specht._held_ideal.clear()


__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
