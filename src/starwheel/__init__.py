"""Star-versus-wheel Ramsey numbers: the complete formula table for
R(K_{1,n}, W_m), the extremal lower-bound constructions, certified
star/wheel detection, and exact small Ramsey numbers by isomorph-free
exhaustive search."""

from ._cycles import SearchBudgetExceeded
from .construct import (
    circulant,
    lower_bound_witness,
    regular_bounded_components,
    regular_small,
    theta,
)
from .core import (
    Graph,
    blocks,
    circumference,
    complete,
    components,
    cut_vertices,
    cycle,
    empty_graph,
    girth,
    is_bipartite,
    is_two_connected,
    max_degree,
    min_degree,
    path,
    star,
    wheel,
)
from .detect import (
    StarWitness,
    WheelWitness,
    contains_star,
    contains_wheel,
    cycle_spectrum,
    has_cycle_of_length,
    is_pancyclic,
    is_weakly_pancyclic,
)
from .enumeration import canonical_form, enumerate_degree_bounded, is_isomorphic
from .graph6 import Graph6Error, from_graph6, to_graph6, to_graph6_str
from .ramsey import (
    Bound,
    EXACT,
    LOWER_ONLY,
    Goodness,
    RamseySearch,
    SearchReport,
    arrows,
    compute_ramsey,
    formula,
    is_good_coloring,
)
from .theorems import (
    CONCLUSION_HOLDS,
    COUNTEREXAMPLE,
    FuzzSummary,
    HYPOTHESIS_NOT_MET,
    Verdict,
    check_brandt,
    check_dirac,
    check_jackson,
    fuzz,
    fuzz_all_graphs,
    verify_construction,
)

__version__ = "0.1.0"
