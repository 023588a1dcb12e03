"""Cohen-Macaulay-type classification of binomial edge ideals of closed graphs.

Combinatorial classifiers (unmixed / CM / sequentially CM / almost CM /
approximately CM) read the verdicts off the interval facets of a closed
labeling; an independent Stanley-Reisner oracle recomputes them at small
scale by exact rational homology of the squarefree initial ideal.
"""

from .classify import Classification, classify, classify_facets
from .closed import (
    Block,
    ClosedLabeling,
    IntervalFacets,
    build_graph,
    connected_cutsets,
    decompose_blocks,
    interval_facets,
    recognize_closed,
)
from .complexes import (
    SimplicialComplex,
    depth_hochster,
    is_cm_reisner,
    is_scm_duval,
)
from .cutsets import (
    CutSetRecord,
    cutsets_bruteforce,
    cutsets_structural,
    is_unmixed,
    krull_dimension,
)
from .enumerators import (
    enumerate_closed_connected,
    enumerate_closed_indecomposable,
    random_closed,
)
from .errors import GraphInputError, NotClosedError, ResourceCapError
from .graphs import Graph, clique_degree, from_edge_list
from .oracle import (
    OracleReport,
    goodarzi_check,
    initial_ideal_generators,
    oracle_classify,
    oracle_classify_facets,
    stanley_reisner_complex,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Classification",
    "ClosedLabeling",
    "CutSetRecord",
    "Graph",
    "GraphInputError",
    "IntervalFacets",
    "NotClosedError",
    "OracleReport",
    "ResourceCapError",
    "SimplicialComplex",
    "build_graph",
    "classify",
    "classify_facets",
    "clique_degree",
    "connected_cutsets",
    "cutsets_bruteforce",
    "cutsets_structural",
    "decompose_blocks",
    "depth_hochster",
    "enumerate_closed_connected",
    "enumerate_closed_indecomposable",
    "from_edge_list",
    "goodarzi_check",
    "initial_ideal_generators",
    "interval_facets",
    "is_cm_reisner",
    "is_scm_duval",
    "is_unmixed",
    "krull_dimension",
    "oracle_classify",
    "oracle_classify_facets",
    "random_closed",
    "recognize_closed",
    "stanley_reisner_complex",
]
