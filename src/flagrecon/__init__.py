"""Reconstructibility certificates for graphs via flag-complex topology.

The pipeline: a finite simple graph determines a flag (clique) complex and a
right-angled Coxeter system; exact integer homology of that complex and of
its links decides homology-manifold and homology-sphere structure; and those
verdicts certify that the graph is determined by its deck of vertex-deleted
cards.  Everything is computed over Z with arbitrary precision.
"""

from .complexes import (
    DimensionCapExceeded,
    SimplicialComplex,
    build_complex,
    clique_complex,
    euler_characteristic,
    f_vector,
    full_subcomplex,
    is_flag,
    link,
    links,
    one_skeleton,
)
from .coxeter import (
    NOT_FINITELY_GENERATED,
    Condition3Result,
    LemmaKeyReport,
    NerveSystem,
    PDVerdict,
    condition3_vanishing,
    coxeter_cohomology_if_fg,
    is_finite_group,
    is_irreducible,
    is_spherical,
    is_virtual_pd,
    join_decomposition,
    lemma_key_crosscheck,
    spherical_subsets,
)
from .formats import FormatError, emit_graph6, parse_complex, parse_edge_list, parse_graph6
from .graphs import (
    FAMILIES,
    Graph,
    are_isomorphic,
    canonical_form,
    complement,
    complete,
    complete_multipartite,
    cross_polytope,
    cycle,
    disjoint_union,
    full_subgraph,
    generate,
    graph_from_canonical_form,
    icosahedron,
    is_connected,
    join,
    path,
    torus_grid,
    vertex_deleted,
    vertex_orbits,
)
from .homology import (
    INTEGERS,
    TRIVIAL_GROUP,
    AbelianGroup,
    GradedGroups,
    IntegerMatrix,
    SmithNormalForm,
    boundary_matrix,
    local_homology,
    reduced_cohomology,
    reduced_homology,
    smith_normal_form,
)
from .manifolds import (
    BoundaryPatternError,
    ManifoldVerdict,
    ManifoldWitness,
    SphereVerdict,
    boundary_of,
    is_generalized_homology_sphere,
    is_homology_manifold,
    is_pure,
    maximal_simplices,
    sphere_homology,
)
from .reconstruction import (
    NO_CERTIFICATE_CAVEAT,
    VERDICT_NONE,
    VERDICT_THEOREM_1,
    VERDICT_THEOREM_2,
    Certificate,
    Deck,
    are_hypomorphic,
    brute_force_oracle,
    certify_reconstructible,
    deck,
    enumerate_graphs,
    reconstruct_from_card,
)
from .reports import SCHEMA_VERSION, analysis_report, report_json, report_schema

__version__ = "0.1.0"
