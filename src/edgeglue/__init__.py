"""edgeglue: gluing constructions and desk-scale extremal graph computation.

Edge- and forest-gluing of bipartite patterns, exact Turán and Zarankiewicz
numbers with witnesses, embedding enumeration, balanced supersaturation
family builders, exponent/threshold calculators, and seeded probabilistic
constructions.
"""

from .bounds import (
    CleaningThreshold,
    PatternStats,
    binom_ratio_bounds,
    cleaning_threshold,
    cycle_tree_exponent,
    deletion_exponent,
    es_exponent_forest,
    feasibility_check,
    tree_gluing_exponent,
)
from .canon import (
    CanonicalLabel,
    automorphism_count,
    canonical_form,
    decode_canonical,
)
from .constructions import (
    SeededSampler,
    delete_per_copy,
    deletion_construction,
    deletion_probability,
    random_sign_split,
    sample_gnp,
)
from .embed import (
    Embedding,
    count_copies,
    count_embeddings,
    enumerate_copies,
    enumerate_embeddings,
    is_free,
)
from .errors import EdgeGlueError
from .extremal import (
    ExtremalRecord,
    exact_turan,
    exact_zarankiewicz,
)
from .gluing import (
    GluingSpec,
    RootedPattern,
    attach_tree,
    edge_rooted,
    glue_along_edge,
    glue_at_vertex,
    glue_copies_along_forest,
    glue_family,
    signed_glue,
    tree_of_cycles,
)
from .graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete,
    complete_bipartite,
    cycle,
    decode_graph6,
    encode_graph6,
    parse_graph,
    parse_signed_graph,
    path,
    signed_complete_bipartite,
    signed_cycle,
    signed_star,
    star,
)
from .store import load_records, store_record
from .supersat import (
    BalancedFamily,
    FamilyConstraints,
    assemble_glued_copies,
    build_balanced_family,
    build_signed_balanced_family,
    heavy_light_split,
    extension_degrees,
    remaining_recruitable,
    rough_count_check,
    verify_family,
)

__version__ = "0.1.0"
