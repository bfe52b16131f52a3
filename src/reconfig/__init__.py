"""Independent-set reconfiguration toolkit.

Graphs with dense bitset adjacency, implicit BFS over k-token configuration
graphs under the jump and slide rules, 3-AP-free integer sets, extremal
lower-bound constructions, and structural verifiers with independent
oracles.
"""

from .apsets import (
    APSet,
    behrend_set,
    greedy_3ap_free,
    is_3ap_free,
    max_3ap_free,
    odd_3ap_free,
)
from .constructions import (
    BuildReport,
    ConstructionError,
    build_general,
    build_k3_extremal,
    circulant_ap_graph,
    complement_path,
    glue,
    iterate_toll,
    toll_booth_extend,
    triple_extend,
)
from .engine import (
    DEFAULT_NODE_CAP,
    TJ,
    TS,
    ConfigComponent,
    DiameterReport,
    NodeCapExceeded,
    bfs_component,
    component_diameter,
    distance,
    enumerate_components,
    max_component_diameter,
    neighbors,
    shortest_sequence,
)
from .graph import (
    Graph,
    GraphError,
    complement,
    independence_number,
    is_independent,
    read_graph,
    write_graph,
)
from .verify import (
    Hypergraph3,
    decide_k2_fast,
    decide_k2_naive,
    extract_63,
    is_63_free,
    is_config_path,
    saturate_to_path,
    verify_upper_bound_mapping,
)

__version__ = "0.1.0"
