"""One-pass streaming graph partitioning and process mapping.

Nodes arrive once, with their adjacency lists, and are permanently placed on
arrival by walking down a multi-section tree, so each placement scores only a
handful of sub-blocks per level. The flat baselines, which score every node
against all k blocks, are the same descent over a depth-1 tree. Explicit
machine hierarchies turn the descent into a process mapper that keeps
heavily communicating nodes under cheap shared modules.
"""

from .graph_stream import (
    GraphHeader,
    GraphStream,
    InMemoryGraph,
    NodeRecord,
    StreamFormatError,
    generate_graph,
    grid2d,
    load_graph,
    open_stream,
    random_geometric,
    ring,
    write_metis,
)
from .hierarchy import (
    DistanceSpec,
    HierarchySpec,
    MultiSectionTree,
    build_tree_explicit,
    build_tree_synth,
    compute_lmax,
    global_alpha,
    parse_distances,
    parse_hierarchy,
    pe_distance,
    shared_level,
)
from .metrics import (
    ProfilePoint,
    QualityReport,
    aggregate,
    evaluate,
    geometric_mean,
    improvement,
    performance_profile,
)
from .partitioner import (
    PartitionResult,
    RunConfig,
    RunCounters,
    multipass_reference,
    partition_flat,
    partition_oms,
    prepare_tree,
)
from .scoring import GAMMA, hashing_assign, select_block

__version__ = "0.1.0"
