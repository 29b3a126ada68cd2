"""Shortest-path engine comparing plain Dijkstra with landmark-guided
A* over two embeddings: the full per-landmark distance table, and a
distributed form where each vertex keeps only its nearest landmark.
Every heuristic evaluation reports its exact arithmetic cost, and
embeddings report their exact storage, so the time/space trade between
the two guided methods is measurable, not estimated."""

from .graph import (
    Graph,
    GraphError,
    build_graph,
    generate_grid,
    generate_random_connected,
    load_dimacs,
    load_edge_list,
    save_dimacs,
    save_edge_list,
)
from .sssp import (
    DistanceMap,
    KernelCounters,
    multi_source_spt,
    shortest_path_tree,
    track_kernels,
    truncated_spt,
)
from .embedding import (
    AltEmbedding,
    DistributedEmbedding,
    LandmarkSet,
    build_alt_embedding,
    build_distributed_embedding,
    check_embedding_fits,
    load_embedding,
    save_embedding,
    select_avoid,
    select_farthest,
    select_random,
    space_accounting,
)
from .heuristics import (
    MODES,
    SCENARIOS,
    OpCounters,
    classify_scenario,
    make_alp_evaluator,
    make_alt_evaluator,
)
from .search import QueryResult, astar, dijkstra_query
from .bench import (
    BenchError,
    BenchRow,
    CSV_HEADER,
    VerificationReport,
    WorkloadSpec,
    emit_report,
    format_summary,
    generate_queries,
    load_report,
    run_workload,
    summarize,
    verify_workload,
)
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphError", "build_graph", "generate_grid",
    "generate_random_connected", "load_dimacs", "load_edge_list",
    "save_dimacs", "save_edge_list",
    "DistanceMap", "KernelCounters", "multi_source_spt",
    "shortest_path_tree", "track_kernels", "truncated_spt",
    "AltEmbedding", "DistributedEmbedding", "LandmarkSet",
    "build_alt_embedding", "build_distributed_embedding",
    "check_embedding_fits", "load_embedding", "save_embedding",
    "select_avoid", "select_farthest", "select_random", "space_accounting",
    "MODES", "SCENARIOS", "OpCounters", "classify_scenario",
    "make_alp_evaluator", "make_alt_evaluator",
    "QueryResult", "astar", "dijkstra_query",
    "BenchError", "BenchRow", "CSV_HEADER", "VerificationReport",
    "WorkloadSpec", "emit_report", "format_summary", "generate_queries",
    "load_report", "run_workload", "summarize", "verify_workload",
    "derive_seed",
]
