"""Deterministic vertex-connectivity toolkit.

Exact minimum vertex cuts for unweighted undirected graphs and
vertex-weighted directed graphs, the supporting pseudorandom combinatorial
objects (crossing families, selectors, dispersers, mixing graphs), a gap-based
decision algorithm, a brute-force oracle suite, and a batch CLI.
"""

from .graphs import (
    Graph,
    NoCut,
    NoSeparator,
    VertexCut,
    WeightedDigraph,
    parse_graph,
    serialize_graph,
    validate_cut,
)

__all__ = [
    "Graph",
    "WeightedDigraph",
    "VertexCut",
    "NoCut",
    "NoSeparator",
    "parse_graph",
    "serialize_graph",
    "validate_cut",
]

__version__ = "0.1.0"
