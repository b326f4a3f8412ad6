"""Five-coloring of planar graphs with a small fifth color class.

The package takes a planar graph as a combinatorial embedding (a
rotation system) and colors it with five colors so that color 5 lands
on at most one sixth of the vertices.  The engine peels low-degree
vertices, reduces a catalog configuration whenever the minimum degree
reaches five (faces are filled only just before such a scan), and
recolors with Kempe chains on the way back up.  An exact-rational discharging
audit certifies that the catalog leaves no minimum-degree-5 graph
unmatched.

>>> from fivecolor import named, color_planar, check_coloring
>>> g = named("icosahedron")
>>> sizes = check_coloring(g, color_planar(g))
>>> sizes[5] <= 2
True
"""

from .catalog import (
    ConfigurationSpec,
    TrialSequence,
    ValidationFailure,
    VirtualHub,
    builtin_catalog,
    get_entry,
    validate_entry,
)
from .discharge import UNIT, AuditReport, ChargeLedger, SumMismatch, audit, final_charges, transfers
from .embedding import (
    AsymmetricAdjacency,
    DuplicateNeighbor,
    EmbeddedGraph,
    EmbeddingError,
    LoopEdge,
    NotPlanarEmbedding,
    UntriangulatableFace,
    build,
    from_faces,
)
from .instances import GenSpec, ParseError, UnknownName, generate, icosphere, named, read, write
from .kempe import BrokenInvariant, DiagonalContradiction, free_color, swap
from .matching import CompletenessBreach, Occurrence, find_reducible, match_at
from .reducer import RunStats, SchemeExhausted, check_coloring, color_planar

__version__ = "0.1.0"

__all__ = [
    "AsymmetricAdjacency",
    "AuditReport",
    "BrokenInvariant",
    "ChargeLedger",
    "CompletenessBreach",
    "ConfigurationSpec",
    "DiagonalContradiction",
    "DuplicateNeighbor",
    "EmbeddedGraph",
    "EmbeddingError",
    "GenSpec",
    "LoopEdge",
    "NotPlanarEmbedding",
    "Occurrence",
    "ParseError",
    "RunStats",
    "SchemeExhausted",
    "SumMismatch",
    "TrialSequence",
    "UNIT",
    "UnknownName",
    "UntriangulatableFace",
    "ValidationFailure",
    "VirtualHub",
    "audit",
    "build",
    "builtin_catalog",
    "check_coloring",
    "color_planar",
    "final_charges",
    "find_reducible",
    "free_color",
    "from_faces",
    "generate",
    "get_entry",
    "icosphere",
    "match_at",
    "named",
    "read",
    "swap",
    "transfers",
    "validate_entry",
    "write",
    "__version__",
]
