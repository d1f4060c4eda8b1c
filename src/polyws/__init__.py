"""polyws: memory-budgeted computational geometry on simple polygons.

Triangulation, shortest-path trees, and balanced partitions computed with a
read-only input polygon, a write-only output sink, and an explicit, enforced
budget of working words.  The oracle module holds unrestricted-memory
reference implementations and validators used as ground truth.
"""

from .errors import (BudgetExceededError, InternalInvariantError,
                     PolygonInputError, UsageError)
from .geodesic import Cone, GeodesicCursor, first_link
from .geom import (CLOCKWISE, COLLINEAR, COORD_LIMIT, COUNTERCLOCKWISE,
                   is_visible, max_angle_reflex_in_triangle, orient,
                   ray_shoot, segments_properly_intersect)
from .partition import partition, piece_vertex_lists
from .spt import (CollectingSptSink, SptSink, spt, spt_constant_workspace,
                  spt_in_memory)
from .triangulate import (AdjacencySink, CollectingSink, PendingAdjacency,
                          TriangulationSink, find_alternating_diagonal,
                          required_budget, triangulate,
                          triangulate_in_memory, triangulate_polygon)
from .workspace import (BasePolygon, CutVertex, MeterMode, RunStats,
                        SubpolygonView, WorkspaceMeter, component_sizes,
                        is_alternating, null_meter)

__all__ = [
    "AdjacencySink", "BasePolygon", "BudgetExceededError", "CLOCKWISE",
    "COLLINEAR", "COORD_LIMIT", "COUNTERCLOCKWISE", "CollectingSink",
    "CollectingSptSink", "Cone", "CutVertex", "GeodesicCursor",
    "InternalInvariantError", "MeterMode", "PendingAdjacency",
    "PolygonInputError", "RunStats", "SptSink", "SubpolygonView",
    "TriangulationSink", "UsageError", "WorkspaceMeter", "component_sizes",
    "find_alternating_diagonal", "first_link", "is_alternating", "is_visible",
    "max_angle_reflex_in_triangle", "null_meter", "orient", "partition",
    "piece_vertex_lists", "ray_shoot", "required_budget",
    "segments_properly_intersect", "spt", "spt_constant_workspace",
    "spt_in_memory", "triangulate", "triangulate_in_memory",
    "triangulate_polygon",
]
