"""polyws: memory-budgeted computational geometry on simple polygons.

Triangulation, shortest-path trees, and balanced partitions computed with a
read-only input polygon, a write-only output sink, and an explicit, enforced
budget of working words.  The oracle module holds unrestricted-memory
reference implementations and validators used as ground truth.  The command
line, `cli`, is imported on use, so that `python -m polyws.cli` runs it
without finding it imported already.
"""

from . import (errors, geodesic, geom, oracle, partition, spt, triangulate,
               workspace)

__all__ = ["cli", "errors", "geodesic", "geom", "oracle", "partition", "spt",
           "triangulate", "workspace"]
