"""Tile lookup: which tiles of an object a region touches (Kapitel 2.5.4).

Two structures, chosen by the object's tiling:

* :class:`GridIndex` — RasDaMan's *regular computed index* for a
  :class:`~.tiling.RegularTiling`: tile ids are a pure function of grid
  coordinates, so a lookup is integer arithmetic with no per-tile state.
* :class:`BoundsTable` — every other tiling: an ``(N, d)`` int64 table of
  tile lo/hi corners, answered by one vectorised overlap pass per axis.

Both return tile ids ascending; tile ids are positions in the tiling's
``tile_domains`` list.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import DomainError, TilingError
from .minterval import MInterval


class GridIndex:
    """Computed directory for a regular tiling of a known domain.

    Tile ids follow row-major grid order (as :meth:`MInterval.grid`
    produces them), so intersecting ids are computed, never searched.
    """

    def __init__(self, domain: MInterval, tile_shape: Sequence[int]) -> None:
        if len(tile_shape) != domain.dimension:
            raise TilingError("tile shape dimensionality mismatch")
        self.domain = domain
        self.tile_shape = tuple(int(e) for e in tile_shape)
        self._counts = tuple(
            -(-axis.extent // extent)  # ceil division
            for axis, extent in zip(domain.axes, self.tile_shape)
        )

    @property
    def grid_counts(self) -> Tuple[int, ...]:
        """Number of tiles along each axis."""
        return self._counts

    def tile_id_at(self, grid_coords: Sequence[int]) -> int:
        """Tile id of the grid cell at *grid_coords* (row-major)."""
        tile_id = 0
        for coordinate, count in zip(grid_coords, self._counts):
            if not 0 <= coordinate < count:
                raise DomainError(f"grid coordinate {grid_coords} outside {self._counts}")
            tile_id = tile_id * count + coordinate
        return tile_id

    def intersecting(self, region: MInterval) -> List[int]:
        """Tile ids whose domains intersect *region*, ascending."""
        clipped = self.domain.intersection(region)
        if clipped is None:
            return []
        ids = [0]
        for axis, extent, count, clip in zip(
            self.domain.axes, self.tile_shape, self._counts, clipped.axes
        ):
            span = range((clip.lo - axis.lo) // extent, (clip.hi - axis.lo) // extent + 1)
            ids = [base * count + coordinate for base in ids for coordinate in span]
        return ids


class BoundsTable:
    """Lo/hi corners of an arbitrary tile set, one row per tile id."""

    def __init__(self, tile_domains: Sequence[MInterval]) -> None:
        # Column-major, so each axis is one contiguous column.
        self.lo = np.asfortranarray([d.origin for d in tile_domains], dtype=np.int64)
        self.hi = np.asfortranarray([d.high for d in tile_domains], dtype=np.int64)

    def intersecting(self, region: MInterval) -> List[int]:
        """Tile ids whose domains intersect *region*, ascending."""
        if region.dimension != self.lo.shape[1]:
            raise DomainError(
                f"dimensionality mismatch: {self.lo.shape[1]} vs {region.dimension}"
            )
        # One pass per axis column: an (N, d) broadcast reduced by
        # all(axis=1) costs over 10x more at 16K tiles.
        hit = np.ones(len(self.lo), dtype=bool)
        for axis, (lo, hi) in enumerate(zip(region.origin, region.high)):
            hit &= self.lo[:, axis] <= hi
            hit &= self.hi[:, axis] >= lo
        return np.flatnonzero(hit).tolist()
