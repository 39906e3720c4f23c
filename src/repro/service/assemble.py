"""Service-node reassembly of shard responses into one region array.

A service node holds no cells — only :class:`~repro.core.units
.ObjectDescriptor` catalog entries.  For each object it builds a
*shadow MDD*: same domain, same cell type and the descriptor's own
tiling scheme, so tile ids and domains line up with the data nodes'
object and a regular tiling keeps its computed grid lookup.
Reassembly installs a resolver that serves each tile from the
received :class:`~repro.core.units.TilePayload` byte views and runs the
ordinary ``MDD.read``: the existing vectorized zero-copy scatter
(pointer-adjacent run merging included) does the rest, so the service
tier adds no second assembly code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..arrays.celltype import CellType
from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.tile import Tile
from ..core.units import ObjectDescriptor, TilePayload, _dtype_for
from ..errors import ShardUnavailableError

__all__ = ["ShadowObject"]


class ShadowObject:
    """Cell-less stand-in for one remote object on a service node."""

    def __init__(self, descriptor: ObjectDescriptor) -> None:
        self.descriptor = descriptor
        dtype = _dtype_for(descriptor.dtype)
        cell_type = CellType(name=descriptor.dtype, dtype=dtype)
        self.mdd = MDD(
            descriptor.name,
            MInterval.parse(descriptor.domain),
            cell_type,
            tiling=descriptor.tiling,
        )
        # No local cells, ever: tiles resolve only during an assemble()
        # call with that read's payloads installed.
        self.mdd.source = None

    @property
    def domain(self) -> MInterval:
        return self.mdd.domain

    def tiles_for(self, region: MInterval) -> List[Tile]:
        return self.mdd.tiles_for(region)

    def estimated_read_bytes(self, region: MInterval) -> int:
        """Quota pre-charge estimate: the clipped region's cell volume."""
        clipped = self.mdd.domain.intersection(region)
        if clipped is None:
            return 0
        return clipped.cell_count * self.mdd.cell_type.size_bytes

    def assemble(
        self,
        region: MInterval,
        payloads: Dict[int, TilePayload],
        *,
        missing_fill: Optional[float] = None,
    ) -> np.ndarray:
        """Scatter the received tile payloads into one region array.

        Args:
            payloads: tile id -> received payload (byte views decode to
                read-only cell arrays, zero-copy).
            missing_fill: with ``None`` (default) a tile no shard
                delivered raises :class:`ShardUnavailableError`; a float
                fills such tiles instead — the degraded partial-result
                mode.
        """

        def resolve(_mdd: MDD, tile: Tile) -> np.ndarray:
            payload = payloads.get(tile.tile_id)
            if payload is None:
                if missing_fill is None:
                    raise ShardUnavailableError(
                        f"no shard delivered tile {tile.tile_id} of "
                        f"{self.descriptor.name!r}"
                    )
                return np.full(
                    tile.domain.shape,
                    missing_fill,
                    dtype=self.mdd.cell_type.dtype,
                )
            return payload.cells()

        self.mdd.resolver = resolve
        try:
            return self.mdd.read(region)
        finally:
            self.mdd.resolver = None
