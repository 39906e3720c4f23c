"""End-to-end tests for irregularly tiled objects through HEAVEN.

Non-regular tilings (directional, aligned) look tiles up through a bounds
table; STAR then falls back to run packing. Everything downstream — export, staging, caches,
queries — must work identically.
"""

import numpy as np
import pytest

from repro.arrays import (
    AlignedTiling,
    DOUBLE,
    DirectionalTiling,
    HashedNoiseSource,
    MDD,
    BoundsTable,
    MInterval,
)
from repro.core import Heaven, HeavenConfig, run_pack_partition
from repro.tertiary import MB


def build(tiling):
    heaven = Heaven(
        HeavenConfig(
            super_tile_bytes=64 * 1024,
            disk_cache_bytes=16 * MB,
            memory_cache_bytes=4 * MB,
        )
    )
    heaven.create_collection("col")
    mdd = MDD(
        "obj",
        MInterval.of((0, 63), (0, 63)),
        DOUBLE,
        tiling=tiling,
        source=HashedNoiseSource(23, 0.0, 3.0),
    )
    heaven.insert("col", mdd)
    return heaven, mdd


class TestDirectionalTilingE2E:
    TILING = DirectionalTiling([[20, 45], [32]])

    def test_uses_bounds_table(self):
        _heaven, mdd = build(self.TILING)
        assert isinstance(mdd.index, BoundsTable)

    def test_archive_and_read(self):
        heaven, mdd = build(self.TILING)
        heaven.archive("col", "obj")
        region = MInterval.of((10, 50), (20, 60))
        expect = mdd.source.region(region, mdd.cell_type)
        assert np.array_equal(heaven.read("col", "obj", region), expect)

    def test_query_over_irregular_archive(self):
        heaven, mdd = build(self.TILING)
        heaven.archive("col", "obj")
        results = heaven.query("select avg_cells(c[0:19, 0:31]) from col as c")
        expect = mdd.source.region(
            MInterval.of((0, 19), (0, 31)), mdd.cell_type
        ).mean()
        assert results[0].scalar() == pytest.approx(expect)

    def test_run_pack_partition_sizes(self):
        _heaven, mdd = build(self.TILING)
        super_tiles = run_pack_partition(mdd, 64 * 1024)
        assert sum(st.tile_count for st in super_tiles) == mdd.tile_count()
        # Variable tile sizes: no super-tile overshoots (single-tile STs
        # excepted).
        for st in super_tiles:
            if st.tile_count > 1:
                assert st.size_bytes <= 64 * 1024


class TestAlignedTilingE2E:
    TILING = AlignedTiling(max_tile_bytes=16 * 1024, preferred_axes=[0])

    def test_archive_update_read(self):
        heaven, mdd = build(self.TILING)
        heaven.archive("col", "obj")
        region = MInterval.of((0, 63), (0, 3))
        patch = np.full((64, 4), 42.0)
        heaven.update("col", "obj", region, patch)
        assert np.array_equal(heaven.read("col", "obj", region), patch)

    def test_reimport_round_trip(self):
        heaven, mdd = build(self.TILING)
        truth = mdd.source.region(mdd.domain, mdd.cell_type)
        heaven.archive("col", "obj")
        heaven.reimport("col", "obj")
        assert np.array_equal(mdd.read_all(), truth)
