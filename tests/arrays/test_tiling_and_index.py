"""Tests for tiling strategies and tile indexes."""

import numpy as np
import pytest

from repro.arrays import (
    AlignedTiling,
    DOUBLE,
    CHAR,
    DirectionalTiling,
    BoundsTable,
    GridIndex,
    MDD,
    MInterval,
    RegularTiling,
    SizeBoundedTiling,
    validate_tiling,
)
from repro.errors import DomainError, TilingError

DOMAIN = MInterval.of((0, 99), (0, 59))


class TestRegularTiling:
    def test_exact_cover(self):
        tiles = RegularTiling((25, 20)).tile_domains(DOMAIN, DOUBLE)
        validate_tiling(DOMAIN, tiles)
        assert len(tiles) == 4 * 3

    def test_border_clipping(self):
        tiles = RegularTiling((30, 40)).tile_domains(DOMAIN, DOUBLE)
        validate_tiling(DOMAIN, tiles)
        assert tiles[-1].shape == (10, 20)

    def test_dimension_mismatch(self):
        with pytest.raises(TilingError):
            RegularTiling((10,)).tile_domains(DOMAIN, DOUBLE)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(TilingError):
            RegularTiling((0, 10)).tile_domains(DOMAIN, DOUBLE)

    def test_describe(self):
        assert RegularTiling((10, 20)).describe() == "regular(10, 20)"


class TestSizeBoundedTiling:
    def test_tiles_respect_budget(self):
        tiles = SizeBoundedTiling(8 * 1024).tile_domains(DOMAIN, DOUBLE)
        validate_tiling(DOMAIN, tiles)
        for tile in tiles:
            assert tile.cell_count * DOUBLE.size_bytes <= 8 * 1024

    def test_near_cubic_tiles(self):
        tiles = SizeBoundedTiling(8 * 1024).tile_domains(DOMAIN, DOUBLE)
        interior = tiles[0]
        ratio = interior.shape[0] / interior.shape[1]
        assert 0.5 <= ratio <= 2.0

    def test_budget_below_cell_rejected(self):
        with pytest.raises(TilingError):
            SizeBoundedTiling(4).tile_domains(DOMAIN, DOUBLE)


class TestDirectionalTiling:
    def test_splits_at_points(self):
        tiling = DirectionalTiling([[50], []])
        tiles = tiling.tile_domains(DOMAIN, DOUBLE)
        validate_tiling(DOMAIN, tiles)
        assert len(tiles) == 2
        assert tiles[0] == MInterval.of((0, 49), (0, 59))

    def test_unsplit_axis_stays_whole(self):
        tiles = DirectionalTiling([[25, 50, 75], []]).tile_domains(DOMAIN, DOUBLE)
        assert all(t[1].extent == 60 for t in tiles)

    def test_out_of_range_split_rejected(self):
        with pytest.raises(TilingError):
            DirectionalTiling([[150], []]).tile_domains(DOMAIN, DOUBLE)

    def test_wrong_arity_rejected(self):
        with pytest.raises(TilingError):
            DirectionalTiling([[50]]).tile_domains(DOMAIN, DOUBLE)


class TestAlignedTiling:
    def test_preferred_axis_spans_domain(self):
        tiles = AlignedTiling(max_tile_bytes=16 * 1024, preferred_axes=[1]).tile_domains(
            DOMAIN, DOUBLE
        )
        validate_tiling(DOMAIN, tiles)
        assert all(t[1].extent == 60 for t in tiles)

    def test_bad_axis_rejected(self):
        with pytest.raises(TilingError):
            AlignedTiling(1024, preferred_axes=[9]).tile_domains(DOMAIN, DOUBLE)


class TestValidateTiling:
    def test_gap_detected(self):
        with pytest.raises(TilingError):
            validate_tiling(DOMAIN, [MInterval.of((0, 49), (0, 59))])

    def test_overlap_detected(self):
        with pytest.raises(TilingError):
            validate_tiling(
                MInterval.of((0, 9)),
                [MInterval.of((0, 5)), MInterval.of((5, 9))],
            )

    def test_leak_detected(self):
        with pytest.raises(TilingError):
            validate_tiling(MInterval.of((0, 9)), [MInterval.of((0, 10))])


class TestGridIndex:
    @pytest.fixture
    def index(self):
        return GridIndex(DOMAIN, (25, 20))

    def test_is_grid_index(self):
        mdd = MDD("g", DOMAIN, DOUBLE, tiling=RegularTiling((25, 20)))
        assert isinstance(mdd.index, GridIndex)
        assert mdd.index.grid_counts == (4, 3)

    def test_tile_id_at_is_row_major(self, index):
        tiles = RegularTiling((25, 20)).tile_domains(DOMAIN, DOUBLE)
        assert index.tile_id_at((1, 1)) == 4
        assert tiles[4] == MInterval.of((25, 49), (20, 39))

    def test_tile_id_at_outside_grid_rejected(self, index):
        with pytest.raises(DomainError):
            index.tile_id_at((4, 0))

    def test_point_region(self, index):
        assert index.intersecting(MInterval.of(30, 25)) == [4]

    def test_region_spanning_multiple_tiles(self, index):
        ids = index.intersecting(MInterval.of((20, 30), (15, 25)))
        assert ids == [0, 1, 3, 4]

    def test_whole_domain(self, index):
        assert index.intersecting(DOMAIN) == list(range(12))

    def test_disjoint_region_empty(self, index):
        assert index.intersecting(MInterval.of((200, 210), (0, 5))) == []

    def test_dimension_mismatch_rejected(self, index):
        with pytest.raises(DomainError):
            index.intersecting(MInterval.of((0, 5)))

    def test_shape_arity_mismatch_rejected(self):
        with pytest.raises(TilingError):
            GridIndex(DOMAIN, (25,))


class TestBoundsTable:
    BOXES = [
        MInterval.of((0, 4), (0, 9)),
        MInterval.of((5, 9), (0, 4)),
        MInterval.of((5, 9), (5, 9)),
        MInterval.of((10, 30), (0, 9)),
    ]

    def test_matches_bruteforce_on_regular_tiles(self):
        tiles = RegularTiling((10, 10)).tile_domains(DOMAIN, DOUBLE)
        table = BoundsTable(tiles)
        rng = np.random.default_rng(0)
        for _ in range(30):
            lo0, lo1 = int(rng.integers(0, 90)), int(rng.integers(0, 50))
            region = MInterval.of((lo0, lo0 + 15), (lo1, lo1 + 9))
            expect = sorted(
                i for i, t in enumerate(tiles) if t.intersects(region)
            )
            assert table.intersecting(region) == expect

    def test_handles_irregular_tiles(self):
        table = BoundsTable(self.BOXES)
        assert table.intersecting(MInterval.of((4, 6), (4, 6))) == [0, 1, 2]
        assert table.intersecting(MInterval.of((9, 10), (9, 9))) == [2, 3]

    def test_region_outside_every_tile_empty(self):
        table = BoundsTable(self.BOXES)
        assert table.intersecting(MInterval.of((31, 40), (0, 9))) == []

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            BoundsTable(self.BOXES).intersecting(MInterval.of((0, 5)))


class TestMDDIndex:
    TILINGS = [
        RegularTiling((25, 20)),
        RegularTiling((30, 40)),
        SizeBoundedTiling(8 * 1024),
        DirectionalTiling([[25, 50, 75], [13]]),
        AlignedTiling(max_tile_bytes=16 * 1024, preferred_axes=[1]),
    ]

    def test_matches_bruteforce_overlap(self):
        """Grid arithmetic (regular) or bounds table (every other tiling)
        finds exactly the tiles a brute-force overlap test finds, also for
        regions reaching outside the domain."""
        rng = np.random.default_rng(0)
        for tiling in self.TILINGS:
            mdd = MDD("o", DOMAIN, DOUBLE, tiling=tiling)
            regular = isinstance(tiling, RegularTiling)
            assert isinstance(mdd.index, GridIndex if regular else BoundsTable)
            for _ in range(60):
                lo0, lo1 = int(rng.integers(-20, 110)), int(rng.integers(-20, 70))
                region = MInterval.of(
                    (lo0, lo0 + int(rng.integers(0, 40))),
                    (lo1, lo1 + int(rng.integers(0, 30))),
                )
                expect = sorted(
                    i for i, t in mdd.tiles.items() if t.domain.intersects(region)
                )
                assert mdd.index.intersecting(region) == expect
                assert [t.tile_id for t in mdd.tiles_for(region)] == expect
