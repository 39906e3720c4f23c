"""The three benchmark workloads.

Every workload builds its inputs from the seed alone: the cell arrays
(the *mirror* every read is checked against) and, per pass, the list of
operations.  The program only ever receives those generated inputs.

A run is a sequence of fixed-size *passes*.  Pass ``p`` always issues
the same operations for the same seed, so the virtual-time figures of
the first ``FIXED_PASSES`` passes (the paper's metrics) are identical
on every run of one seed and on every fresh set-up within a run.  Every
operation is keyed by a request id that names its pass and position,
so the runner can match one operation across repeated set-ups.

* ``archive_cold_read`` — one closed-loop caller reads random subcubes
  (1-10 % of an object, skewed toward a few hot objects) of 8 zlib
  archived 8 MiB cubes through ``Heaven.read_with_report``, with 2 drives
  staging in parallel and a disk cache of at most 1/4 of the archive.
* ``service_warm_read`` — 8 asyncio clients read 1-5 % subcubes of 4
  uncompressed 2,048-tile objects through a 4-data-node
  ``ServiceCluster``; virtual arrivals follow a seeded Poisson schedule.
* ``fused_read_update`` — rounds of a 4-read burst of one hot object
  through ``AdmissionController.run`` (arrivals close enough to fuse),
  followed by one small ``Heaven.update`` of that object.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import KB, MB, Heaven, HeavenConfig, MInterval
from repro.arrays import MDD, RegularTiling
from repro.core.admission import AdmissionController, QuerySpec
from repro.service import ServiceCluster
from repro.tertiary import DLT_7000, TapeProfile, scaled_profile

from spans import REQUEST

Bounds = Tuple[Tuple[int, int], ...]


def small_cartridge(capacity_bytes: int) -> TapeProfile:
    """DLT-7000 mechanics on a medium of *capacity_bytes*.

    Each small virtual medium stands in for a whole cartridge: exchange,
    load, transfer rate and the end-to-end wind time stay the DLT-7000's,
    only the capacity shrinks so that megabytes of test data span several
    media.  Seek times therefore spread continuously over the cartridge's
    real range instead of collapsing to the constant locate overhead.
    """
    return replace(DLT_7000, media_capacity_bytes=capacity_bytes)


# ---------------------------------------------------------------------- inputs


#: (amplitude, per-axis frequency) of the three modes of every test field
_MODES = ((40.0, (2.0, 3.0, 2.5)), (30.0, (3.0, 2.5, 2.0)), (20.0, (2.5, 2.0, 3.0)))


def coherent_cube(rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
    """Smooth float64 field rounded to whole units plus a little noise.

    Neighbouring cells repeat and vary slowly, so zlib compresses the
    tiles to about an eighth and inflate does real work on every read.
    The seed picks the phases and the noise; amplitudes and frequencies
    are fixed, which keeps every cube's compressed size within a few
    percent of the others, so the tape layout is the same for all seeds.
    """
    axes = [np.linspace(0.0, 1.0, n) for n in shape]
    field_ = np.zeros(tuple(shape))
    for amp, freq in _MODES:
        phase = rng.uniform(0.0, 2 * math.pi, 3)
        field_ += (
            amp
            * np.sin(2 * math.pi * freq[0] * axes[0] + phase[0])[:, None, None]
            * np.cos(2 * math.pi * freq[1] * axes[1] + phase[1])[None, :, None]
            * np.sin(2 * math.pi * freq[2] * axes[2] + phase[2])[None, None, :]
        )
    field_ += rng.normal(scale=0.3, size=tuple(shape))
    return np.round(field_)


def subcube(
    rng: random.Random,
    shape: Sequence[int],
    frac: float,
    centre: Optional[Sequence[int]] = None,
) -> Bounds:
    """Random box of *frac* of the volume with a random aspect.

    With *centre* the box is placed around that cell (clamped to the
    domain), so boxes sharing a centre overlap.
    """
    skew = [rng.uniform(-0.4, 0.4) for _ in shape]
    mean = sum(skew) / len(skew)
    side = frac ** (1.0 / len(shape))
    extents = [
        max(1, min(n, round(n * side * math.exp(s - mean))))
        for n, s in zip(shape, skew)
    ]
    bounds = []
    for axis, (n, extent) in enumerate(zip(shape, extents)):
        if centre is None:
            lo = rng.randrange(0, n - extent + 1)
        else:
            lo = centre[axis] - extent // 2 + rng.randrange(-1, 2)
            lo = max(0, min(n - extent, lo))
        bounds.append((lo, lo + extent - 1))
    return tuple(bounds)


def to_slices(bounds: Bounds) -> Tuple[slice, ...]:
    return tuple(slice(lo, hi + 1) for lo, hi in bounds)


def zipf_weights(count: int, exponent: float) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def stratified(rng: random.Random, items: Sequence, weights: Sequence[float], count: int) -> list:
    """*count* draws whose per-item counts match *weights* exactly, in seeded order.

    Stratifying the draws keeps the aggregate mix of a pass the same for
    every seed (only the order and the details vary), which is what lets
    the per-seed virtual metrics of a pass agree closely across seeds.
    """
    total = float(sum(weights))
    counts = [int(count * w / total) for w in weights]
    for index in range(count - sum(counts)):
        counts[index % len(counts)] += 1
    draws = [item for item, n in zip(items, counts) for _ in range(n)]
    rng.shuffle(draws)
    return draws


def stratified_uniform(rng: random.Random, lo: float, hi: float, count: int) -> List[float]:
    """One uniform draw from each of *count* equal slices of [lo, hi), shuffled."""
    values = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return values


def pass_rng(seed: int, workload: str, index: int) -> random.Random:
    """Operation generator of one pass (string seeds hash deterministically)."""
    return random.Random(f"{seed}:{workload}:{index}")


# ---------------------------------------------------------------------- samples


@dataclass
class Samples:
    """Everything one measured run observed."""

    #: request id -> host wall of the read (a fused burst's reads share it)
    read_wall_s: Dict[str, float] = field(default_factory=dict)
    #: request id -> host wall of the update
    write_wall_s: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: host seconds the benchmark spent checking results (not program time)
    verify_s: float = 0.0
    passes: int = 0
    # -- the first FIXED_PASSES passes (virtual, deterministic per seed) ---
    #: request id -> virtual latency of the read
    read_virtual_s: Dict[str, float] = field(default_factory=dict)
    virtual_span_s: float = 0.0
    virtual_reads: int = 0
    exchanges: int = 0
    tape_read_bytes: int = 0
    useful_bytes: int = 0
    tape_written_bytes: int = 0
    updated_bytes: int = 0
    # -- per operation, for reconciliation against the span wrappers -----
    #: request id -> (tape bytes, exchanges) from the program's report
    op_reports: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: tape bytes the service results report (bytes_from_tape), summed
    service_tape_bytes: int = 0
    #: peak resident set (MiB) once set-up and the virtual passes are done
    peak_rss_mb: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def populate(heaven: Heaven, mirror: Dict[str, np.ndarray], tile: Sequence[int]) -> None:
    """Insert and archive every mirror array as a regularly tiled object."""
    heaven.create_collection("c")
    for name, cells in mirror.items():
        heaven.insert("c", MDD.from_array(name, cells, tiling=RegularTiling(tile)))
        heaven.archive("c", name)
    heaven.library.unmount_all()


def library_totals(heavens: Sequence[Heaven]) -> Tuple[int, int, int]:
    """(bytes read, exchanges, bytes written) summed over distinct libraries."""
    read = exchanges = written = 0
    for heaven in {id(h): h for h in heavens}.values():
        stats = heaven.library.stats()
        read += stats.bytes_read
        exchanges += stats.exchanges
        written += stats.bytes_written
    return read, exchanges, written


class Workload:
    """Common shape: ``setup`` builds the system, ``run_pass`` runs ops."""

    name = ""
    #: passes of the first set-up of a run; the virtual figures come from
    #: exactly these passes
    FIXED_PASSES = 1
    #: leading passes every set-up of a run repeats; the host-wall figures
    #: come from these, each operation timed at its best repetition
    WALL_PASSES = 1
    #: fresh set-ups per untraced run, each followed by timed passes
    SETUPS = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.heavens: List[Heaven] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, samples: Samples) -> None:
        raise NotImplementedError

    def data_nodes(self) -> list:
        return []

    def teardown(self) -> None:
        self.heavens = []

    def check(self, samples: Samples, label: str, cells, expected) -> None:
        """Compare one result against the mirror and probe quiescence."""
        began = perf_counter()
        if cells.shape != expected.shape or not np.array_equal(cells, expected):
            samples.fail(f"{label}: cells differ from the mirror")
        else:
            for heaven in self.heavens:
                try:
                    heaven.assert_quiescent()
                except Exception as exc:  # HeavenError: reported, not raised
                    samples.fail(f"{label}: {exc}")
                    break
        samples.verify_s += perf_counter() - began


# ---------------------------------------------------------------------- archive


class ArchiveColdRead(Workload):
    name = "archive_cold_read"
    OBJECTS = 8
    SHAPE = (128, 128, 64)  # 8 MiB of float64 per cube
    TILE = (16, 16, 16)  # 32 KiB tiles, 256 per cube
    PASS_OPS = 250
    FIXED_PASSES = 8
    WALL_PASSES = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 1])
        self.names = [f"cube{i}" for i in range(self.OBJECTS)]
        self.mirror = {name: coherent_cube(rng, self.SHAPE) for name in self.names}
        self.weights = zipf_weights(self.OBJECTS, 1.5)

    @staticmethod
    def config() -> HeavenConfig:
        return HeavenConfig(
            # ~8.2 MiB of compressed tiles: four media for two drives
            tape_profile=small_cartridge(9 * MB // 4),
            num_drives=2,
            parallel_drives=2,
            super_tile_bytes=1 * MB,
            min_super_tile_bytes=64 * KB,
            compression="zlib",
            disk_cache_bytes=7 * MB // 4,
            memory_cache_bytes=2 * MB,
        )

    def setup(self) -> None:
        heaven = Heaven(self.config(), observability=False)
        populate(heaven, self.mirror, self.TILE)
        stats = heaven.library.stats()
        if heaven.disk_cache.capacity_bytes * 4 > stats.bytes_written or stats.media < 2:
            raise RuntimeError(
                f"archive workload mis-sized: cache {heaven.disk_cache.capacity_bytes} B, "
                f"archive {stats.bytes_written} B on {stats.media} media"
            )
        self.heavens = [heaven]

    def run_pass(self, index: int, samples: Samples) -> None:
        heaven = self.heavens[0]
        rng = pass_rng(self.seed, self.name, index)
        names = stratified(rng, self.names, self.weights, self.PASS_OPS)
        fractions = stratified_uniform(rng, 0.01, 0.10, self.PASS_OPS)
        ops = [
            (name, subcube(rng, self.SHAPE, frac)) for name, frac in zip(names, fractions)
        ]
        clock_start = heaven.clock.now
        for number, (name, bounds) in enumerate(ops):
            request = f"a{index}.{number}"
            samples.attempted += 1
            token = REQUEST.set(request)
            began = perf_counter()
            try:
                cells, report = heaven.read_with_report("c", name, MInterval.of(*bounds))
            except Exception as exc:
                samples.fail(f"{request}: {type(exc).__name__}: {exc}")
                continue
            finally:
                REQUEST.reset(token)
            samples.read_wall_s[request] = perf_counter() - began
            samples.op_reports[request] = (report.bytes_from_tape, report.exchanges)
            if index < self.FIXED_PASSES:
                samples.read_virtual_s[request] = report.virtual_seconds
                samples.exchanges += report.exchanges
                samples.tape_read_bytes += report.bytes_from_tape
                samples.useful_bytes += report.bytes_useful
                samples.virtual_reads += 1
            self.check(samples, request, cells, self.mirror[name][to_slices(bounds)])
        if index < self.FIXED_PASSES:
            samples.virtual_span_s += heaven.clock.now - clock_start


# ---------------------------------------------------------------------- service


class ServiceWarmRead(Workload):
    name = "service_warm_read"
    OBJECTS = 4
    SHAPE = (64, 64, 32)  # 1 MiB of float64 per object
    TILE = (4, 4, 4)  # 512 B tiles, 2,048 per object
    NODES = 4
    TENANTS = 4
    CLIENTS = 8
    PASS_OPS = 120
    FIXED_PASSES = 9
    WALL_PASSES = 6
    #: virtual arrivals per second — below what four warm nodes sustain
    RATE = 2.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 2])
        self.names = [f"obj{i}" for i in range(self.OBJECTS)]
        self.mirror = {name: coherent_cube(rng, self.SHAPE) for name in self.names}
        self.cluster: Optional[ServiceCluster] = None
        self.next_arrival = 0.0
        self.virtual_origin = 0.0

    @staticmethod
    def config() -> HeavenConfig:
        return HeavenConfig(
            # Tape only serves first touches here: keep the DLT-7000 wind
            # rate, so a seek on this small medium is about the locate
            # overhead and the first-touch transient stays short.
            tape_profile=scaled_profile(DLT_7000, 8 * MB),
            num_drives=1,
            super_tile_bytes=64 * KB,
            min_super_tile_bytes=16 * KB,
            partial_super_tile_reads=False,
            compression="none",
            # Holds the whole object set, so every shard stays cached
            # after its first touch; the memory tile cache is kept tiny so
            # warm reads are served (and charged) by the disk cache.
            disk_cache_bytes=8 * MB,
            memory_cache_bytes=64 * KB,
        )

    def setup(self) -> None:
        self.cluster = ServiceCluster.build(
            self.config,
            lambda heaven: populate(heaven, self.mirror, self.TILE),
            nodes=self.NODES,
            objects=[("c", name) for name in self.names],
        )
        for tenant in range(self.TENANTS):
            self.cluster.register_tenant(f"tenant{tenant}")
        self.heavens = list(self.cluster.heavens)
        self.next_arrival = 0.0

    def data_nodes(self) -> list:
        return list(self.cluster.nodes.values()) if self.cluster is not None else []

    def teardown(self) -> None:
        super().teardown()
        self.cluster = None

    def run_pass(self, index: int, samples: Samples) -> None:
        cluster = self.cluster
        assert cluster is not None
        rng = pass_rng(self.seed, self.name, index)
        # A Poisson process conditioned on PASS_OPS arrivals in the pass's
        # window: sorted uniform instants, so every pass offers exactly RATE.
        window = self.PASS_OPS / self.RATE
        arrivals = sorted(self.next_arrival + rng.random() * window for _ in range(self.PASS_OPS))
        self.next_arrival += window
        names = stratified(rng, self.names, [1.0] * self.OBJECTS, self.PASS_OPS)
        fractions = stratified_uniform(rng, 0.01, 0.05, self.PASS_OPS)
        ops = [
            (name, subcube(rng, self.SHAPE, frac), arrival, rng.randrange(self.TENANTS))
            for name, frac, arrival in zip(names, fractions, arrivals)
        ]
        before = library_totals(self.heavens)
        cursor = iter(enumerate(ops))
        completions: List[float] = []

        async def client() -> None:
            for number, (name, bounds, arrival_v, tenant) in cursor:
                request = f"s{index}.{number}"
                samples.attempted += 1
                REQUEST.set(request)
                began = perf_counter()
                try:
                    result = await cluster.sn.read(
                        f"token-tenant{tenant}",
                        "c",
                        name,
                        str(MInterval.of(*bounds)),
                        arrival_v=arrival_v,
                    )
                except Exception as exc:
                    samples.fail(f"{request}: {type(exc).__name__}: {exc}")
                    continue
                samples.read_wall_s[request] = perf_counter() - began
                samples.service_tape_bytes += result.bytes_from_tape
                if index < self.FIXED_PASSES:
                    samples.read_virtual_s[request] = result.latency_v
                    samples.useful_bytes += int(result.cells.nbytes)
                    samples.virtual_reads += 1
                    completions.append(result.completion_v)
                self.check(samples, request, result.cells, self.mirror[name][to_slices(bounds)])

        async def body() -> None:
            await asyncio.gather(*(client() for _ in range(self.CLIENTS)))

        cluster.run(body)
        if index < self.FIXED_PASSES and completions:
            after = library_totals(self.heavens)
            samples.tape_read_bytes += after[0] - before[0]
            samples.exchanges += after[1] - before[1]
            # Passes follow each other on one virtual timeline: the span
            # runs from the first pass's first arrival to the last completion.
            if index == 0:
                self.virtual_origin = ops[0][2]
            samples.virtual_span_s = max(
                samples.virtual_span_s, max(completions) - self.virtual_origin
            )


# ---------------------------------------------------------------------- fused


class FusedReadUpdate(Workload):
    name = "fused_read_update"
    OBJECTS = 4
    SHAPE = (128, 64, 64)  # 4 MiB of float64 per object
    TILE = (16, 16, 16)  # 32 KiB tiles, 128 per object
    BURST = 4
    PASS_ROUNDS = 50
    FIXED_PASSES = 12
    WALL_PASSES = 4
    SETUPS = 5
    UPDATE = (4, 4, 4)  # cells rewritten per update
    #: mean virtual gap between the reads of one burst
    GAP_S = 1.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 3])
        self.names = [f"obj{i}" for i in range(self.OBJECTS)]
        self.mirror = {name: coherent_cube(rng, self.SHAPE) for name in self.names}
        self.weights = zipf_weights(self.OBJECTS, 1.2)

    @staticmethod
    def config() -> HeavenConfig:
        return HeavenConfig(
            tape_profile=small_cartridge(1 * MB),
            num_drives=1,
            parallel_drives=1,
            super_tile_bytes=256 * KB,
            min_super_tile_bytes=64 * KB,
            compression="zlib",
            disk_cache_bytes=512 * KB,
            memory_cache_bytes=1 * MB,
            admission_holdback_s=2.0,
        )

    def setup(self) -> None:
        heaven = Heaven(self.config(), observability=False)
        populate(heaven, self.mirror, self.TILE)
        if heaven.disk_cache.capacity_bytes >= heaven.library.stats().bytes_written:
            raise RuntimeError("fused workload mis-sized: the disk cache holds every object")
        # The mirror is patched by updates: keep the pristine input intact
        # for the next setup of this run.
        self.current = {name: cells.copy() for name, cells in self.mirror.items()}
        self.heavens = [heaven]

    def run_pass(self, index: int, samples: Samples) -> None:
        heaven = self.heavens[0]
        rng = pass_rng(self.seed, self.name, index)
        cells_rng = np.random.default_rng([self.seed, 4, index])
        clock_start = heaven.clock.now
        names = stratified(rng, self.names, self.weights, self.PASS_ROUNDS)
        fractions = stratified_uniform(rng, 0.01, 0.04, self.PASS_ROUNDS * self.BURST)
        for round_, name in enumerate(names):
            centre = [rng.randrange(n) for n in self.SHAPE]
            boxes = [
                subcube(rng, self.SHAPE, frac, centre)
                for frac in fractions[round_ * self.BURST:(round_ + 1) * self.BURST]
            ]
            gaps = [rng.expovariate(1.0 / self.GAP_S) for _ in range(self.BURST)]
            lo = [max(0, min(n - e, c - e // 2)) for n, e, c in zip(self.SHAPE, self.UPDATE, centre)]
            update = tuple((l, l + e - 1) for l, e in zip(lo, self.UPDATE))
            new_cells = np.round(cells_rng.normal(scale=50.0, size=self.UPDATE))

            request = f"r{index}.{round_}"
            samples.attempted += self.BURST
            arrival = heaven.clock.now
            specs = []
            for number, (box, gap) in enumerate(zip(boxes, gaps)):
                arrival += gap
                specs.append(
                    QuerySpec(
                        collection="c",
                        object_name=name,
                        region=MInterval.of(*box),
                        arrival_s=arrival,
                        name=f"{request}.{number}",
                    )
                )
            token = REQUEST.set(request)
            began = perf_counter()
            try:
                outputs, report = AdmissionController(heaven).run(specs)
            except Exception as exc:
                for _ in range(self.BURST):
                    samples.fail(f"{request}: {type(exc).__name__}: {exc}")
                outputs = None
            finally:
                REQUEST.reset(token)
            if outputs is not None:
                wall = perf_counter() - began
                for spec, latency in zip(specs, report.latencies_s):
                    samples.read_wall_s[spec.name] = wall
                    if index < self.FIXED_PASSES:
                        samples.read_virtual_s[spec.name] = latency
                samples.op_reports[request] = (report.bytes_from_tape, report.exchanges)
                if index < self.FIXED_PASSES:
                    samples.exchanges += report.exchanges
                    samples.tape_read_bytes += report.bytes_from_tape
                    samples.useful_bytes += sum(int(out.nbytes) for out in outputs)
                    samples.virtual_reads += self.BURST
                for number, (out, box) in enumerate(zip(outputs, boxes)):
                    self.check(
                        samples, f"{request}.{number}", out,
                        self.current[name][to_slices(box)],
                    )

            request = f"u{index}.{round_}"
            samples.attempted += 1
            written_before = heaven.library.stats().bytes_written
            token = REQUEST.set(request)
            began = perf_counter()
            try:
                heaven.update("c", name, MInterval.of(*update), new_cells)
            except Exception as exc:
                samples.fail(f"{request}: {type(exc).__name__}: {exc}")
                continue
            finally:
                REQUEST.reset(token)
            samples.write_wall_s[request] = perf_counter() - began
            self.current[name][to_slices(update)] = new_cells
            if index < self.FIXED_PASSES:
                samples.tape_written_bytes += heaven.library.stats().bytes_written - written_before
                samples.updated_bytes += int(new_cells.nbytes)
            check_began = perf_counter()
            try:
                heaven.assert_quiescent()
            except Exception as exc:
                samples.fail(f"{request}: {exc}")
            samples.verify_s += perf_counter() - check_began
        if index < self.FIXED_PASSES:
            samples.virtual_span_s += heaven.clock.now - clock_start


WORKLOADS = {
    cls.name: cls for cls in (ArchiveColdRead, ServiceWarmRead, FusedReadUpdate)
}
