"""Curated wall-clock benchmark suite (``python -m repro bench``).

Virtual-time costs are exact by construction; this suite measures what the
*host* pays for the Python layers around them.  Four benchmarks cover the
hot paths the profiler names:

* ``tile_decode`` — zlib decompression + ndarray materialisation of staged
  tile payloads (the decode phase);
* ``scatter_assembly`` — scattering memory-resident tiles into a result
  region via :meth:`MDD.read` (the assemble phase);
* ``read_many_thrash`` — an end-to-end ``read_many`` batch whose staged
  bytes exceed the disk cache: wave admission, pinning, decode and
  assembly under cache pressure (the macro path);
* ``parallel_dispatch`` — :func:`plan_parallel`'s dispatch-loop replay for
  a many-media batch at four drives (the scheduling layer, pure Python).

Protocol: per repetition a fresh, untimed ``setup`` builds the workload and
the timed thunk runs once — warmup repetitions are discarded, the rest feed
median/p95/IQR statistics.  Every result carries an **environment
fingerprint** including a fixed calibration workload's wall time, so
``scripts/bench_gate.py`` can compare machine-normalised scores instead of
raw seconds.  Results land in ``BENCH_<name>.json`` files whose committed
copies at the repo root are the regression baseline.

Benchmark factories import the core layers lazily: ``repro.obs.exporters``
imports this package for chart rendering, so module-level imports of
``repro.core`` here would be circular.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: result-file schema version (bump on breaking layout changes)
SCHEMA_VERSION = 1

#: benchmark sizes: "full" for real measurements, "smoke" for fast tests
SCALES = ("full", "smoke")

#: a prepared repetition: (timed thunk, parameter dict, bytes processed)
Prepared = Tuple[Callable[[], Any], Dict[str, Any], int]


@dataclass(frozen=True)
class BenchDef:
    """One suite benchmark: a name plus a per-repetition setup factory."""

    name: str
    title: str
    factory: Callable[[str], Prepared]


# -- statistics ----------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in 0..100) of a non-empty list."""
    if not samples:
        raise ValueError("percentile of empty sample list")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def sample_stats(samples: Sequence[float]) -> Dict[str, float]:
    """median/p95/IQR/min/max/mean summary of the timed repetitions."""
    return {
        "median_s": percentile(samples, 50.0),
        "p95_s": percentile(samples, 95.0),
        "iqr_s": percentile(samples, 75.0) - percentile(samples, 25.0),
        "min_s": min(samples),
        "max_s": max(samples),
        "mean_s": statistics.fmean(samples),
    }


# -- environment fingerprint ---------------------------------------------------


def _calibration_workload() -> float:
    """Fixed reference computation mixing numpy kernels and interpreter work.

    Its wall time fingerprints how fast this host runs the same blend of
    work the suite measures, letting the gate compare *normalised* scores
    across machines instead of raw seconds.
    """
    array = np.arange(262_144, dtype=np.float64)
    for _ in range(24):
        array = np.sqrt(array * 1.000001 + 1.0)
    checksum = 0
    for value in range(120_000):
        checksum += value * value
    return float(array[0]) + float(checksum)


def measure_calibration(repeats: int = 5) -> float:
    """Median wall seconds of the calibration workload."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_workload()
        times.append(time.perf_counter() - start)
    return percentile(times, 50.0)


def environment_fingerprint() -> Dict[str, Any]:
    """Host facts a benchmark result is only comparable within."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "numpy": np.__version__,
        "calibration_s": measure_calibration(),
    }


# -- benchmark definitions -----------------------------------------------------


def _bench_tile_decode(scale: str) -> Prepared:
    """Decode N zlib-compressed tile payloads into ndarray cells.

    Runs the production zero-copy decode recipe — ``decompress_view``
    per tile plus a read-only ``frombuffer`` view, exactly what
    :meth:`Heaven._decode_tile` does for a compressed tile.  The payload
    mix is half low-entropy tiles (DEFLATE works, the inflate cost is
    real) and half float noise whose mantissa entropy DEFLATE barely
    dents (ratio ~0.97): those take the codec's stored-frame fallback
    and decode as pure views, the tile class where zero-copy matters
    most.
    """
    from ..core.compression import ZlibCodec

    tiles = 96 if scale == "full" else 4
    side = 32  # 32**3 doubles = 256 KiB per tile
    codec = ZlibCodec()
    rng = np.random.default_rng(7)
    shape = (side, side, side)
    raw_size = int(np.prod(shape)) * 8
    stored: List[bytes] = []
    for index in range(tiles):
        if index % 2 == 0:
            # Quantised field: compresses well, exercises inflate.
            cells = rng.integers(0, 16, shape).astype(np.float64)
        else:
            # Spatially coherent float noise: incompressible, exercises
            # the stored-frame zero-copy path.
            cells = np.cumsum(rng.standard_normal(shape), axis=0)
        stored.append(codec.compress(cells.tobytes()))

    def thunk() -> int:
        total = 0
        for payload in stored:
            view = codec.decompress_view(payload, raw_size)
            cells = np.frombuffer(view, dtype=np.float64).reshape(shape)
            total += cells.nbytes
        return total

    params = {
        "tiles": tiles,
        "tile_bytes": raw_size,
        "codec": "zlib",
        "incompressible_tiles": tiles // 2,
    }
    return thunk, params, tiles * raw_size


def _bench_scatter_assembly(scale: str) -> Prepared:
    """Assemble a large region from memory-resident tiles via MDD.read."""
    from ..arrays import DOUBLE, MDD, MInterval, RegularTiling

    side = 160 if scale == "full" else 48
    tile_side = 32 if scale == "full" else 16
    mdd = MDD(
        "bench",
        MInterval.from_shape((side, side, side // 2)),
        DOUBLE,
        tiling=RegularTiling((tile_side, tile_side, tile_side)),
    )
    rng = np.random.default_rng(11)
    for tile in mdd.tiles.values():
        tile.set_payload(
            rng.standard_normal(tile.domain.shape).astype(np.float64)
        )
    region = MInterval.of(
        (1, side - 2), (1, side - 2), (0, side // 2 - 1)
    )

    def thunk() -> np.ndarray:
        return mdd.read(region)

    bytes_processed = int(np.prod(region.shape)) * 8
    params = {
        "domain": str(mdd.domain),
        "region": str(region),
        "tiles": mdd.tile_count(),
    }
    return thunk, params, bytes_processed


def _bench_read_many_thrash(scale: str) -> Prepared:
    """End-to-end read_many batch under cache pressure (fresh env per rep)."""
    from ..arrays import DOUBLE, MDD, MInterval, RegularTiling, ZeroSource
    from ..core import Heaven, HeavenConfig
    from ..tertiary import MB

    object_mb = 32 if scale == "full" else 4
    cache_mb = 8 if scale == "full" else 2
    heaven = Heaven(
        HeavenConfig(
            super_tile_bytes=4 * MB,
            disk_cache_bytes=cache_mb * MB,
            memory_cache_bytes=128 * MB,
            retain_payload=False,
        )
    )
    heaven.create_collection("c")
    cells = object_mb * MB // DOUBLE.size_bytes
    side = max(8, int(round(cells ** (1.0 / 3))))
    tile_side = max(4, min(side, int(round((512 * 1024 // 8) ** (1.0 / 3)))))
    mdd = MDD(
        "obj",
        MInterval.from_shape((side,) * 3),
        DOUBLE,
        tiling=RegularTiling((tile_side,) * 3),
        source=ZeroSource(),
    )
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()
    axes = list(mdd.domain.axes)
    first = axes[0]
    slabs = first.split_regular(max(1, first.extent // 4))
    batch = [
        ("c", "obj", MInterval.of((slab.lo, slab.hi), *axes[1:]))
        for slab in slabs
    ]

    def thunk() -> int:
        outputs, _report = heaven.read_many(batch)
        return sum(int(out.nbytes) for out in outputs)

    params = {
        "object_mb": object_mb,
        "cache_mb": cache_mb,
        "batch": len(batch),
    }
    return thunk, params, object_mb * MB


def _bench_parallel_dispatch(scale: str) -> Prepared:
    """plan_parallel's pure-Python dispatch replay over a many-media batch."""
    from ..core.scheduler import TapeRequest, plan_parallel
    from ..tertiary import MB, TAPE_PROFILES, TapeLibrary, scaled_profile

    media = 24 if scale == "full" else 4
    per_medium = 8 if scale == "full" else 2
    rounds = 6 if scale == "full" else 1
    profile = scaled_profile(TAPE_PROFILES["DLT-7000"], 256 * MB)
    library = TapeLibrary(profile, num_drives=4, retain_payload=False)
    requests: List[TapeRequest] = []
    for m in range(media):
        medium = library.new_medium(f"bench-{m:03d}")
        for s in range(per_medium):
            name = f"seg-{m:03d}-{s:02d}"
            library.write_segment(name, 2 * MB, medium_id=medium.medium_id)
            _medium_id, segment = library.segment(name)
            requests.append(
                TapeRequest(
                    key=name,
                    medium_id=medium.medium_id,
                    offset=segment.offset,
                    length=segment.length,
                )
            )
    library.unmount_all()

    def thunk() -> float:
        makespan = 0.0
        for _ in range(rounds):
            plan = plan_parallel(requests, library, 4)
            makespan += plan.makespan_seconds
        return makespan

    params = {
        "media": media,
        "requests": len(requests),
        "drives": 4,
        "rounds": rounds,
    }
    return thunk, params, len(requests) * 2 * MB * rounds


def _bench_multiquery_openloop(scale: str) -> Prepared:
    """Open-loop concurrent queries through the admission layer.

    Sweeps the offered load (Poisson arrival rate, seeded) and records the
    virtual-latency distribution — p50/p95/p99 sojourn per load point —
    in ``params``; the timed thunk replays the middle load point end to
    end, so the wall sample tracks admission + fused staging + assembly.
    """
    import random as _random

    from ..arrays import DOUBLE, MDD, MInterval, RegularTiling, ZeroSource
    from ..core import Heaven, HeavenConfig
    from ..core.admission import AdmissionController, QuerySpec
    from ..tertiary import MB

    object_mb = 16 if scale == "full" else 4
    queries = 12 if scale == "full" else 6
    loads = (0.05, 0.2, 0.8)  # offered load in queries per virtual second

    def build():
        heaven = Heaven(
            HeavenConfig(
                super_tile_bytes=2 * MB,
                disk_cache_bytes=8 * MB,
                memory_cache_bytes=64 * MB,
                retain_payload=False,
            )
        )
        heaven.create_collection("c")
        cells = object_mb * MB // DOUBLE.size_bytes
        side = max(8, int(round(cells ** (1.0 / 3))))
        mdd = MDD(
            "obj",
            MInterval.from_shape((side,) * 3),
            DOUBLE,
            tiling=RegularTiling((max(4, side // 4),) * 3),
            source=ZeroSource(),
        )
        heaven.insert("c", mdd)
        heaven.archive("c", "obj")
        heaven.library.unmount_all()
        return heaven, mdd

    def run_load(load: float):
        heaven, mdd = build()
        rng = _random.Random(97)
        axes = list(mdd.domain.axes)
        first = axes[0]
        arrival = heaven.clock.now
        specs = []
        for index in range(queries):
            arrival += rng.expovariate(load)
            span = max(1, first.extent // 4)
            lo = rng.randrange(first.lo, max(first.lo + 1, first.hi - span))
            hi = min(first.hi, lo + span - 1)
            region = MInterval.of(
                (lo, hi), *((a.lo, a.hi) for a in axes[1:])
            )
            specs.append(
                QuerySpec(
                    collection="c",
                    object_name="obj",
                    region=region,
                    arrival_s=arrival,
                    name=f"q{index}",
                )
            )
        outputs, report = AdmissionController(heaven).run(specs)
        useful = sum(int(out.nbytes) for out in outputs)
        return report, useful

    latency_by_load = {}
    useful_bytes = 0
    for load in loads:
        report, useful_bytes = run_load(load)
        latencies = sorted(report.latencies_s)
        latency_by_load[f"{load:g}qps"] = {
            "offered_qps": load,
            "p50_s": round(percentile(latencies, 50.0), 3),
            "p95_s": round(percentile(latencies, 95.0), 3),
            "p99_s": round(percentile(latencies, 99.0), 3),
            "sweeps": report.sweeps,
            "fusion_saved_mb": round(report.fusion_saved_bytes / MB, 2),
        }

    def thunk() -> float:
        report, _useful = run_load(loads[1])
        return report.makespan_s

    params = {
        "object_mb": object_mb,
        "queries": queries,
        "latency_by_load": latency_by_load,
    }
    return thunk, params, useful_bytes


def _bench_service_scaling(scale: str) -> Prepared:
    """Open-loop service reads at growing data-node counts.

    Builds an SN/DN cluster per node count (1, 2, 4 — each data node a
    fresh HEAVEN owning a hash-ring shard of the super-tile space) and
    serves the same seeded open-loop request stream through the service
    node.  ``params`` records virtual q/s, p95 sojourn and makespan per
    node count plus ``speedup_4v1`` — the virtual-throughput ratio the
    CI service gate asserts (>= 1.4x at 4 nodes).  The timed thunk
    replays the 4-node run, so the wall sample tracks dispatch + fused
    staging + wire framing + reassembly.
    """
    import random as _random

    from ..arrays import DOUBLE, MDD, MInterval, RegularTiling, ZeroSource
    from ..core import Heaven, HeavenConfig
    from ..service import ServiceCluster
    from ..tertiary import MB

    object_mb = 16 if scale == "full" else 4
    requests = 12 if scale == "full" else 6
    node_counts = (1, 2, 4)

    def make_config() -> HeavenConfig:
        # 16 super-tile segments spread over 8 small media: a node only
        # mounts the media its shard's segments live on, so the mount
        # bill — the dominant cost — shrinks with the node count.
        from ..tertiary import TAPE_PROFILES, scaled_profile

        return HeavenConfig(
            tape_profile=scaled_profile(
                TAPE_PROFILES["DLT-7000"], object_mb * MB // 8
            ),
            super_tile_bytes=object_mb * MB // 16,
            disk_cache_bytes=64 * MB,
            retain_payload=False,
        )

    cells = object_mb * MB // DOUBLE.size_bytes
    side = max(8, int(round(cells ** (1.0 / 3))))
    tile_side = max(4, side // 8)

    def setup(heaven: Heaven) -> None:
        heaven.create_collection("c")
        mdd = MDD(
            "obj",
            MInterval.from_shape((side,) * 3),
            DOUBLE,
            tiling=RegularTiling((tile_side,) * 3),
            source=ZeroSource(),
        )
        heaven.insert("c", mdd)
        heaven.archive("c", "obj")
        heaven.library.unmount_all()

    def request_plan():
        rng = _random.Random(23)
        probe = Heaven(make_config())
        setup(probe)
        domain = probe.collection("c").get("obj").domain
        axes = list(domain.axes)
        first = axes[0]
        plan = []
        arrival = 0.0
        for index in range(requests):
            # Saturating offered load: arrivals an order of magnitude
            # faster than the single-node service rate, so the makespan
            # is work-dominated and the node count is what moves it.
            arrival += rng.expovariate(4.0)
            span = max(1, first.extent // 4)
            lo = rng.randrange(first.lo, max(first.lo + 1, first.hi - span))
            hi = min(first.hi, lo + span - 1)
            region = MInterval.of((lo, hi), *((a.lo, a.hi) for a in axes[1:]))
            plan.append((str(region), arrival))
        return plan

    plan = request_plan()

    def run_nodes(nodes: int):
        cluster = ServiceCluster.build(
            make_config, setup, nodes=nodes, objects=[("c", "obj")]
        )
        cluster.register_tenant("bench")
        results = cluster.read_many(
            [("token-bench", "c", "obj", region, arrival)
             for region, arrival in plan]
        )
        makespan = max(r.completion_v for r in results)
        latencies = sorted(r.latency_v for r in results)
        useful = sum(r.bytes_useful for r in results)
        qps = len(results) / makespan if makespan > 0 else 0.0
        return qps, percentile(latencies, 95.0), makespan, useful

    scaling: Dict[str, Any] = {}
    qps_by_nodes: Dict[int, float] = {}
    useful_bytes = 0
    for nodes in node_counts:
        qps, p95_s, makespan, useful_bytes = run_nodes(nodes)
        qps_by_nodes[nodes] = qps
        scaling[f"n{nodes}"] = {
            "nodes": nodes,
            "virtual_qps": round(qps, 4),
            "p95_virtual_s": round(p95_s, 3),
            "makespan_virtual_s": round(makespan, 3),
        }

    def thunk() -> float:
        _qps, _p95, makespan, _useful = run_nodes(node_counts[-1])
        return makespan

    params = {
        "object_mb": object_mb,
        "requests": requests,
        "node_counts": list(node_counts),
        "scaling": scaling,
        "speedup_4v1": round(qps_by_nodes[4] / qps_by_nodes[1], 3)
        if qps_by_nodes.get(1) else 0.0,
    }
    return thunk, params, useful_bytes


#: the curated suite, in execution order
SUITE: Tuple[BenchDef, ...] = (
    BenchDef(
        "tile_decode",
        "zlib tile decode into ndarray cells",
        _bench_tile_decode,
    ),
    BenchDef(
        "scatter_assembly",
        "tile scatter-assembly into a result region",
        _bench_scatter_assembly,
    ),
    BenchDef(
        "read_many_thrash",
        "read_many batch under disk-cache pressure",
        _bench_read_many_thrash,
    ),
    BenchDef(
        "parallel_dispatch",
        "parallel staging plan over a many-media batch",
        _bench_parallel_dispatch,
    ),
    BenchDef(
        "multiquery_openloop",
        "open-loop concurrent queries through the admission layer",
        _bench_multiquery_openloop,
    ),
    BenchDef(
        "service_scaling",
        "open-loop service reads vs data-node count (SN/DN tier)",
        _bench_service_scaling,
    ),
)


def suite_names() -> List[str]:
    return [bench.name for bench in SUITE]


# -- execution -----------------------------------------------------------------


@dataclass
class BenchResult:
    """Timed repetitions and derived statistics of one benchmark."""

    name: str
    title: str
    scale: str
    warmup: int
    samples_s: List[float]
    params: Dict[str, Any]
    bytes_processed: int
    environment: Dict[str, Any] = field(default_factory=dict)

    @property
    def stats(self) -> Dict[str, float]:
        return sample_stats(self.samples_s)

    @property
    def throughput_mb_s(self) -> Optional[float]:
        median = self.stats["median_s"]
        if self.bytes_processed <= 0 or median <= 0:
            return None
        return self.bytes_processed / median / (1024.0 * 1024.0)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "title": self.title,
            "unit": "seconds",
            "scale": self.scale,
            "warmup": self.warmup,
            "repetitions": len(self.samples_s),
            "samples_s": [round(s, 9) for s in self.samples_s],
            "stats": {k: round(v, 9) for k, v in self.stats.items()},
            "params": self.params,
            "environment": self.environment,
        }
        if self.bytes_processed > 0:
            record["bytes_processed"] = self.bytes_processed
            throughput = self.throughput_mb_s
            if throughput is not None:
                record["throughput_mb_s"] = round(throughput, 3)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def result_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def run_benchmark(
    bench: BenchDef,
    repetitions: int = 5,
    warmup: int = 1,
    scale: str = "full",
    environment: Optional[Dict[str, Any]] = None,
) -> BenchResult:
    """Run one benchmark: per-repetition setup (untimed), timed thunk."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; known: {SCALES}")
    samples: List[float] = []
    params: Dict[str, Any] = {}
    bytes_processed = 0
    for iteration in range(warmup + repetitions):
        thunk, params, bytes_processed = bench.factory(scale)
        start = time.perf_counter()
        thunk()
        elapsed = time.perf_counter() - start
        if iteration >= warmup:
            samples.append(elapsed)
    return BenchResult(
        name=bench.name,
        title=bench.title,
        scale=scale,
        warmup=warmup,
        samples_s=samples,
        params=params,
        bytes_processed=bytes_processed,
        environment=(
            environment if environment is not None else environment_fingerprint()
        ),
    )


def run_suite(
    names: Optional[Sequence[str]] = None,
    repetitions: int = 5,
    warmup: int = 1,
    scale: str = "full",
    out_dir: Optional[str] = ".",
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run (a subset of) the suite and write ``BENCH_<name>.json`` files.

    Returns the results in suite order.  ``out_dir=None`` skips writing;
    a missing *out_dir* is created.
    """
    selected = list(SUITE)
    if names:
        unknown = sorted(set(names) - set(suite_names()))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {unknown}; known: {suite_names()}"
            )
        selected = [bench for bench in SUITE if bench.name in set(names)]
    environment = environment_fingerprint()
    results: List[BenchResult] = []
    for bench in selected:
        if progress is not None:
            progress(f"running {bench.name} ({repetitions} reps, {scale}) ...")
        result = run_benchmark(
            bench,
            repetitions=repetitions,
            warmup=warmup,
            scale=scale,
            environment=environment,
        )
        results.append(result)
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            path = Path(out_dir) / result_filename(bench.name)
            path.write_text(result.to_json(), encoding="utf-8")
            if progress is not None:
                progress(f"wrote {path}")
    return results
