"""End-to-end benchmark of the HEAVEN reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload NAME --seed N --check-determinism

``NAME`` is ``archive_cold_read``, ``service_warm_read``,
``fused_read_update`` or ``all``.  The program is imported from ``src/``
of the same checkout; without it the benchmark exits with code 2 and
prints no result.

``--trace 0`` sets the system up several times (``setup_s`` is the
median) and runs timed passes of operations after each set-up: all of the
workload's fixed passes after the first (the virtual metrics come from
these), its leading wall passes after the others, and further set-ups
while ``--seconds`` of timed work have not elapsed.  Every operation of
the wall passes is thus timed on several fresh set-ups spread over the
run, and the host-wall metrics take each operation at its fastest
repetition, which keeps bursts of load from other tenants of a shared
host out of the figures.  Every repetition must see the same virtual
latency for every read.
``--trace 1`` first runs the passes untraced (``--seconds / 2``), then
sets up again with every layer's public functions wrapped
(``ledger.install``), repeats exactly those passes, and reports the
per-layer ledger; the ratio of the two timed walls is
``trace.overhead_frac``.  Spans and the ledger are
written to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any operation failed, returned cells that differ from the
mirror, left a Heaven non-quiescent, or (traced) when the wrapper counts
disagree with the program's own counters.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: samples beyond the reported percentile each run must have
TAIL_SAMPLES = 10

Metrics = Dict[str, Tuple[float, str]]

#: end-to-end metrics computed on the simulator's clock (same seed, same value)
VIRTUAL_METRICS = (
    "read_virtual_s_p50",
    "read_virtual_s_p95",
    "virtual_qps",
    "exchanges_per_read",
    "tape_read_amplification",
)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (rank - lower)


def enough(samples) -> bool:
    """At least TAIL_SAMPLES reads beyond p95 and writes beyond p90."""
    if len(samples.read_wall_s) * 0.05 < TAIL_SAMPLES:
        return False
    return not samples.write_wall_s or len(samples.write_wall_s) * 0.10 >= TAIL_SAMPLES


@contextmanager
def frozen_heap():
    """Keep the objects that exist now out of the collector's scans.

    The set-up builds a large, static heap (the archive, several Heavens
    in the service cluster).  Left in the collector's oldest generation,
    every full collection the timed work triggers scans all of it in one
    pause of a quarter of a second, which lands on whichever reads are in
    flight and decides the service's tail latency.  Frozen, as a
    long-running Python service freezes its start-up heap, collections
    scan only the objects the timed work itself created.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def measure(workload, samples, seconds: Optional[float], passes: Optional[int] = None) -> float:
    """Run passes for *seconds* (or exactly *passes*); returns the timed wall.

    The timed wall excludes the benchmark's own result checks.
    """
    began = perf_counter()
    index = 0
    while True:
        workload.run_pass(index, samples)
        index += 1
        if index == workload.FIXED_PASSES:
            # The high-water mark after a fixed amount of work: later
            # passes only fill the time, and their count depends on the host.
            samples.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if passes is not None:
            if index >= passes:
                break
        elif (
            index >= workload.FIXED_PASSES
            and perf_counter() - began >= seconds
            and enough(samples)
        ):
            break
    samples.passes = index
    return perf_counter() - began - samples.verify_s


def final_quiescence(workload, samples) -> None:
    for heaven in workload.heavens:
        try:
            heaven.assert_quiescent()
        except Exception as exc:  # HeavenError: reported as a failed run
            samples.fail(f"after the run: {exc}")


def end_to_end(
    first,
    reads: Dict[str, float],
    writes: Dict[str, float],
    ops: int,
    ops_wall: float,
    setup_times: List[float],
) -> Tuple[Metrics, Metrics]:
    """(metrics of every workload, extra metrics printed for the user).

    *first* holds the virtual figures; *reads* and *writes* the host wall
    per operation, and *ops* operations completed in *ops_wall* seconds.
    """
    read_walls = list(reads.values())
    virtual = list(first.read_virtual_s.values())
    metrics: Metrics = {
        "read_wall_ms_p50": (percentile(read_walls, 50) * 1e3, "ms"),
        "read_wall_ms_p95": (percentile(read_walls, 95) * 1e3, "ms"),
        "ops_per_s": (ops / ops_wall, "1/s"),
        "read_virtual_s_p50": (percentile(virtual, 50), "virtual_s"),
        "read_virtual_s_p95": (percentile(virtual, 95), "virtual_s"),
        "virtual_qps": (first.virtual_reads / first.virtual_span_s, "1/virtual_s"),
        "exchanges_per_read": (first.exchanges / first.virtual_reads, "count"),
        "tape_read_amplification": (first.tape_read_bytes / first.useful_bytes, "B/B"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (first.peak_rss_mb, "MiB"),
    }
    extra: Metrics = {
        "reads": (float(len(read_walls)), "count"),
        "passes": (float(first.passes), "count"),
    }
    if writes:
        write_walls = list(writes.values())
        extra["write_wall_ms_p50"] = (percentile(write_walls, 50) * 1e3, "ms")
        extra["write_wall_ms_p90"] = (percentile(write_walls, 90) * 1e3, "ms")
        extra["tape_write_amplification"] = (
            first.tape_written_bytes / first.updated_bytes, "B/B"
        )
        extra["writes"] = (float(len(write_walls)), "count")
    return metrics, extra


def print_metrics(title: str, metrics: Metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28}{value:>16.6g} {unit}")


def timed_pass(workload, index: int, samples) -> Tuple[float, int]:
    """Run one pass: (host wall without the result checks, ops completed)."""
    checks, completed = samples.verify_s, samples.attempted - samples.failed
    began = perf_counter()
    workload.run_pass(index, samples)
    wall = perf_counter() - began - (samples.verify_s - checks)
    return wall, samples.attempted - samples.failed - completed


def fastest(maps: List[Dict[str, float]]) -> Dict[str, float]:
    """Each operation timed in every map, at its smallest value."""
    common = set(maps[0]).intersection(*maps[1:])
    return {key: min(m[key] for m in maps) for key in common}


def run_untraced(workload, seconds: float) -> dict:
    from workloads import Samples

    # (samples, [(wall, completed) per pass]) of every set-up
    reps: List[Tuple[Samples, List[Tuple[float, int]]]] = []
    setup_times = []
    timed = 0.0
    while len(reps) < workload.SETUPS or timed < seconds:
        workload.teardown()
        gc.collect()
        began = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - began)
        samples = Samples()
        passes = workload.WALL_PASSES if reps else workload.FIXED_PASSES
        with frozen_heap():
            walls = [timed_pass(workload, index, samples) for index in range(passes)]
        samples.passes = passes
        if not reps:
            samples.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        final_quiescence(workload, samples)
        timed += sum(wall for wall, _ in walls)
        reps.append((samples, walls))

    first = reps[0][0]
    problems = [
        f"{request}: virtual latency {value!r} on set-up {number}, "
        f"{first.read_virtual_s.get(request)!r} on the first"
        for number, (samples, _) in enumerate(reps[1:], 1)
        for request, value in samples.read_virtual_s.items()
        if first.read_virtual_s.get(request) != value
    ]
    reads = fastest([samples.read_wall_s for samples, _ in reps])
    writes = fastest([samples.write_wall_s for samples, _ in reps])
    head = workload.WALL_PASSES
    ops = sum(completed for _, completed in reps[0][1][:head])
    ops_wall = sum(min(walls[index][0] for _, walls in reps) for index in range(head))
    if len(reads) * 0.05 < TAIL_SAMPLES or (writes and len(writes) * 0.10 < TAIL_SAMPLES):
        raise RuntimeError(f"{workload.name}: too few operations in its wall passes")
    metrics, extra = end_to_end(first, reads, writes, ops, ops_wall, setup_times)
    attempted = sum(samples.attempted for samples, _ in reps)
    failed = sum(samples.failed for samples, _ in reps)
    extra["failed_ops_frac"] = (failed / max(1, attempted), "fraction")
    extra["set_ups"] = (float(len(reps)), "count")
    print_metrics(f"{workload.name}: end-to-end (untraced, {timed:.2f} s timed)", metrics)
    print_metrics(f"{workload.name}: also measured", extra)
    for samples, _ in reps:
        for failure in samples.failures:
            print(f"  FAILED {failure}")
    for problem in problems[:20]:
        print(f"  NONDETERMINISTIC {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_traced(workload, seconds: float, seed: int) -> dict:
    import ledger
    from spans import Recorder
    from workloads import Samples

    # The first set-up of a process warms the allocator; both measured
    # runs below start after at least one set-up was torn down, as the
    # untraced run's do.
    workload.setup()
    workload.teardown()
    gc.collect()
    workload.setup()
    reference = Samples()
    with frozen_heap():
        reference_wall = measure(workload, reference, seconds / 2)
    final_quiescence(workload, reference)
    workload.teardown()
    gc.collect()

    recorder = Recorder()
    ledger.install(recorder)
    samples = Samples()
    try:
        recorder.phase = "setup"
        workload.setup()
        recorder.phase = "timed"
        with frozen_heap():
            traced_wall = measure(workload, samples, None, passes=reference.passes)
    finally:
        recorder.restore()
    final_quiescence(workload, samples)

    heavens, nodes = workload.heavens, workload.data_nodes()
    values = ledger.layer_metrics(recorder, heavens, nodes)
    attributed = sum(s.self_time for s in recorder.spans if s.phase == "timed")
    values["trace.unattributed_frac"] = max(0.0, 1.0 - attributed / traced_wall)
    values["trace.overhead_frac"] = traced_wall / reference_wall - 1.0
    problems = ledger.reconcile(
        recorder, heavens, nodes, samples.op_reports, samples.service_tape_bytes
    )
    rows = ledger.layer_rows(recorder, heavens)
    print(f"{workload.name}: per-layer ledger (traced, {samples.passes} passes)")
    print(ledger.render_table(
        rows, traced_wall, values["trace.unattributed_frac"], values["trace.overhead_frac"]
    ))
    setup_encodes = sum(
        1 for s in recorder.spans if s.name == "Codec.compress" and s.phase == "setup"
    )
    archived_tiles = sum(
        heaven.archived(name).mdd.tile_count()
        for heaven in {id(h): h for h in heavens}.values()
        for name in workload.names
    )
    if archived_tiles:
        print(f"  set-up: {setup_encodes} Codec.compress calls for {archived_tiles} archived tiles")
    for problem in problems:
        print(f"  RECONCILE {problem}")
    for failure in reference.failures + samples.failures:
        print(f"  FAILED {failure}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{seed}"
    recorder.dump(f"{stem}-spans.jsonl")
    with open(f"{stem}-ledger.json", "w", encoding="utf-8") as handle:
        json.dump({"layers": rows, "metrics": values, "reconcile": problems}, handle, indent=2)

    failed = reference.failed + samples.failed
    return {
        "correct": failed == 0 and not problems,
        "attempted": reference.attempted + samples.attempted,
        "failed": failed,
        "metrics": {name: (values[name], unit) for name, unit in ledger.PER_LAYER},
    }


def check_determinism(workload) -> dict:
    """Run the fixed passes on two fresh set-ups; every virtual metric must agree."""
    from workloads import Samples

    figures = []
    for _ in range(2):
        workload.teardown()
        workload.setup()
        samples = Samples()
        for index in range(workload.FIXED_PASSES):
            workload.run_pass(index, samples)
        metrics, _extra = end_to_end(
            samples, samples.read_wall_s, samples.write_wall_s, 1, 1.0, [0.0]
        )
        figure = {name: metrics[name][0] for name in VIRTUAL_METRICS}
        if samples.updated_bytes:
            figure["tape_write_amplification"] = samples.tape_written_bytes / samples.updated_bytes
        figures.append(figure)
    same = figures[0] == figures[1]
    for name, value in figures[0].items():
        print(f"  {name:<28}{value!r:>24} {'==' if value == figures[1][name] else '!='} {figures[1][name]!r}")
    return {"correct": same, "attempted": 2, "failed": 0 if same else 1, "metrics": {}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: {sorted(WORKLOADS)} or all")

    results = {}
    for name in names:
        workload = WORKLOADS[name](args.seed)
        if args.check_determinism:
            results[name] = check_determinism(workload)
        elif args.trace:
            results[name] = run_traced(workload, args.seconds, args.seed)
        else:
            results[name] = run_untraced(workload, args.seconds)
        workload.teardown()

    prefix = len(names) > 1
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, result in results.items()
            for metric, (value, unit) in result["metrics"].items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
