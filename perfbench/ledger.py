"""Per-layer ledger of a traced run.

:func:`install` wraps the public functions of each layer (see
``perfbench/README.md`` for the mapping of each layer metric to the
end-to-end metric and workload it should move).  After the run,
:func:`layer_metrics` turns the recorded spans, the program's own public
counters (``LibraryStats``, ``CacheStats``, ``DataNode`` counters,
``MultiQueryReport``) and each simulator clock's ``log.aggregate()`` into
the per-layer metrics; :func:`reconcile` checks the wrapper counts against
those counters; :func:`render_table` prints the layer table.

Counts, milliseconds and megabytes cover the whole traced run: set-up
(building and archiving) as well as the timed operations.  Shares of wall
time use the timed operations only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.arrays.mdd import MDD
from repro.core import compression, scheduler
from repro.core.admission import AdmissionController
from repro.core.cache import DiskCache
from repro.core.export import TCTExporter
from repro.core.heaven import Heaven
from repro.core.units import SubReadResponse
from repro.service.assemble import ShadowObject
from repro.service.hashring import HashRing
from repro.service.node import DataNode
from repro.service.sn import ServiceNode
from repro.tertiary.library import TapeLibrary

from spans import Recorder, Span

MiB = float(1 << 20)

#: table rows, in pipeline order
LAYER_ORDER = (
    "service.sn",
    "arrays.index",
    "service.node",
    "core.units",
    "service.assemble",
    "core.admission",
    "core.heaven",
    "core.scheduler",
    "tertiary",
    "core.cache",
    "core.compression",
    "arrays.mdd",
    "core.export",
)

#: every per-layer metric with its unit, in report order
PER_LAYER = (
    ("arrays.index.lookup_calls", "count"),
    ("arrays.index.lookup_ms", "ms"),
    ("arrays.index.tiles_per_lookup", "tiles"),
    ("service.sn.shadow_builds", "count"),
    ("service.sn.shadow_build_ms", "ms"),
    ("service.sn.read_calls", "count"),
    ("service.sn.self_ms", "ms"),
    ("service.hashring.route_calls", "count"),
    ("service.hashring.route_ms", "ms"),
    ("service.sn.rejected", "count"),
    ("service.node.call_ms", "ms"),
    ("service.node.queue_wait_ms", "ms"),
    ("service.node.batches", "count"),
    ("service.node.units_per_batch", "units"),
    ("service.node.failed", "count"),
    ("core.units.encode_ms", "ms"),
    ("core.units.decode_ms", "ms"),
    ("core.units.wire_mb", "MiB"),
    ("core.units.wire_bytes_per_useful_byte", "B/B"),
    ("service.assemble.calls", "count"),
    ("service.assemble.self_ms", "ms"),
    ("service.assemble.mb", "MiB"),
    ("core.admission.runs", "count"),
    ("core.admission.self_ms", "ms"),
    ("core.admission.sweeps", "count"),
    ("core.admission.fused_segments", "count"),
    ("core.admission.fusion_saved_mb", "MiB"),
    ("core.admission.fusion_saved_exchanges", "count"),
    ("core.admission.holdback_s", "virtual_s"),
    ("core.admission.max_wait_s", "virtual_s"),
    ("core.heaven.read_self_ms", "ms"),
    ("core.heaven.update_calls", "count"),
    ("core.heaven.update_self_ms", "ms"),
    ("core.heaven.collect_needs_ms", "ms"),
    ("core.heaven.plan_ms", "ms"),
    ("core.heaven.stage_exec_ms", "ms"),
    ("core.heaven.tape_requests", "count"),
    ("core.heaven.restages", "count"),
    ("core.scheduler.order_ms", "ms"),
    ("core.scheduler.plan_parallel_ms", "ms"),
    ("core.scheduler.parallel_exec_ms", "ms"),
    ("core.scheduler.parallel_batches", "count"),
    ("tertiary.sim_ms", "ms"),
    ("tertiary.exchanges", "count"),
    ("tertiary.seeks", "count"),
    ("tertiary.read_mb", "MiB"),
    ("tertiary.written_mb", "MiB"),
    ("tertiary.exchange_s", "virtual_s"),
    ("tertiary.seek_s", "virtual_s"),
    ("tertiary.transfer_s", "virtual_s"),
    ("tertiary.robot_wait_s", "virtual_s"),
    ("core.cache.disk_read_ms", "ms"),
    ("core.cache.disk_hit_ratio", "ratio"),
    ("core.cache.disk_evictions", "count"),
    ("core.cache.disk_inserted_mb", "MiB"),
    ("core.cache.pin_evictions_blocked", "count"),
    ("core.cache.mem_hit_ratio", "ratio"),
    ("core.cache.mem_evictions", "count"),
    ("core.compression.decode_calls", "count"),
    ("core.compression.decode_ms", "ms"),
    ("core.compression.decode_mb", "MiB"),
    ("core.compression.encode_calls", "count"),
    ("core.compression.encode_ms", "ms"),
    ("core.compression.encode_mb", "MiB"),
    ("arrays.mdd.assemble_calls", "count"),
    ("arrays.mdd.assemble_self_ms", "ms"),
    ("arrays.mdd.assemble_mb", "MiB"),
    ("core.export.calls", "count"),
    ("core.export.ms", "ms"),
    ("core.export.mb", "MiB"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
)

#: event-log kinds charged by the tape library's devices
_TAPE_KINDS = {
    "exchange": "exchange_s",
    "load": "exchange_s",
    "seek": "seek_s",
    "rewind": "seek_s",
    "settle": "seek_s",
    "read": "transfer_s",
    "write": "transfer_s",
    "robot-wait": "robot_wait_s",
}


# ---------------------------------------------------------------------- notes


def _arg(args, kwargs, position: int, keyword: str):
    return kwargs[keyword] if keyword in kwargs else args[position]


def _qty_result_len(span: Span, args, kwargs, result) -> None:
    span.qty = len(result)


def _qty_result(attr: str):
    def note(span: Span, args, kwargs, result) -> None:
        span.qty = getattr(result, attr)

    return note


def _qty_arg(position: int, keyword: str):
    def note(span: Span, args, kwargs, result) -> None:
        span.qty = _arg(args, kwargs, position, keyword)

    return note


def _note_call(span: Span, args, kwargs, result) -> None:
    span.extra = _arg(args, kwargs, 1, "request").request_id


def _note_run_units(span: Span, args, kwargs, result) -> None:
    span.extra = tuple(unit.request_id for unit in _arg(args, kwargs, 1, "units"))


def _note_admission_run(span: Span, args, kwargs, result) -> None:
    report = result[1]
    span.extra = (
        report.sweeps,
        report.fused_segments,
        report.fusion_saved_bytes,
        report.fusion_saved_exchanges,
        report.holdback_seconds,
        report.max_wait_s,
    )


def install(recorder: Recorder) -> None:
    """Wrap every traced public function (undo with ``recorder.restore()``)."""
    w = recorder.wrap
    w(MDD, "tiles_for", "arrays.index", note=_qty_result_len)
    # A shadow object's constructor builds its tile index: that is the
    # build ServiceNode.shadow triggers on an object's first touch.
    w(ShadowObject, "__init__", "arrays.index", name="ShadowObject.build")
    w(ServiceNode, "read", "service.sn", note=_qty_result("bytes_useful"))
    w(HashRing, "node_for", "service.sn")
    w(DataNode, "call", "service.node", note=_note_call)
    w(SubReadResponse, "encode", "core.units", note=_qty_result_len)
    w(SubReadResponse, "decode", "core.units")
    w(ShadowObject, "assemble", "service.assemble", note=_qty_result("nbytes"))
    w(AdmissionController, "run", "core.admission", note=_note_admission_run)
    w(AdmissionController, "run_units", "core.admission", note=_note_run_units)
    w(Heaven, "read_with_report", "core.heaven")
    w(Heaven, "update", "core.heaven")
    w(Heaven, "collect_needs", "core.heaven")
    w(Heaven, "plan_requests", "core.heaven", note=_qty_result_len)
    w(Heaven, "execute_staging", "core.heaven")
    for cls in (scheduler.ElevatorScheduler, scheduler.FIFOScheduler):
        w(cls, "order", "core.scheduler", name="Scheduler.order")
    w(scheduler, "plan_parallel", "core.scheduler", name="plan_parallel")
    w(scheduler.ParallelExecutor, "execute", "core.scheduler")
    w(TapeLibrary, "mount", "tertiary", pre=_exchange_expected)
    w(TapeLibrary, "mount_on", "tertiary", pre=_exchange_expected)
    w(TapeLibrary, "read_extent", "tertiary", note=_qty_arg(3, "length"))
    w(TapeLibrary, "read_extent_on", "tertiary", note=_qty_arg(3, "length"))
    w(TapeLibrary, "write_segment", "tertiary", note=_qty_arg(2, "length"))
    w(DiskCache, "read", "core.cache", note=_qty_arg(3, "length"))
    for cls in (compression.NoneCodec, compression.ZlibCodec):
        w(cls, "compress", "core.compression", name="Codec.compress",
          note=lambda span, args, kwargs, result: setattr(span, "qty", len(_arg(args, kwargs, 1, "raw"))))
        w(cls, "decompress_view", "core.compression", name="Codec.decompress_view",
          note=_qty_arg(2, "expected_size"))
    w(MDD, "read", "arrays.mdd", note=_qty_result("nbytes"))
    w(TCTExporter, "export", "core.export", note=_qty_result("bytes_written"))


def _exchange_expected(args, kwargs) -> bool:
    """Whether a mount is about to exchange media (seen before the call).

    ``mount(medium)`` exchanges when the medium sits in no drive;
    ``mount_on(medium, drive)`` when it is not already in that drive.
    Recorded on the span, this count is independent of the robot's own
    exchange counter it is reconciled with.
    """
    library, medium_id = args[0], args[1]
    holder = library.mounted_drive(medium_id)
    if len(args) > 2 or "drive" in kwargs:
        return holder is not kwargs.get("drive", args[2] if len(args) > 2 else None)
    return holder is None


# ---------------------------------------------------------------------- metrics


def _sum_self(spans: Sequence[Span]) -> float:
    return sum(span.self_time for span in spans) * 1e3


def layer_metrics(
    recorder: Recorder,
    heavens: Sequence[Heaven],
    data_nodes: Sequence[DataNode],
) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see the module docstring)."""
    by = recorder.by_name()

    def get(name: str) -> List[Span]:
        return by.get(name, [])

    heavens = list({id(h): h for h in heavens}.values())
    out: Dict[str, float] = {}

    lookups = get("MDD.tiles_for")
    builds = get("ShadowObject.build")
    out["arrays.index.lookup_calls"] = len(lookups)
    out["arrays.index.lookup_ms"] = _sum_self(lookups)
    out["arrays.index.tiles_per_lookup"] = (
        sum(s.qty for s in lookups) / len(lookups) if lookups else 0.0
    )
    out["service.sn.shadow_builds"] = len(builds)
    out["service.sn.shadow_build_ms"] = sum(s.duration for s in builds) * 1e3

    reads = get("ServiceNode.read")
    routes = get("HashRing.node_for")
    out["service.sn.read_calls"] = len(reads)
    out["service.sn.self_ms"] = _sum_self(reads)
    out["service.hashring.route_calls"] = len(routes)
    out["service.hashring.route_ms"] = _sum_self(routes)
    out["service.sn.rejected"] = sum(
        1 for s in reads if s.error in ("AuthError", "QuotaExceededError")
    )

    calls = get("DataNode.call")
    batches = get("AdmissionController.run_units")
    batch_wall = {}
    for span in batches:
        for request_id in span.extra or ():
            batch_wall[request_id] = span.duration
    out["service.node.call_ms"] = sum(s.duration for s in calls) * 1e3
    out["service.node.queue_wait_ms"] = sum(
        max(0.0, s.duration - batch_wall.get(s.extra, 0.0)) for s in calls
    ) * 1e3
    node_batches = sum(node.batches for node in data_nodes)
    node_units = sum(node.requests_served + node.requests_failed for node in data_nodes)
    out["service.node.batches"] = node_batches
    out["service.node.units_per_batch"] = node_units / node_batches if node_batches else 0.0
    out["service.node.failed"] = sum(node.requests_failed for node in data_nodes)

    encodes = get("SubReadResponse.encode")
    useful = sum(s.qty for s in reads)
    wire = sum(s.qty for s in encodes)
    out["core.units.encode_ms"] = _sum_self(encodes)
    out["core.units.decode_ms"] = _sum_self(get("SubReadResponse.decode"))
    out["core.units.wire_mb"] = wire / MiB
    out["core.units.wire_bytes_per_useful_byte"] = wire / useful if useful else 0.0

    assembles = get("ShadowObject.assemble")
    out["service.assemble.calls"] = len(assembles)
    out["service.assemble.self_ms"] = _sum_self(assembles)
    out["service.assemble.mb"] = sum(s.qty for s in assembles) / MiB

    runs = get("AdmissionController.run")
    reports = [s.extra for s in runs if s.extra is not None]
    out["core.admission.runs"] = len(runs)
    out["core.admission.self_ms"] = _sum_self(runs) + _sum_self(batches)
    out["core.admission.sweeps"] = sum(r[0] for r in reports)
    out["core.admission.fused_segments"] = sum(r[1] for r in reports)
    out["core.admission.fusion_saved_mb"] = sum(r[2] for r in reports) / MiB
    out["core.admission.fusion_saved_exchanges"] = sum(r[3] for r in reports)
    out["core.admission.holdback_s"] = sum(r[4] for r in reports)
    out["core.admission.max_wait_s"] = max((r[5] for r in reports), default=0.0)

    updates = get("Heaven.update")
    out["core.heaven.read_self_ms"] = _sum_self(get("Heaven.read_with_report"))
    out["core.heaven.update_calls"] = len(updates)
    out["core.heaven.update_self_ms"] = _sum_self(updates)
    out["core.heaven.collect_needs_ms"] = _sum_self(get("Heaven.collect_needs"))
    out["core.heaven.plan_ms"] = _sum_self(get("Heaven.plan_requests"))
    out["core.heaven.stage_exec_ms"] = _sum_self(get("Heaven.execute_staging"))
    out["core.heaven.tape_requests"] = sum(s.qty for s in get("Heaven.plan_requests"))
    out["core.heaven.restages"] = sum(h.restages for h in heavens)

    executes = get("ParallelExecutor.execute")
    out["core.scheduler.order_ms"] = _sum_self(get("Scheduler.order"))
    out["core.scheduler.plan_parallel_ms"] = _sum_self(get("plan_parallel"))
    out["core.scheduler.parallel_exec_ms"] = _sum_self(executes)
    out["core.scheduler.parallel_batches"] = len(executes)

    tape_spans = [s for s in recorder.spans if s.layer == "tertiary"]
    out["tertiary.sim_ms"] = _sum_self(tape_spans)
    out["tertiary.exchanges"] = _wrapped_exchanges(recorder.spans)
    out["tertiary.seeks"] = sum(h.library.stats().seeks for h in heavens)
    out["tertiary.read_mb"] = _wrapped_bytes(recorder.spans, _READS) / MiB
    out["tertiary.written_mb"] = _wrapped_bytes(recorder.spans, _WRITES) / MiB
    virtual = virtual_by_kind(heavens)
    for key in ("exchange_s", "seek_s", "transfer_s", "robot_wait_s"):
        out[f"tertiary.{key}"] = virtual.get(key, 0.0)

    disk = _cache_stats([h.disk_cache.stats for h in heavens])
    memory = _cache_stats([h.memory_cache.stats for h in heavens])
    out["core.cache.disk_read_ms"] = _sum_self(get("DiskCache.read"))
    out["core.cache.disk_hit_ratio"] = disk["hits"] / disk["lookups"] if disk["lookups"] else 0.0
    out["core.cache.disk_evictions"] = disk["evictions"]
    out["core.cache.disk_inserted_mb"] = disk["bytes_inserted"] / MiB
    out["core.cache.pin_evictions_blocked"] = disk["pin_evictions_blocked"]
    out["core.cache.mem_hit_ratio"] = (
        memory["hits"] / memory["lookups"] if memory["lookups"] else 0.0
    )
    out["core.cache.mem_evictions"] = memory["evictions"]

    decodes = get("Codec.decompress_view")
    encodes_c = get("Codec.compress")
    out["core.compression.decode_calls"] = len(decodes)
    out["core.compression.decode_ms"] = _sum_self(decodes)
    out["core.compression.decode_mb"] = sum(s.qty for s in decodes) / MiB
    out["core.compression.encode_calls"] = len(encodes_c)
    out["core.compression.encode_ms"] = _sum_self(encodes_c)
    out["core.compression.encode_mb"] = sum(s.qty for s in encodes_c) / MiB

    mdd_reads = get("MDD.read")
    out["arrays.mdd.assemble_calls"] = len(mdd_reads)
    out["arrays.mdd.assemble_self_ms"] = _sum_self(mdd_reads)
    out["arrays.mdd.assemble_mb"] = sum(s.qty for s in mdd_reads) / MiB

    exports = get("TCTExporter.export")
    out["core.export.calls"] = len(exports)
    out["core.export.ms"] = _sum_self(exports)
    out["core.export.mb"] = sum(s.qty for s in exports) / MiB
    return out


_READS = ("TapeLibrary.read_extent", "TapeLibrary.read_extent_on")
_WRITES = ("TapeLibrary.write_segment",)


def _wrapped_bytes(spans: Sequence[Span], names: Tuple[str, ...]) -> int:
    return int(sum(s.qty for s in spans if s.name in names))


def _is_exchange(span: Span) -> bool:
    return span.extra is True and span.name in ("TapeLibrary.mount", "TapeLibrary.mount_on")


def _wrapped_exchanges(spans: Sequence[Span]) -> int:
    return sum(1 for s in spans if _is_exchange(s))


def _cache_stats(stats_list) -> Dict[str, int]:
    keys = ("lookups", "hits", "evictions", "bytes_inserted", "pin_evictions_blocked")
    return {key: sum(getattr(s, key) for s in stats_list) for key in keys}


def virtual_by_kind(heavens: Sequence[Heaven]) -> Dict[str, float]:
    """Virtual device seconds per tape cost class and per layer.

    Summed over every event of every simulator clock; with parallel
    drives the per-device seconds of overlapping timelines add up.
    """
    out: Dict[str, float] = {}
    for heaven in {id(h): h for h in heavens}.values():
        for kind, totals in heaven.clock.log.aggregate().items():
            tape_key = _TAPE_KINDS.get(kind)
            if tape_key is not None:
                out[tape_key] = out.get(tape_key, 0.0) + totals.seconds
                layer = "tertiary"
            elif kind in ("wait", "holdback"):
                layer = "core.admission"
            else:
                continue
            out[f"layer:{layer}"] = out.get(f"layer:{layer}", 0.0) + totals.seconds
        cache_device = heaven.disk_cache.disk.name
        cache_seconds = sum(
            event.duration for event in heaven.clock.log if event.device == cache_device
        )
        out["layer:core.cache"] = out.get("layer:core.cache", 0.0) + cache_seconds
    return out


# ---------------------------------------------------------------------- checks


def reconcile(
    recorder: Recorder,
    heavens: Sequence[Heaven],
    data_nodes: Sequence[DataNode],
    op_reports: Dict[str, Tuple[int, int]],
    service_tape_bytes: int,
) -> List[str]:
    """Wrapper counts vs the program's counters; returns the mismatches."""
    problems: List[str] = []
    heavens = list({id(h): h for h in heavens}.values())
    spans = recorder.spans
    stats = [h.library.stats() for h in heavens]

    def expect(label: str, seen, counted) -> None:
        if seen != counted:
            problems.append(f"{label}: wrappers saw {seen}, program counted {counted}")

    expect("tape bytes read", _wrapped_bytes(spans, _READS), sum(s.bytes_read for s in stats))
    expect("tape bytes written", _wrapped_bytes(spans, _WRITES), sum(s.bytes_written for s in stats))
    expect("media exchanges", _wrapped_exchanges(spans), sum(s.exchanges for s in stats))
    if data_nodes:
        wire = int(sum(s.qty for s in spans if s.name == "SubReadResponse.encode"))
        expect("wire bytes", wire, sum(node.wire_bytes for node in data_nodes))
        timed_reads = sum(
            s.qty for s in spans if s.name in _READS and s.phase == "timed"
        )
        expect("service tape bytes", int(timed_reads), service_tape_bytes)
    # Each operation's own report against the tape calls made on its behalf.
    by_request: Dict[str, Tuple[int, int]] = {}
    for span in spans:
        if span.request is None:
            continue
        if span.name in _READS:
            tape, exch = by_request.get(span.request, (0, 0))
            by_request[span.request] = (tape + int(span.qty), exch)
        elif _is_exchange(span):
            tape, exch = by_request.get(span.request, (0, 0))
            by_request[span.request] = (tape, exch + 1)
    mismatched = 0
    for request, (tape, exchanges) in op_reports.items():
        seen_tape, seen_exch = by_request.get(request, (0, 0))
        if (seen_tape, seen_exch) != (tape, exchanges):
            mismatched += 1
            if mismatched <= 3:
                problems.append(
                    f"op {request}: wrappers saw {seen_tape} B / {seen_exch} exchanges, "
                    f"report says {tape} B / {exchanges} exchanges"
                )
    if mismatched > 3:
        problems.append(f"... {mismatched} operations disagree with their reports")
    return problems


# ---------------------------------------------------------------------- table


def layer_rows(recorder: Recorder, heavens: Sequence[Heaven]) -> List[Dict[str, float]]:
    """Count, timed/setup self ms and virtual seconds for each layer."""
    rows = {
        layer: {"calls": 0, "timed_ms": 0.0, "setup_ms": 0.0} for layer in LAYER_ORDER
    }
    for span in recorder.spans:
        row = rows[span.layer]
        row["calls"] += 1
        row["timed_ms" if span.phase == "timed" else "setup_ms"] += span.self_time * 1e3
    virtual = virtual_by_kind(heavens)
    return [
        {"layer": layer, **rows[layer], "virtual_s": virtual.get(f"layer:{layer}", 0.0)}
        for layer in LAYER_ORDER
    ]


def render_table(
    rows: List[Dict[str, float]],
    timed_wall_s: float,
    unattributed_frac: float,
    overhead_frac: float,
) -> str:
    wall_ms = timed_wall_s * 1e3
    lines = [
        f"{'layer':<18}{'calls':>10}{'self ms':>12}{'share':>9}{'setup ms':>12}{'virtual s':>14}",
    ]
    for row in rows:
        share = row["timed_ms"] / wall_ms if wall_ms > 0 else 0.0
        lines.append(
            f"{row['layer']:<18}{row['calls']:>10d}{row['timed_ms']:>12.1f}"
            f"{share:>8.1%} {row['setup_ms']:>12.1f}{row['virtual_s']:>14.1f}"
        )
    lines.append(
        f"{'unattributed':<18}{'':>10}{unattributed_frac * wall_ms:>12.1f}{unattributed_frac:>8.1%}"
    )
    lines.append(f"{'trace overhead':<18}{'':>10}{'':>12}{overhead_frac:>8.1%}")
    lines.append(f"{'timed wall':<18}{'':>10}{wall_ms:>12.1f}{1.0:>8.1%}")
    return "\n".join(lines)
