"""Which qdnsim functions the traced run wraps, and the per-layer metrics
computed from its spans and counts.  ``NOTES.md`` maps each metric to the
end-to-end metric it should move and the workloads that exercise it."""

from __future__ import annotations

from qdnsim import cli, engine, memory, metrics, routing, tag, tele, topology

#: Module-level functions timed as spans, named ``<module>.<function>``.
FUNCTIONS = [
    (topology, "generate_waxman"),
    (routing, "compute_path"),
    (tele, "reserve_teleport"),
    (tele, "reserve_explicit"),
    (tele, "reserve_fair"),
    (tele, "release_surplus"),
    (tag, "plan_transfers"),
    (tag, "advance"),
    (engine, "reserve_sharing"),
    (metrics, "utilization"),
    (metrics, "effective_window"),
    (metrics, "window_series"),
    (metrics, "steady_state_stats"),
    (metrics, "jain"),
]


def _span_name(module, attr: str) -> str:
    return f"{module.__name__.removeprefix('qdnsim.')}.{attr}"


#: Methods timed as spans: (class, method, span name).
METHODS = [
    (memory.MemoryPool, "reserve", "memory.MemoryPool"),
    (memory.MemoryPool, "require", "memory.MemoryPool"),
    (memory.MemoryPool, "release", "memory.MemoryPool"),
    (engine.Engine, "step", "engine.Engine.step"),
    (engine.Engine, "run", "engine.Engine.run"),
]

#: Methods and properties whose calls are only counted.
COUNTED = [
    (memory.Demand, "cost", "memory.Demand.cost"),
    (tele.TeleSession, "transfer", "tele.TeleSession.transfer"),
    (tag.HopSession, "stored_firsts", "tag.HopSession.stored_firsts"),
    (tag.HopSession, "encode_next", "tag.HopSession.encode_next"),
]

#: Span names reported with both ``.calls`` and ``.self_s``.
TIMED = [_span_name(module, attr) for module, attr in FUNCTIONS
         if attr != "generate_waxman"] + [
    "memory.assign_memory",
    "tag.ChannelModel.sample",
    "engine.Engine.step",
]


def install(tracer) -> None:
    """Wrap every probe point; ``tracer.restore()`` undoes it."""
    for module, attr in FUNCTIONS:
        tracer.patch_function(
            module, attr,
            lambda fn, n=_span_name(module, attr): tracer.span(n, fn))
    for cls, attr, name in METHODS:
        tracer.patch_method(cls, attr, lambda fn, n=name: tracer.span(n, fn))
    for cls, attr, name in COUNTED:
        tracer.patch_method(cls, attr, lambda fn, n=name: tracer.counted(n, fn))
    tracer.patch_function(memory, "assign_memory",
                          lambda fn: _count_demands(tracer, fn))
    tracer.patch_method(tag.ChannelModel, "sample",
                        lambda fn: _count_successes(tracer, fn))
    tracer.patch_function(cli, "_write_csv",
                          lambda fn: tracer.span("cli.emit.tabular", fn))
    tracer.patch_function(cli, "_write_records",
                          lambda fn: tracer.span("cli.emit.records", fn))


def _count_demands(tracer, fn):
    timed = tracer.span("memory.assign_memory", fn)
    counts = tracer.counts

    def assign_memory(demands, *args, **kwargs):
        grants = timed(demands, *args, **kwargs)
        counts["memory.assign_memory.demands"] += len(demands)
        counts["memory.assign_memory.halved"] += sum(
            1 for grant in grants.values() if grant.congested)
        return grants

    return assign_memory


def _count_successes(tracer, fn):
    timed = tracer.span("tag.ChannelModel.sample", fn)
    counts = tracer.counts

    def sample(*args, **kwargs):
        success = timed(*args, **kwargs)
        if success:
            counts["tag.ChannelModel.sample.successes"] += 1
        return success

    return sample


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, session_rows: int, pool_rows: int,
                  emit_bytes: int, overhead_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    out = {"topology.generate_waxman.self_s":
           (self_s("topology.generate_waxman"), "s")}
    for name in TIMED:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    demands = counts["memory.assign_memory.demands"]
    samples = calls("tag.ChannelModel.sample")
    out.update({
        "memory.assign_memory.demands": (demands, "count"),
        "memory.assign_memory.halved_ratio": (
            _ratio(counts["memory.assign_memory.halved"], demands), "ratio"),
        "memory.MemoryPool.ops": (calls("memory.MemoryPool"), "count"),
        "memory.MemoryPool.self_s": (self_s("memory.MemoryPool"), "s"),
        "tag.channel.success_ratio": (
            _ratio(counts["tag.ChannelModel.sample.successes"], samples),
            "ratio"),
        "engine.summarize_s": (
            total_s("engine.Engine.run") - total_s("engine.Engine.step"), "s"),
        "engine.session_rows": (session_rows, "count"),
        "engine.pool_rows": (pool_rows, "count"),
        "cli.emit.tabular.self_s": (self_s("cli.emit.tabular"), "s"),
        "cli.emit.records.self_s": (self_s("cli.emit.records"), "s"),
        "cli.emit.bytes": (emit_bytes, "bytes"),
        "tracing.overhead_s": (overhead_s, "s"),
    })
    for _, _, name in COUNTED:
        out[f"{name}.calls"] = (counts[name], "count")
    return out
