"""Experiment presets: canned configuration sweeps with summary tables.

Each preset is a pure generator of run configurations, a reduction of a
finished run to one flat row (its label as ``run``, the fields its builder
knows and a few numbers), and a summarizer that combines the rows into flat
tables, one per output file.  A run is dropped once reduced, so a preset
holds about one run's trace at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .engine import Protocol, RunConfig, RunResult, SessionSpec, WaxmanSpec
from .errors import ConfigError
from .metrics import idle_fraction, jain, utilization, window_series
from .topology import INFRA_KIND, NetworkKind, Node, NodeKind, Topology

MICRO_SESSIONS = 5
#: The egress host of the many-to-one micro topologies.
MICRO_EGRESS_NODE = MICRO_SESSIONS + 1
MICRO_RECEIVE_POOL = 100
MICRO_SLOTS = 200
MICRO_TELE_WINDOWS = [1, 4, 8, 16, 24]

SWEEP_SLOTS = 200
SWEEP_SESSIONS = 100
SWEEP_INFRA = 50
# Strongly geometric graphs (short-range edges) reproduce the contention
# heterogeneity the wide-area comparisons depend on; degree stays at 4.
SWEEP_ALPHA = 0.06
NET_SIZES = [40, 50, 60, 70]
WORKLOADS = [150, 200, 250]
PROB_GRID = [0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00]
TRADEOFF_P = 0.65
RATIO_GRID = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]

TELE_PROTOCOLS = [Protocol.TELE, Protocol.EW, Protocol.FRA]


@dataclass(frozen=True)
class PresetRun:
    label: str
    config: RunConfig
    #: Row fields the builder knows, such as the swept axis's value.
    key: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Preset:
    name: str
    build: Callable[[list[int]], list[PresetRun]]
    reduce: Callable[[RunResult], dict]
    summarize: Callable[[list[dict]], dict[str, list[dict]]]

    def row(self, run: PresetRun, result: RunResult) -> dict:
        """``run``'s label, key and reduction, in that column order."""
        return {"run": run.label, **run.key, **self.reduce(result)}


def many_to_one_topology(
    n_ingress: int,
    network: NetworkKind,
    ingress_capacity: int,
    hub_capacity: int,
    egress_capacity: int,
) -> Topology:
    """n ingress hosts feeding one egress host through a single hub."""
    hub_kind = INFRA_KIND[network]
    if hub_kind is NodeKind.SWITCH:
        hub_capacity = 0
    nodes = [Node(0, hub_kind, 0.0, 0.0, hub_capacity)]
    edges = []
    for i in range(1, n_ingress + 1):
        nodes.append(Node(i, NodeKind.HOST, float(i), 0.0, ingress_capacity))
        edges.append((0, i))
    egress = n_ingress + 1
    nodes.append(Node(egress, NodeKind.HOST, 0.0, 1.0, egress_capacity))
    edges.append((0, egress))
    return Topology(network, nodes, edges)


def micro_tele_config(seed: int) -> RunConfig:
    """Five long-lived sessions, staggered initial windows, one egress
    whose 100-unit receive pool is the only bottleneck."""
    topology = many_to_one_topology(
        MICRO_SESSIONS, NetworkKind.TELE,
        ingress_capacity=30_000, hub_capacity=100_000,
        egress_capacity=3 * MICRO_RECEIVE_POOL,
    )
    sessions = [
        SessionSpec(src=i + 1, dst=MICRO_EGRESS_NODE, initial_window=w)
        for i, w in enumerate(MICRO_TELE_WINDOWS)
    ]
    return RunConfig(
        seed=seed, protocol=Protocol.TELE, network=NetworkKind.TELE,
        topology=topology, sessions=sessions, n_slots=MICRO_SLOTS,
    )


def micro_tag_config(seed: int) -> RunConfig:
    """Same many-to-one shape on an all-optical switch network: one hop
    per session, every window starting from 2 in slow start."""
    # 9/13 of 325 leaves exactly 100 receive units at the egress host.
    topology = many_to_one_topology(
        MICRO_SESSIONS, NetworkKind.TAG_SWITCH,
        ingress_capacity=13_000, hub_capacity=0,
        egress_capacity=325,
    )
    sessions = [SessionSpec(src=i + 1, dst=MICRO_EGRESS_NODE)
                for i in range(MICRO_SESSIONS)]
    return RunConfig(
        seed=seed, protocol=Protocol.TAG, network=NetworkKind.TAG_SWITCH,
        topology=topology, sessions=sessions, n_slots=MICRO_SLOTS, p=1.0,
    )


def _sweep_config(seed, protocol, n_infra, n_sessions, p=1.0):
    network = (
        NetworkKind.TAG_RELAY if protocol is Protocol.TAG else NetworkKind.TELE
    )
    return RunConfig(
        seed=seed, protocol=protocol, network=network,
        topology=WaxmanSpec(n_infra=n_infra, alpha=SWEEP_ALPHA),
        sessions=n_sessions, n_slots=SWEEP_SLOTS, p=p,
    )


def _switch_config(seed, p, n_infra=SWEEP_INFRA, n_sessions=SWEEP_SESSIONS):
    return RunConfig(
        seed=seed, protocol=Protocol.TAG, network=NetworkKind.TAG_SWITCH,
        topology=WaxmanSpec(n_infra=n_infra, alpha=SWEEP_ALPHA),
        sessions=n_sessions, n_slots=SWEEP_SLOTS, p=p,
    )


# -- appendix-style micro benchmark -------------------------------------


def _build_micro(seeds: list[int]) -> list[PresetRun]:
    runs = []
    for seed in seeds:
        runs.append(PresetRun(f"tele_seed{seed}", micro_tele_config(seed)))
        runs.append(PresetRun(f"tag_seed{seed}", micro_tag_config(seed)))
    return runs


def micro_metrics(result: RunResult) -> dict:
    """Fairness, utilization, and idle metrics for one many-to-one run."""
    means = []
    for sid in sorted(result.paths):
        series = window_series(result, sid)[:100]
        means.append(sum(series) / len(series))
    series = utilization(result, MICRO_EGRESS_NODE, "receive")
    return {
        "jain_first_100": jain(means),
        "min_utilization_after_10": min(series[10:]),
        "max_idle_after_10": idle_fraction(
            result, MICRO_EGRESS_NODE, "receive", 10),
        "mean_windows": means,
    }


def _micro_row(result: RunResult) -> dict:
    metrics = micro_metrics(result)
    del metrics["mean_windows"]
    return {"protocol": result.protocol, "seed": result.seed, **metrics,
            "delivered_total": result.summary["delivered_total"]}


# -- wide-area sweeps ----------------------------------------------------


def _build_sweep(seeds: list[int], prefix: str, axis_name: str,
                 values: list[int]) -> list[PresetRun]:
    """Every protocol at every seed for each value of one size axis of
    ``_sweep_config`` (``n_infra`` or ``n_sessions``)."""
    runs = []
    for value in values:
        sizes = {"n_infra": SWEEP_INFRA, "n_sessions": SWEEP_SESSIONS,
                 axis_name: value}
        for protocol in TELE_PROTOCOLS + [Protocol.TAG]:
            for seed in seeds:
                runs.append(PresetRun(
                    f"{prefix}{value}_{protocol.value}_seed{seed}",
                    _sweep_config(seed, protocol, **sizes),
                    {axis_name: value},
                ))
    return runs


def _totals_row(result: RunResult) -> dict:
    return {"protocol": result.protocol, "seed": result.seed,
            **{name: result.summary[name] for name in (
                "delivered_total", "throughput_per_slot", "jain_mean_window")}}


def _sweep_rows(rows: list[dict], axis_name: str) -> dict[str, list[dict]]:
    rows = sorted(rows, key=itemgetter(axis_name, "protocol", "seed"))
    means: dict[tuple, list[int]] = {}
    for row in rows:
        means.setdefault((row[axis_name], row["protocol"]), []).append(
            row["delivered_total"])
    return {"runs": rows, "means": [
        {axis_name: axis, "protocol": protocol, "seeds": len(values),
         "mean_delivered": sum(values) / len(values)}
        for (axis, protocol), values in sorted(means.items())]}


# -- teleportation vs switched tell-and-go tradeoffs ---------------------


def _tele_runs(seeds: list[int]) -> list[PresetRun]:
    return [
        PresetRun(f"tele_seed{seed}",
                  _sweep_config(seed, Protocol.TELE, SWEEP_INFRA, SWEEP_SESSIONS))
        for seed in seeds
    ]


def _mean_delivered(rows: list[dict], **match) -> float:
    """Mean delivered total over the rows whose fields hold ``match``."""
    totals = [row["delivered_total"] for row in rows
              if match.items() <= row.items()]
    return sum(totals) / len(totals)


def _build_tradeoff_prob(seeds: list[int]) -> list[PresetRun]:
    runs = _tele_runs(seeds)
    for p in PROB_GRID:
        for seed in seeds:
            runs.append(PresetRun(
                f"tag_p{int(round(p * 100)):03d}_seed{seed}",
                _switch_config(seed, p), {"p": p},
            ))
    return runs


def interpolate_crossover(xs: list[float], gaps: list[float]) -> float | None:
    """First x where the gap series crosses zero (linear interpolation)."""
    for (x0, g0), (x1, g1) in zip(zip(xs, gaps), zip(xs[1:], gaps[1:])):
        if g0 == 0:
            return x0
        if g0 < 0 <= g1:
            return x0 + (x1 - x0) * (-g0) / (g1 - g0)
    if gaps and gaps[-1] == 0:
        return xs[-1]
    return None


def _tradeoff_tables(rows: list[dict], axis: str, metric: str,
                     column: str) -> dict[str, list[dict]]:
    """The curve rows plus one record of where their ``gap`` first crosses
    zero along ``axis``; NaN when it never does."""
    crossover = interpolate_crossover([row[axis] for row in rows],
                                      [row["gap"] for row in rows])
    return {
        "curve": rows,
        "crossover": [{
            "metric": metric,
            column: crossover if crossover is not None else float("nan"),
        }],
    }


def _summarize_tradeoff_prob(runs: list[dict]) -> dict[str, list[dict]]:
    tele_mean = _mean_delivered(runs, protocol=Protocol.TELE.value)
    rows = []
    for p in PROB_GRID:
        tag_mean = _mean_delivered(runs, protocol=Protocol.TAG.value, p=p)
        rows.append({
            "p": p,
            "tag_mean_delivered": tag_mean,
            "tele_mean_delivered": tele_mean,
            "gap": tag_mean - tele_mean,
        })
    return _tradeoff_tables(rows, "p", "equal_throughput_probability",
                            "crossover_p")


def _build_tradeoff_slot(seeds: list[int]) -> list[PresetRun]:
    return _tele_runs(seeds) + [
        PresetRun(f"tag_seed{seed}", _switch_config(seed, TRADEOFF_P))
        for seed in seeds
    ]


def _summarize_tradeoff_slot(runs: list[dict]) -> dict[str, list[dict]]:
    tele_mean = _mean_delivered(runs, protocol=Protocol.TELE.value)
    tag_mean = _mean_delivered(runs, protocol=Protocol.TAG.value)
    rows = []
    for ratio in RATIO_GRID:
        # Teleportation slots are `ratio` times longer; throughputs are
        # compared per abstract time unit.
        tele_rate = tele_mean / (SWEEP_SLOTS * ratio)
        tag_rate = tag_mean / SWEEP_SLOTS
        rows.append({
            "slot_length_ratio": ratio,
            "tele_per_time": tele_rate,
            "tag_per_time": tag_rate,
            "gap": tag_rate - tele_rate,
        })
    return _tradeoff_tables(rows, "slot_length_ratio",
                            "equal_throughput_slot_ratio", "crossover_ratio")


PRESETS: dict[str, Preset] = {
    "appendix_e": Preset("appendix_e", _build_micro, _micro_row,
                         lambda rows: {"summary": sorted(
                             rows, key=itemgetter("protocol", "seed"))}),
    "net_size_sweep": Preset(
        "net_size_sweep",
        lambda seeds: _build_sweep(seeds, "n", "n_infra", NET_SIZES),
        _totals_row, lambda rows: _sweep_rows(rows, "n_infra"),
    ),
    "workload_sweep": Preset(
        "workload_sweep",
        lambda seeds: _build_sweep(seeds, "s", "n_sessions", WORKLOADS),
        _totals_row, lambda rows: _sweep_rows(rows, "n_sessions"),
    ),
    "tradeoff_prob": Preset("tradeoff_prob", _build_tradeoff_prob,
                            _totals_row, _summarize_tradeoff_prob),
    "tradeoff_slot": Preset("tradeoff_slot", _build_tradeoff_slot,
                            _totals_row, _summarize_tradeoff_slot),
}


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        )
    return PRESETS[name]
