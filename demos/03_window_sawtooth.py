"""Sending-window dynamics at a shared bottleneck.

Five long-lived sessions start at different window sizes and feed one
egress whose 100-unit receive pool is the only bottleneck.  Windows
double in slow start, then converge to a common sawtooth: additive growth
until the pool overflows, a single halving for the largest requester, and
so on.  Time-average windows end up nearly equal and the pool stays close
to fully reserved.
"""

from qdnsim import jain, run, steady_state_stats, utilization, window_series
from qdnsim.presets import MICRO_EGRESS_NODE, micro_tele_config

result = run(micro_tele_config(seed=0))

print("per-session window traces (every 10th slot):")
for sid in sorted(result.paths):
    series = window_series(result, sid)
    line = " ".join(f"{w:3d}" for w in series[::10])
    print(f"  session {sid}: {line}")

means = []
for sid in sorted(result.paths):
    series = window_series(result, sid)[:100]
    means.append(sum(series) / len(series))
print(f"\nmean windows over the first 100 slots: "
      f"{[round(m, 1) for m in means]}")
print(f"Jain fairness index: {jain(means):.4f}")

stats = steady_state_stats([float(w) for w in window_series(result, 0)],
                           warmup=50)
print(f"\nsession 0 steady state: min={stats.minimum:.0f} "
      f"max={stats.maximum:.0f} mean={stats.mean:.1f} "
      f"sawtooth period~{stats.period:.0f} slots")

series = utilization(result, MICRO_EGRESS_NODE, "receive")
print(f"egress receive-pool utilization after slot 10: "
      f"min={min(series[10:]):.3f} mean={sum(series[10:]) / len(series[10:]):.3f}")
