"""Acceptance suite: one test per exit criterion, at stated tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
failure report).  The heavier sweep runs are cached at module level so
related criteria share them.
"""

import random
import time

import pytest

from qdnsim.engine import (
    Protocol,
    RunConfig,
    SessionSpec,
    WaxmanSpec,
    run,
)
from qdnsim.metrics import window_series
from qdnsim.presets import (
    PROB_GRID,
    _sweep_config,
    _switch_config,
    interpolate_crossover,
    micro_metrics,
    micro_tag_config,
    micro_tele_config,
    many_to_one_topology,
)
from qdnsim.rng import stream
from qdnsim.tag import HopSession, SharingTransfer, Stage, advance, plan_transfers
from qdnsim.topology import NetworkKind

SEEDS = [1, 2, 3, 4, 5]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- shared sweep runs ---------------------------------------------------

_cache: dict = {}


def sweep_total(protocol: Protocol, seed: int) -> int:
    key = (protocol, seed)
    if key not in _cache:
        cfg = _sweep_config(seed=seed, protocol=protocol, n_infra=50,
                            n_sessions=100)
        _cache[key] = run(cfg).summary["delivered_total"]
    return _cache[key]


def switch_total(p: float, seed: int) -> int:
    key = ("switch", p, seed)
    if key not in _cache:
        _cache[key] = run(_switch_config(seed=seed, p=p)).summary[
            "delivered_total"
        ]
    return _cache[key]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


# -- criterion 1: many-to-one micro benchmark ----------------------------


@pytest.fixture(scope="module")
def runs():
    started = time.monotonic()
    tele = run(micro_tele_config(seed=0))
    tag = run(micro_tag_config(seed=0))
    elapsed = time.monotonic() - started
    return tele, tag, elapsed


class TestCriterion1AppendixReplication:
    N, C = 5, 100

    def test_runtime_under_five_seconds(self, runs):
        _, _, elapsed = runs
        report("1 runtime", elapsed < 5.0, f"{elapsed:.2f}s for both runs")

    def test_1a_tele_fairness(self, runs):
        tele, _, _ = runs
        value = micro_metrics(tele)["jain_first_100"]
        report("1a tele Jain >= 0.97", value >= 0.97, f"J={value:.4f}")

    def test_1b_tag_fairness(self, runs):
        _, tag, _ = runs
        value = micro_metrics(tag)["jain_first_100"]
        report("1b tag Jain >= 0.98", value >= 0.98, f"J={value:.4f}")

    def test_1c_minimum_utilization(self, runs):
        tele, tag, _ = runs
        lows = [micro_metrics(r)["min_utilization_after_10"] for r in (tele, tag)]
        report("1c egress util >= 0.85", min(lows) >= 0.85,
               f"tele={lows[0]:.3f} tag={lows[1]:.3f}")

    def test_1d_idle_fraction(self, runs):
        tele, tag, _ = runs
        bound = 0.134 + self.N / self.C
        highs = [micro_metrics(r)["max_idle_after_10"] for r in (tele, tag)]
        report(f"1d idle <= {bound:.3f}", max(highs) <= bound,
               f"tele={highs[0]:.3f} tag={highs[1]:.3f}")


# -- criterion 2: congestion-freedom under randomized configs ------------


class TestCriterion2CongestionFree:
    def random_config(self, rng: random.Random, index: int) -> RunConfig:
        protocol, network = [
            (Protocol.TELE, NetworkKind.TELE),
            (Protocol.EW, NetworkKind.TELE),
            (Protocol.FRA, NetworkKind.TELE),
            (Protocol.TAG, NetworkKind.TAG_RELAY),
            (Protocol.TAG, NetworkKind.TAG_SWITCH),
        ][index % 5]
        n_infra = rng.randint(6, 12)
        n_sessions = rng.randint(1, 12)
        sessions = []
        for _ in range(n_sessions):
            qubits = rng.choice([None, None, rng.randint(1, 400)])
            # Window control guarantees congestion-freedom for sessions
            # joining mid-run only under teleportation; fair-share variants
            # and sharing flows are admitted together.
            start = rng.randint(0, 10) if protocol is Protocol.TELE else 0
            sessions.append(SessionSpec(qubits=qubits, start_slot=start))
        return RunConfig(
            seed=rng.randint(0, 10**6),
            protocol=protocol,
            network=network,
            topology=WaxmanSpec(n_infra=n_infra, target_avg_degree=3.0,
                                area_side=50.0),
            sessions=sessions,
            n_slots=40,
            p=rng.uniform(0.3, 1.0),
            capacity=rng.randint(400, 1200),
        )

    def test_no_reservation_errors_across_100_configs(self):
        rng = random.Random(20260810)
        checked = 0
        for index in range(100):
            cfg = self.random_config(rng, index)
            result = run(cfg)  # reservation errors would raise here
            for row in result.pool_rows:
                assert row.reserved <= row.capacity
            checked += 1
        report("2 congestion-freedom", checked == 100,
               f"{checked} randomized runs, no capacity/infeasible errors")


# -- criterion 3: sawtooth fairness at a single bottleneck ---------------


def bottleneck_run(n: int, c: int, slots: int) -> dict[int, list[int]]:
    topology = many_to_one_topology(
        n, NetworkKind.TELE, ingress_capacity=10**6, hub_capacity=10**6,
        egress_capacity=3 * c,
    )
    sessions = [SessionSpec(src=i + 1, dst=n + 1) for i in range(n)]
    cfg = RunConfig(seed=0, protocol=Protocol.TELE, network=NetworkKind.TELE,
                    topology=topology, sessions=sessions, n_slots=slots)
    result = run(cfg)
    warmup = slots // 4
    return {sid: window_series(result, sid)[warmup:] for sid in range(n)}


def whole_period_mean(series: list[int]) -> float:
    peaks = [
        i for i in range(1, len(series) - 1)
        if series[i] > series[i + 1] and series[i] >= series[i - 1]
    ]
    if len(peaks) >= 2:
        segment = series[peaks[0]:peaks[-1]]
        return sum(segment) / len(segment)
    return sum(series) / len(series)


class TestCriterion3SawtoothFairness:
    @pytest.mark.parametrize("n", [2, 5, 10])
    @pytest.mark.parametrize("c", [60, 100, 240])
    def test_steady_state_windows(self, n, c):
        slots = max(600, 40 * -(-c // n))
        series = bottleneck_run(n, c, slots)
        w_star = max(max(s) for s in series.values())
        low = min(min(s) for s in series.values())
        high = max(max(s) for s in series.values())
        in_range = low >= w_star // 2 and high <= w_star + 1

        means = [whole_period_mean(s) for s in series.values()]
        spread = max(means) - min(means)
        ratio = mean(means) / w_star

        lemma = all(
            max(vals) <= 2 * min(vals) + 1
            for vals in zip(*(series[sid] for sid in range(n)))
        )
        ok = (in_range and spread <= 1.0 + 1e-9 and 0.70 <= ratio <= 0.80
              and lemma)
        report(
            f"3 sawtooth N={n} C={c}", ok,
            f"W*={w_star} range=[{low},{high}] spread={spread:.3f} "
            f"mean/W*={ratio:.3f} lemma1={lemma}",
        )


# -- criterion 4: delivery-time oracle ------------------------------------


class TestCriterion4DeliveryTime:
    TRIALS = 100_000

    @pytest.mark.parametrize("p", [0.5, 0.65, 0.84, 1.0])
    def test_monte_carlo_matches_closed_form(self, p):
        expected = (1 + p) / (p * p)
        rng = stream(17, f"delivery-oracle-{p}")
        total = 0
        for _ in range(self.TRIALS):
            transfer = SharingTransfer(qubit=0)
            slots = 0
            while transfer.stage is not Stage.DELIVERED:
                slots += 1
                advance(transfer, bool(rng.random() < p))
            total += slots
        observed = total / self.TRIALS
        gap = abs(observed - expected) / expected
        report(f"4 delivery time p={p}", gap <= 0.02,
               f"mc={observed:.4f} closed={expected:.4f} gap={gap:.3%}")


# -- criterion 5: protocol ordering in wide-area networks ----------------


class TestCriterion5ProtocolOrdering:
    def totals(self):
        return {
            protocol: mean(sweep_total(protocol, seed) for seed in SEEDS)
            for protocol in (Protocol.TELE, Protocol.EW, Protocol.FRA,
                             Protocol.TAG)
        }

    def test_throughput_ordering(self):
        totals = self.totals()
        ordered = (
            totals[Protocol.TELE] > totals[Protocol.EW]
            > totals[Protocol.FRA] > totals[Protocol.TAG]
        )
        report(
            "5 ordering tele>ew>fra>tag", ordered,
            " ".join(f"{p.value}={totals[p]:.0f}" for p in totals),
        )

    def test_tele_margin_over_explicit_window(self):
        totals = self.totals()
        margin = totals[Protocol.TELE] / totals[Protocol.EW]
        report("5 margin tele >= 1.3*ew", margin >= 1.3,
               f"margin={margin:.3f}")


# -- criterion 6: teleportation vs switched tell-and-go ------------------


class TestCriterion6Tradeoffs:
    def test_6a_probability_crossover(self):
        tele = mean(sweep_total(Protocol.TELE, seed) for seed in SEEDS)
        gaps = [
            mean(switch_total(p, seed) for seed in SEEDS) - tele
            for p in PROB_GRID
        ]
        crossover = interpolate_crossover(list(PROB_GRID), gaps)
        ok = crossover is not None and 0.75 <= crossover <= 0.92
        report("6a crossover p in [0.75, 0.92]", ok,
               f"crossover={crossover} gaps={[round(g) for g in gaps]}")

    def test_6b_slot_length_crossover(self):
        tele = mean(sweep_total(Protocol.TELE, seed) for seed in SEEDS)
        tag = mean(switch_total(0.65, seed) for seed in SEEDS)
        ratio = tele / tag
        report("6b slot-ratio crossover in [2.0, 3.0]", 2.0 <= ratio <= 3.0,
               f"ratio={ratio:.3f}")


# -- criterion 7: byte-identical preset reruns ----------------------------


class TestCriterion7Determinism:
    def test_preset_rerun_byte_identical(self, tmp_path):
        from qdnsim.cli import run_preset

        for attempt in ("first", "second"):
            run_preset("appendix_e", [0, 1], tmp_path / attempt,
                       ["tabular", "records"])
        base = tmp_path / "first"
        files = sorted(p for p in base.rglob("*") if p.is_file())
        assert files
        mismatched = [
            str(p.relative_to(base))
            for p in files
            if p.read_bytes() != (tmp_path / "second" /
                                  p.relative_to(base)).read_bytes()
        ]
        report("7 determinism", not mismatched,
               f"{len(files)} files compared, mismatches={mismatched}")


# -- criterion 8: scheduler budget soundness ------------------------------


class TestCriterion8BudgetSoundness:
    def test_fuzzed_plans_respect_constraints(self):
        rng = random.Random(88)
        for _ in range(10_000):
            window = rng.randint(0, 60)
            hop = HopSession(session=0, hop=0, sender=0, receiver=1,
                             unminted=rng.randint(0, 40))
            qubit = 0
            for _ in range(rng.randint(0, 12)):
                stage = rng.choice([Stage.FIRST, Stage.SECOND])
                hop.in_flight[qubit] = SharingTransfer(qubit, rng.randint(0, 4),
                                                       stage)
                qubit += 1
            stored = hop.stored_firsts
            plan = plan_transfers(
                hop, granted=window,
                receiver_free=rng.randint(0, 60),
                encode_blocks_free=rng.randint(0, 40),
            )
            firsts, seconds = plan.first_count, plan.second_count
            assert seconds <= stored  # pending seconds are stored chains
            assert firsts + seconds <= (3 * window) // 4
            if firsts:  # seconds alone may exceed via the escape hatch
                assert stored + firsts + seconds <= window
        report("8 budget soundness", True,
               "10000 fuzzed plans satisfied the sharing constraints")
