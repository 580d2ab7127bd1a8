"""Tell-and-go transport with (2,3)-threshold sharing delivery.

A data qubit is encoded into three sharings, any two of which recover it.
The sender transmits the first sharing, then the second; if the second is
lost, the retained third sharing is re-encoded and the process recurses
one round deeper.  The receiver must store every first sharing it has
accepted until a matching second arrives, at which point the whole chain
is released.  A per-slot scheduler bounds how many first and second
sharings may be sent so that the receiver's window is never overrun and
the sender never needs more than three memory units per in-flight qubit.

A hop keeps counts, not qubits: how many of its in-flight qubits sit at
each (stage, round), the first sharings its receiver stores, and its relay
queue as a backlog count.  This is exact.  No trace field names a qubit and
the scheduler picks by round alone, so qubits at the same stage and round
are interchangeable and the per-qubit chain lumps into these counts
(Kemeny & Snell, *Finite Markov Chains*, ch. 6): every trace is the same
whichever qubit takes which outcome.  ``SharingTransfer`` and ``advance``
remain the single-qubit state machine that the counts lump.

A run keeps every live hop as one row of a ``HopTable``, whose columns are
``HopSession``'s fields and whose per-round counts are two hops x rounds
matrices.  ``HopTable.admit`` lays out a session's hops, and
``HopTable.step`` runs one slot for all of them as array passes: reserve,
plan, draw, send, hand over and advance the window.  ``HopSession``,
``plan_transfers``, ``reserve_sharing`` and ``ChannelModel.draw`` are the
same slot for one hop at a time, the scalar reference the table is checked
against.  Both reserve through ``_reserve``, which states every per-hop
memory rule and returns the budgets a plan spends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DeadlockError
from .memory import (RECEIVE_COST, TAG_QUBIT_UNITS, TAG_SEND_COST, Incidence,
                     PoolTable, reserve)
from .routing import Path
from .tele import Phase, next_window

INITIAL_WINDOW = 2


class Stage(Enum):
    FIRST = "first"     # next transmission is the round's first sharing
    SECOND = "second"   # first sharing stored at receiver; second pending
    DELIVERED = "delivered"


@dataclass
class SharingTransfer:
    """Delivery state machine position for one in-flight data qubit."""

    qubit: int
    round: int = 0
    stage: Stage = Stage.FIRST

    @property
    def stored_at_receiver(self) -> int:
        """First sharings the receiver holds for this qubit."""
        if self.stage is Stage.FIRST:
            return self.round
        if self.stage is Stage.SECOND:
            return self.round + 1
        return 0


def advance(transfer: SharingTransfer, success: bool) -> tuple[int, bool]:
    """Apply one transmission outcome; returns (receiver delta, delivered).

    A failed first sharing costs nothing: the sender recovers the qubit
    from its two retained sharings and re-encodes.  A successful first is
    stored at the receiver.  A failed second deepens the recursion: the
    retained third sharing is re-encoded into the next round's three
    sharings.  A successful second reconstructs the qubit and releases all
    stored first sharings at once.
    """
    if transfer.stage is Stage.DELIVERED:
        raise ValueError("qubit already delivered")
    if transfer.stage is Stage.FIRST:
        if success:
            transfer.stage = Stage.SECOND
            return 1, False
        return 0, False
    if success:
        released = transfer.round + 1
        transfer.stage = Stage.DELIVERED
        return -released, True
    transfer.round += 1
    transfer.stage = Stage.FIRST
    return 0, False


@dataclass(frozen=True)
class ChannelModel:
    """Per-sharing success probability; outcomes sampled independently."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"success probability must be in [0, 1], got {self.p}")

    def draw(self, rng: np.random.Generator, n: int) -> list[bool]:
        """Outcomes of ``n`` sharings, in order; one uniform draw each,
        except at p = 0 or 1, whose outcomes are certain and use no draw."""
        if self.p in (0.0, 1.0):
            return [self.p == 1.0] * n
        return (rng.random(n) < self.p).tolist()

    def successes(self, rng: np.random.Generator,
                  counts: np.ndarray) -> np.ndarray:
        """Successes in each entry of ``counts``, an int64 array of runs of
        sharings: one ``rng.random(counts.sum())`` draw, taken in row-major
        order, gives each run the outcomes ``draw`` would give it, called
        run by run.  At p = 0 or 1 nothing is drawn."""
        if self.p in (0.0, 1.0):
            return counts if self.p == 1.0 else np.zeros_like(counts)
        runs = counts.ravel()
        ends = np.cumsum(runs)
        hits = np.cumsum(rng.random(int(runs.sum())) < self.p)
        hits = np.concatenate(([0], hits))
        return (hits[ends] - hits[ends - runs]).reshape(counts.shape)


@dataclass
class Plan:
    """Sharings chosen for one slot, as ``(round, count)`` bins.

    ``seconds`` and ``firsts`` each run from the highest round down;
    ``encodes`` freshly encoded qubits send their first sharing after them.
    A plan is fixed before ``HopSession.send`` applies any outcome to it.
    """

    seconds: list[tuple[int, int]]
    firsts: list[tuple[int, int]]
    encodes: int  # queued qubits to encode and send a first sharing for

    @property
    def first_count(self) -> int:
        return sum(n for _, n in self.firsts) + self.encodes

    @property
    def second_count(self) -> int:
        return sum(n for _, n in self.seconds)


@dataclass
class HopSession:
    """One hop of a tell-and-go flow, with its own sending window.

    ``backlog`` counts data qubits handed over by the upstream relay and
    awaiting encoding; the ingress hop mints its qubits from ``unminted``
    supply (None for an unbounded stream).  ``queue_bound`` limits the
    backlog so memory pressure propagates backwards (None for the ingress
    hop).

    In-flight qubits are counts per stage and round: ``firsts[r]`` qubits
    of round ``r`` are due a first sharing and ``seconds[r]`` a second.
    ``first_total`` and ``second_total`` are their sums and
    ``stored_firsts`` counts the first sharings the receiver holds for
    them.  ``send`` keeps all of them up to date.

    A hop reserves at its sender's send pool and its receiver's receive
    pool (``reserve_sharing``).
    """

    session: int
    hop: int
    sender: int
    receiver: int
    window: int = INITIAL_WINDOW
    phase: Phase = Phase.SLOW_START
    backlog: int = 0
    unminted: int | None = 0
    queue_bound: int | None = None
    firsts: dict[int, int] = field(default_factory=dict, init=False)
    seconds: dict[int, int] = field(default_factory=dict, init=False)
    first_total: int = field(default=0, init=False)
    second_total: int = field(default=0, init=False)
    stored_firsts: int = field(default=0, init=False)

    @property
    def in_flight_count(self) -> int:
        return self.first_total + self.second_total

    @property
    def in_flight(self) -> _Seed:
        """Write-only: ``in_flight[q] = transfer`` adds a qubit to its bin."""
        return _Seed(self)

    @property
    def queued(self) -> int | float:
        """Qubits available to encode; ``math.inf`` for unbounded supply."""
        if self.unminted is None:
            return math.inf
        return self.backlog + self.unminted

    @property
    def queue_free(self) -> int | None:
        if self.queue_bound is None:
            return None
        return self.queue_bound - self.backlog

    def advance_window(self, congested: bool) -> None:
        """Move window state to the next slot's announcement; the window
        grows every slot regardless of deliveries."""
        self.window, self.phase = next_window(self.window, self.phase, congested)

    def send(self, plan: Plan, outcomes: list[bool]) -> int:
        """Apply one slot's outcomes to ``plan``; returns qubits delivered.

        ``outcomes`` has one entry per planned sharing, in plan order:
        seconds, firsts, then the ``plan.encodes`` fresh qubits (3 sender
        units each), taken from the backlog before the unminted supply.
        Per bin of ``n`` with ``ok`` successes, a second at round ``r``
        delivers ``ok`` qubits, releasing ``r + 1`` stored firsts each, and
        re-encodes ``n - ok`` at round ``r + 1``; a first moves ``ok``
        qubits to the seconds of round ``r``, storing one more first each.
        """
        encodes = plan.encodes
        if encodes > self.queued:
            raise ValueError("nothing queued to encode")
        from_backlog = min(encodes, self.backlog)
        self.backlog -= from_backlog
        if self.unminted is not None:
            self.unminted -= encodes - from_backlog

        firsts, seconds = self.firsts, self.seconds
        _add(firsts, 0, encodes)
        at = delivered = released = 0
        for round_, n in plan.seconds:
            ok = outcomes[at:at + n].count(True)
            at += n
            delivered += ok
            released += ok * (round_ + 1)
            _add(seconds, round_, -n)
            _add(firsts, round_ + 1, n - ok)
        seconds_sent = at
        for round_, n in (*plan.firsts, (0, encodes)):
            ok = outcomes[at:at + n].count(True)
            at += n
            _add(firsts, round_, -ok)
            _add(seconds, round_, ok)
        stored = outcomes.count(True) - delivered  # firsts that landed
        self.first_total += seconds_sent - delivered + encodes - stored
        self.second_total += stored - seconds_sent
        self.stored_firsts += stored - released
        return delivered

    def accept(self, n: int) -> None:
        """Enqueue ``n`` qubits handed over by the upstream hop."""
        if self.queue_free is not None and n > self.queue_free:
            raise OverflowError(
                f"relay queue full on hop {self.hop} of session {self.session}"
            )
        self.backlog += n


@dataclass
class TagFlow:
    """End-to-end tell-and-go session; its hops are rows of a ``HopTable``."""

    id: int
    remaining: int | None  # qubits yet to deliver; None for a stream

    @property
    def finished(self) -> bool:
        return self.remaining == 0


def reserve_sharing(hops: list[HopSession], pools: PoolTable
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reserve one slot's memory for ``hops`` by ``_reserve``'s rules;
    returns grants, halved flags, receive units free and send blocks free,
    in hop order."""
    index = pools.index
    return _reserve(pools, *np.array([
        (index[hop.sender, "send"], index[hop.receiver, "receive"],
         hop.window, hop.in_flight_count, hop.stored_firsts,
         hop.session, hop.hop)
        for hop in hops], dtype=np.int64).reshape(-1, 7).T)


def _reserve(pools: PoolTable, send: np.ndarray, receive: np.ndarray,
             window: np.ndarray, in_flight: np.ndarray, stored: np.ndarray,
             session: np.ndarray, hop: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reserve one slot's memory for hops given as columns.

    Each hop reserves first at its sender's send pool, at 9/4 units per
    window unit (three sharings for at most three quarters of the window),
    then at its receiver's receive pool at one unit.  Their floors cannot
    be evicted: ``TAG_QUBIT_UNITS`` per qubit in flight, and the stored
    first sharings.  Ties go to the lower ``(session, hop)``.  Returns
    grants, halved flags and a plan's budgets in hop order: receive units
    and send blocks held above the floors.  Raises DeadlockError, for the
    first receive pool in node order, when the stored first sharings alone
    overfill it.
    """
    held = pools.sums(receive, stored)
    over = np.flatnonzero(held > pools.capacity)
    if len(over):
        raise DeadlockError(
            f"stored sharings ({int(held[over[0]])}) exceed receive pool at "
            f"node {pools.keys[over[0]][0]}")
    tie = session * (hop.max(initial=0) + 1) + hop
    n = len(window)
    points = Incidence(
        pool=np.stack([send, receive], axis=1).ravel(),
        rank=np.repeat(np.arange(n), 2),
        tie=np.repeat(tie, 2),
        num=np.tile([TAG_SEND_COST.numerator, RECEIVE_COST], n),
        den=np.tile([TAG_SEND_COST.denominator, 1], n),
        floor=np.stack([TAG_QUBIT_UNITS * in_flight, stored], axis=1).ravel(),
    )
    granted, congested = reserve(pools, points, window)
    free = points.costs(granted) - points.floor
    return granted, congested, free[1::2], free[0::2] // TAG_QUBIT_UNITS


@dataclass
class _Seed:
    hop: HopSession

    def __setitem__(self, qubit: int, transfer: SharingTransfer) -> None:
        hop, first = self.hop, transfer.stage is Stage.FIRST
        if transfer.stage is Stage.DELIVERED:
            raise ValueError(f"cannot hold {transfer} in flight")
        _add(hop.firsts if first else hop.seconds, transfer.round, 1)
        hop.first_total += first
        hop.second_total += not first
        hop.stored_firsts += transfer.stored_at_receiver


def _add(bins: dict[int, int], round_: int, n: int) -> None:
    """Add ``n`` qubits (remove, if negative) to ``bins[round_]``; a bin
    that empties is dropped."""
    if n:
        left = bins.get(round_, 0) + n
        if left:
            bins[round_] = left
        else:
            del bins[round_]


def plan_transfers(
    hop: HopSession,
    granted: int,
    receiver_free: int,
    encode_blocks_free: int,
    downstream_free: int | None = None,
) -> Plan:
    """Choose this slot's sharings under the window and memory budgets.

    Second sharings go first (they release receiver memory), picked from
    the highest-round qubits; then first sharings, also highest round
    first, topped up by freshly encoded qubits.  With ``s`` first sharings
    already stored, the first-sharing budget is capped at
    ``max(0, granted//2 + seconds - s)`` so the stored backlog is steered
    toward half a window, and the total never exceeds three quarters of
    the window.  First sharings additionally fit into the receiver's free
    units; seconds only require one free unit in total, because a lost
    second never lands and a delivered one releases its whole chain.
    """
    stored = hop.stored_firsts
    budget = (3 * granted) // 4

    # One free unit admits any number of seconds: a lost second never
    # occupies memory and a successful one releases its whole chain.
    second_cap = min(hop.second_total, budget) if receiver_free >= 1 else 0
    if downstream_free is not None:
        second_cap = min(second_cap, downstream_free)
    second_count = max(0, second_cap)
    seconds = _take(hop.seconds, second_count)

    first_cap = min(
        max(0, granted // 2 + second_count - stored),
        budget - second_count,
        receiver_free,
        max(0, granted - stored - second_count),
    )
    first_cap = max(0, first_cap)
    firsts = _take(hop.firsts, first_cap)
    sent = min(first_cap, hop.first_total)
    encodes = min(first_cap - sent, hop.queued, max(0, encode_blocks_free))
    return Plan(seconds=seconds, firsts=firsts, encodes=encodes)


def _take(bins: dict[int, int], count: int) -> list[tuple[int, int]]:
    """Up to ``count`` qubits of ``bins`` as ``(round, n)`` pairs, highest
    round first."""
    if count <= 0:
        return []
    picked = []
    for round_ in sorted(bins, reverse=True):
        if count <= 0:
            break
        n = min(bins[round_], count)
        picked.append((round_, n))
        count -= n
    return picked


#: A ``HopTable`` row's phase code indexes these; rows print their words.
_PHASES = (Phase.SLOW_START, Phase.AVOIDANCE)
_PHASE_WORDS = np.array([phase.value for phase in _PHASES], dtype=object)

#: ``HopTable.unminted`` of an ingress hop that mints without end.
UNBOUNDED = -1


class HopRecord(NamedTuple):
    """One slot's trace columns, one entry per hop in table order, in
    ``SessionRow`` field order: the window and phase announced, the grant,
    the sharings sent and lost, and the first sharings stored after it."""

    session: np.ndarray
    hop: np.ndarray
    window: np.ndarray
    congested: np.ndarray
    granted: np.ndarray
    delivered: np.ndarray
    phase: np.ndarray  # words, as Python str objects
    firsts: np.ndarray
    seconds: np.ndarray
    losses: np.ndarray
    stored: np.ndarray


class HopTable:
    """Every live tell-and-go hop of a run: one ``HopSession`` per row, held
    as columns, in flow admission then hop order.

    ``send`` and ``receive`` are pool indices and ``phase`` indexes
    ``_PHASES``.  ``unminted`` is ``UNBOUNDED`` for an unbounded stream, and
    ``queue_bound`` counts only on relay hops (``hop`` > 0).  ``forwards``
    marks a row whose deliveries go to the next row's relay queue.
    ``firsts[:, r]`` and ``seconds[:, r]`` count the in-flight qubits of
    round ``r`` due a first or a second sharing; a column is added when a
    lost second moves past the last round.  ``stored`` counts the first
    sharings each receiver holds.  ``flows`` are the live flows, one per
    egress row, in the same order.
    """

    _COLUMNS = ("session", "hop", "send", "receive", "window", "phase",
                "backlog", "unminted", "queue_bound", "stored", "forwards",
                "firsts", "seconds")

    def __init__(self, pools: PoolTable):
        self.pools = pools
        self.flows: list[TagFlow] = []
        for name in self._COLUMNS:
            setattr(self, name, np.zeros(0, dtype=np.int64))
        self.forwards = self.forwards.astype(bool)
        self.firsts = self.seconds = np.zeros((0, 1), dtype=np.int64)

    def admit(self, sid: int, path: Path, qubits: int | None,
              initial_window: int | None, switched: bool) -> TagFlow:
        """Append session ``sid`` along ``path``: one hop per link over
        relays, one end-to-end hop when ``switched``.  The ingress hop mints
        ``qubits``; a relay hop queues what its sender's send pool can hold
        in flight.  Returns the flow."""
        nodes = (path.src, path.dst) if switched else path.nodes
        index, count = self.pools.index, len(nodes) - 1
        send = np.array([index[node, "send"] for node in nodes[:-1]],
                        dtype=np.int64)
        blank = np.zeros(count, dtype=np.int64)
        rows = {
            "session": blank + sid,
            "hop": np.arange(count, dtype=np.int64),
            "send": send,
            "receive": np.array([index[node, "receive"] for node in nodes[1:]],
                                dtype=np.int64),
            "window": blank + (initial_window or INITIAL_WINDOW),
            "unminted": np.r_[UNBOUNDED if qubits is None else qubits,
                              blank[1:]],
            "queue_bound": np.r_[0, self.pools.capacity[send[1:]]
                                 // TAG_QUBIT_UNITS],
            "forwards": np.arange(count) < count - 1,
            "firsts": np.zeros((count, self.firsts.shape[1]), dtype=np.int64),
        }
        rows["seconds"] = rows["firsts"]
        for name in self._COLUMNS:
            setattr(self, name, np.concatenate(
                [getattr(self, name), rows.get(name, blank)]))
        flow = TagFlow(id=sid, remaining=qubits)
        self.flows.append(flow)
        return flow

    def hops(self) -> list[HopSession]:
        """A copy of every row as a ``HopSession``."""
        keys, hops = self.pools.keys, []
        for (session, hop, send, receive, window, phase, backlog, unminted,
             bound, stored, _, firsts, seconds) in zip(*(
                getattr(self, name).tolist() for name in self._COLUMNS)):
            copy = HopSession(
                session=session, hop=hop, sender=keys[send][0],
                receiver=keys[receive][0], window=window,
                phase=_PHASES[phase], backlog=backlog,
                unminted=None if unminted == UNBOUNDED else unminted,
                queue_bound=bound if hop else None)
            copy.firsts = {r: n for r, n in enumerate(firsts) if n}
            copy.seconds = {r: n for r, n in enumerate(seconds) if n}
            copy.first_total, copy.second_total = sum(firsts), sum(seconds)
            copy.stored_firsts = stored
            hops.append(copy)
        return hops

    def step(self, channel: ChannelModel,
             rng: np.random.Generator) -> HopRecord:
        """One slot for every hop, as ``reserve_sharing``, then per hop
        ``plan_transfers``, ``ChannelModel.draw``, ``HopSession.send`` and
        ``advance_window``, then each relay's ``accept``, would run it, and
        the same draws.  Finished flows leave the table.  Returns the
        slot's trace columns."""
        firsts, seconds, stored = self.firsts, self.seconds, self.stored
        first_total, second_total = firsts.sum(axis=1), seconds.sum(axis=1)
        granted, congested, receiver_free, blocks_free = _reserve(
            self.pools, self.send, self.receive, self.window,
            first_total + second_total, stored, self.session, self.hop)

        # plan_transfers; a plan reads the next hop's relay queue as it
        # stood at the start of the slot.
        budget = (3 * granted) // 4
        second_cap = np.where(receiver_free >= 1,
                              np.minimum(second_total, budget), 0)
        queue_free = np.r_[self.queue_bound[1:] - self.backlog[1:], 0]
        second_cap = np.where(self.forwards,
                              np.minimum(second_cap, queue_free), second_cap)
        second_count = np.maximum(0, second_cap)
        first_cap = np.maximum(0, np.minimum(np.minimum(
            np.maximum(0, granted // 2 + second_count - stored),
            budget - second_count), np.minimum(
            receiver_free, np.maximum(0, granted - stored - second_count))))
        sent = np.minimum(first_cap, first_total)
        encodes = first_cap - sent
        queued = self.backlog + self.unminted
        encodes = np.where(self.unminted == UNBOUNDED, encodes,
                           np.minimum(encodes, queued))
        encodes = np.minimum(encodes, np.maximum(0, blocks_free))
        take_seconds = _take_rounds(seconds, second_count)
        take_firsts = _take_rounds(firsts, first_cap)

        # One draw: per hop, seconds and then firsts from the highest
        # round down, then the fresh encodes.
        sharings = np.concatenate([take_seconds[:, ::-1], take_firsts[:, ::-1],
                                   encodes[:, None]], axis=1)
        ok = channel.successes(rng, sharings)
        rounds = firsts.shape[1]
        ok_seconds = ok[:, rounds - 1::-1]
        ok_firsts = ok[:, 2 * rounds - 1:rounds - 1:-1]
        ok_encodes = ok[:, -1]

        # send: a delivered second releases its round + 1 stored firsts,
        # a lost one re-encodes its qubit a round deeper.
        delivered = ok_seconds.sum(axis=1)
        released = ok_seconds @ np.arange(1, rounds + 1)
        self.stored = stored + ok_firsts.sum(axis=1) + ok_encodes - released
        from_backlog = np.minimum(encodes, self.backlog)
        self.backlog = self.backlog - from_backlog
        self.unminted = np.where(self.unminted == UNBOUNDED, UNBOUNDED,
                                 self.unminted - (encodes - from_backlog))
        lost = take_seconds - ok_seconds
        firsts, seconds = firsts - ok_firsts, seconds - take_seconds + ok_firsts
        if lost[:, -1].any():
            deeper = np.zeros((len(lost), 1), dtype=np.int64)
            firsts = np.concatenate([firsts, deeper], axis=1)
            seconds = np.concatenate([seconds, deeper], axis=1)
        firsts[:, 1:] += lost[:, :firsts.shape[1] - 1]
        firsts[:, 0] += encodes - ok_encodes
        seconds[:, 0] += ok_encodes
        self.firsts, self.seconds = firsts, seconds

        record = HopRecord(
            session=self.session, hop=self.hop, window=self.window,
            congested=congested.astype(np.int64), granted=granted,
            delivered=delivered, phase=_PHASE_WORDS[self.phase],
            firsts=sent + encodes, seconds=second_count,
            losses=sharings.sum(axis=1) - ok.sum(axis=1), stored=self.stored)
        self._advance_windows(congested)
        self._hand_over(delivered)
        return record

    def _advance_windows(self, congested: np.ndarray) -> None:
        """``next_window`` for every row."""
        window = np.where(congested, self.window // 2, self.window)
        self.phase = np.where(congested, _PHASES.index(Phase.AVOIDANCE),
                              self.phase)
        slow = self.phase == _PHASES.index(Phase.SLOW_START)
        self.window = np.maximum(1, np.where(slow, 2 * window, window + 1))

    def _hand_over(self, delivered: np.ndarray) -> None:
        """Relay deliveries into the next hop's queue, count what each flow's
        egress hop delivered, and retire the flows that are done."""
        arriving = np.r_[0, np.where(self.forwards, delivered, 0)[:-1]]
        full = np.flatnonzero(arriving > self.queue_bound - self.backlog)
        if len(full):
            row = full[0]
            raise OverflowError(f"relay queue full on hop {self.hop[row]} of "
                                f"session {self.session[row]}")
        self.backlog = self.backlog + arriving
        egress = delivered[~self.forwards]
        for position in np.flatnonzero(egress).tolist():
            flow = self.flows[position]
            if flow.remaining is not None:
                flow.remaining -= int(egress[position])
        if any(flow.finished for flow in self.flows):
            done = [flow.id for flow in self.flows if flow.finished]
            live = ~np.isin(self.session, done)
            for name in self._COLUMNS:
                setattr(self, name, getattr(self, name)[live])
            self.flows = [flow for flow in self.flows if not flow.finished]


def _take_rounds(bins: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``_take`` for every row: up to ``count`` qubits of ``bins``, highest
    round first, as counts per round."""
    above = np.cumsum(bins[:, ::-1], axis=1)[:, ::-1] - bins
    return np.clip(count[:, None] - above, 0, bins)
