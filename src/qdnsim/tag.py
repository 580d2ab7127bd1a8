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

A run keeps every live hop as one row of a ``HopTable``, a
``memory.FlowColumns`` whose columns are ``HopSession``'s fields, whose
per-round counts are two hops x rounds matrices, and which holds each
hop's reservation points from its admission on (``memory.path_points`` of
its sender and receiver at ``memory.TAG_PRICES``); only their floors, the
hop's in-flight and stored counts, are built per slot.
A slot is a chain of passes over such columns: ``_reserve`` reserves at
the points, ``_plan`` states the scheduler's rule, ``_runs`` and ``_hits``
lay out and count a plan's channel outcomes, and ``_send`` applies them.
Each pass returns the counts it has at hand, so no pass re-sums the round
matrices: ``_plan`` the first (encodes included) and second sharings it
sends, ``_send`` the qubits delivered and the first sharings that landed.
The sharings lost are those sent less both, and the table keeps its
in-flight count as a column, moved by the encodes less the deliveries.
``HopTable.step`` runs the chain for every hop at once, steps the
windows by ``tele.advance_windows`` and counts the egress deliveries down
by ``FlowColumns.count_down``, the rules teleportation sessions share;
``plan_transfers`` runs ``_plan`` for one ``HopSession``, as a one-row
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (CapacityExceededError, DeadlockError,
                     InfeasibleReservationError)
from .memory import (TAG_PRICES, TAG_QUBIT_UNITS, UNBOUNDED, FlowColumns,
                     Incidence, PoolTable, path_points, reserve)
from .routing import Path
from .tele import Phase, advance_windows

INITIAL_WINDOW = 2

#: A relay queue cap that never binds, for a hop that forwards nowhere.
_NEVER = np.iinfo(np.int64).max


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

    def successes(self, rng: np.random.Generator,
                  counts: np.ndarray) -> np.ndarray:
        """Successes in each entry of ``counts``, an int64 array of runs of
        sharings: one ``rng.random(counts.sum())`` draw, taken in row-major
        order, a sharing succeeding where its draw is below ``p``.  At p = 0
        or 1 nothing is drawn."""
        if self.p in (0.0, 1.0):
            return counts if self.p == 1.0 else np.zeros_like(counts)
        return _hits(counts, rng.random(int(counts.sum())) < self.p)


@dataclass
class Plan:
    """Sharings chosen for one slot, as ``(round, count)`` bins.

    ``seconds`` and ``firsts`` each run from the highest round down;
    ``encodes`` freshly encoded qubits send their first sharing after them.
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
    """One hop of a tell-and-go flow, with its own sending window: one
    ``HopTable`` row as fields.

    ``backlog`` counts data qubits handed over by the upstream relay and
    awaiting encoding; the ingress hop mints its qubits from ``unminted``
    supply (None for an unbounded stream).  ``queue_bound`` limits the
    backlog so memory pressure propagates backwards (None for the ingress
    hop).

    In-flight qubits are counts per stage and round: ``firsts[r]`` qubits
    of round ``r`` are due a first sharing and ``seconds[r]`` a second,
    and ``stored_firsts`` counts the first sharings the receiver holds for
    them.
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
    stored_firsts: int = field(default=0, init=False)

    @property
    def in_flight_count(self) -> int:
        return sum(self.firsts.values()) + sum(self.seconds.values())

    @property
    def in_flight(self) -> _Seed:
        """Write-only: ``in_flight[q] = transfer`` adds a qubit to its bin."""
        return _Seed(self)

    def _columns(self) -> tuple[np.ndarray, ...]:
        """This hop as a one-row table: its firsts and seconds as rows,
        then its stored, backlog and unminted columns."""
        rounds = np.zeros((2, 1 + max((*self.firsts, *self.seconds),
                                      default=0)), dtype=np.int64)
        for row, bins in zip(rounds, (self.firsts, self.seconds)):
            row[list(bins)] = list(bins.values())
        return (rounds[:1], rounds[1:], *np.array(
            [[self.stored_firsts], [self.backlog],
             [UNBOUNDED if self.unminted is None else self.unminted]],
            dtype=np.int64))


def _reserve(pools: PoolTable, points: Incidence, window: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reserve one slot's memory for hops at their points, each hop's send
    then receive point, whose floors cannot be evicted: ``TAG_QUBIT_UNITS``
    per qubit in flight, and the stored first sharings.

    Returns grants, halved flags and, as a plan's receiver budget, the
    receive units held above the stored firsts, in hop order.  Raises
    DeadlockError, for the first receive pool in node order, when the
    stored first sharings alone overfill it.  Such a pool is over whatever
    ``reserve`` cuts, so it is looked for only when ``reserve`` raises.
    """
    stored = points.floor[1::2]
    try:
        granted, congested = reserve(pools, points, window)
    except InfeasibleReservationError:
        held = pools.sums(points.pool[1::2], stored)
        over = np.flatnonzero(held > pools.capacity)
        if len(over):
            raise DeadlockError(
                f"stored sharings ({int(held[over[0]])}) exceed receive pool "
                f"at node {pools.keys[over[0]][0]}") from None
        raise
    return granted, congested, np.maximum(granted - stored, 0)


@dataclass
class _Seed:
    hop: HopSession

    def __setitem__(self, qubit: int, transfer: SharingTransfer) -> None:
        hop = self.hop
        if transfer.stage is Stage.DELIVERED:
            raise ValueError(f"cannot hold {transfer} in flight")
        bins = hop.firsts if transfer.stage is Stage.FIRST else hop.seconds
        bins[transfer.round] = bins.get(transfer.round, 0) + 1
        hop.stored_firsts += transfer.stored_at_receiver


def plan_transfers(
    hop: HopSession,
    granted: int,
    receiver_free: int,
    encode_blocks_free: int,
    downstream_free: int | None = None,
) -> Plan:
    """``_plan`` for one hop, whose seconds fit into ``downstream_free``
    unless it is None and whose fresh encodes also fit into
    ``encode_blocks_free``."""
    firsts, seconds, stored, backlog, unminted = hop._columns()
    # Left to infer a dtype, numpy keeps a budget past int64 as a Python int.
    take_seconds, take_firsts, encodes, _, _ = _plan(*np.array(
        [[granted], [receiver_free],
         [_NEVER if downstream_free is None else downstream_free]]),
        stored, firsts, seconds, backlog, unminted)
    return Plan(
        seconds=sorted(_bins(take_seconds[0].tolist()).items(), reverse=True),
        firsts=sorted(_bins(take_firsts[0].tolist()).items(), reverse=True),
        encodes=min(int(encodes[0]), max(0, encode_blocks_free)))


def _plan(granted: np.ndarray, receiver_free: np.ndarray,
          downstream_free: np.ndarray | int, stored: np.ndarray,
          firsts: np.ndarray, seconds: np.ndarray, backlog: np.ndarray,
          unminted: np.ndarray) -> tuple[np.ndarray, ...]:
    """Choose each hop's sharings for one slot under the window and memory
    budgets; returns the seconds and firsts taken per round, the fresh
    encodes, and the first (encodes included) and second sharings sent.

    Second sharings go first (they release receiver memory), picked from
    the highest-round qubits; then first sharings, also highest round
    first, topped up by encoding qubits from the backlog and the unminted
    supply.  With ``s`` first sharings already stored, the first-sharing
    budget is capped at ``max(0, granted//2 + seconds - s)`` so the stored
    backlog is steered toward half a window, and the total never exceeds
    three quarters of the window.  First sharings additionally fit into
    the receiver's free units; seconds only require one free unit in
    total, because a lost second never lands and a delivered one releases
    its whole chain.  Seconds also fit into ``downstream_free``, the free
    relay queue of the hop their qubits go to (one bound for every hop
    when none forwards).
    """
    budget = (3 * granted) // 4
    second_cap = np.where(receiver_free >= 1,
                          np.minimum(seconds.sum(axis=1), budget), 0)
    second_count = np.maximum(0, np.minimum(second_cap, downstream_free))
    first_cap = np.maximum(0, np.minimum(
        np.minimum(granted // 2 + second_count - stored, budget - second_count),
        np.minimum(receiver_free, granted - stored - second_count)))
    take_firsts = _take_rounds(firsts, first_cap)
    first_count = take_firsts.sum(axis=1)
    encodes = first_cap - first_count
    encodes = np.where(unminted == UNBOUNDED, encodes,
                       np.minimum(encodes, backlog + unminted))
    # A hop holds at least ``second_count`` seconds, so all are taken.
    return (_take_rounds(seconds, second_count), take_firsts, encodes,
            first_count + encodes, second_count)


def _take_rounds(bins: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Up to ``count`` qubits of each row of ``bins``, highest round first,
    as counts per round."""
    through = np.cumsum(bins, axis=1)  # qubits up to each round
    above = through[:, -1:] - through
    return np.minimum(np.maximum(count[:, None] - above, 0), bins)


def _runs(seconds: np.ndarray, firsts: np.ndarray,
          encodes: np.ndarray) -> np.ndarray:
    """A plan's sharings as runs in the order they are drawn: per hop, the
    seconds and then the firsts from the highest round down, then the
    fresh encodes."""
    return np.concatenate([seconds[:, ::-1], firsts[:, ::-1],
                           encodes[:, None]], axis=1)


def _hits(runs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Successes in each run of ``runs``, taking ``outcomes``, one bool per
    sharing, in row-major order."""
    flat = runs.ravel()
    ends = np.cumsum(flat)
    hits = np.concatenate(([0], np.cumsum(outcomes)))
    return (hits[ends] - hits[ends - flat]).reshape(runs.shape)


def _send(firsts: np.ndarray, seconds: np.ndarray, stored: np.ndarray,
          backlog: np.ndarray, unminted: np.ndarray, runs: np.ndarray,
          ok: np.ndarray) -> tuple[np.ndarray, ...]:
    """Apply each hop's outcomes to its plan, laid out by ``_runs``, with
    ``ok`` successes per run; returns the new firsts, seconds, stored,
    backlog and unminted columns, the qubits each hop delivered and the
    first sharings that landed (encodes included).

    Fresh encodes come from the backlog before the unminted supply.  At
    round ``r``, a delivered second releases its ``r + 1`` stored firsts
    and a lost one re-encodes its qubit at round ``r + 1``; a first that
    lands is stored and moves its qubit to the seconds of its round.
    """
    rounds = firsts.shape[1]
    take_seconds, encodes = runs[:, rounds - 1::-1], runs[:, -1]
    ok_seconds = ok[:, rounds - 1::-1]
    ok_firsts = ok[:, 2 * rounds - 1:rounds - 1:-1]
    ok_encodes = ok[:, -1]
    delivered = ok_seconds.sum(axis=1)
    released = ok_seconds @ np.arange(1, rounds + 1)
    landed = ok_firsts.sum(axis=1) + ok_encodes
    stored = stored + landed - released
    from_backlog = np.minimum(encodes, backlog)
    unminted = np.where(unminted == UNBOUNDED, UNBOUNDED,
                        unminted - (encodes - from_backlog))
    lost = take_seconds - ok_seconds
    firsts, seconds = firsts - ok_firsts, seconds - take_seconds + ok_firsts
    if lost[:, -1].any():
        deeper = ((0, 0), (0, 1))  # one more round
        firsts, seconds = np.pad(firsts, deeper), np.pad(seconds, deeper)
    firsts[:, 1:] += lost[:, :firsts.shape[1] - 1]
    firsts[:, 0] += encodes - ok_encodes
    seconds[:, 0] += ok_encodes
    return (firsts, seconds, stored, backlog - from_backlog, unminted,
            delivered, landed)


def _bins(counts: list[int]) -> dict[int, int]:
    """Counts per round as a ``{round: n}`` dict of the nonzero ones."""
    return {round_: n for round_, n in enumerate(counts) if n}


class HopTable(FlowColumns):
    """Every live tell-and-go hop of a run: one ``HopSession`` per row, held
    as ``FlowColumns``, in session admission then hop order.

    ``phase`` indexes ``tele.PHASES``.  ``unminted`` is ``UNBOUNDED`` for
    an unbounded stream, and ``queue_bound`` counts only on relay hops
    (``hop`` > 0).  ``forwards`` marks a row whose deliveries go to the
    next row's relay queue; the other rows are egress hops, whose
    ``remaining`` counts the qubits their session has yet to deliver
    (``UNBOUNDED`` on every other row and for a stream), so that
    ``count_down`` drops a session's hops together once its egress hop
    is done.  ``firsts[:, r]`` and ``seconds[:, r]`` count the in-flight
    qubits of round ``r`` due a first or a second sharing; a column is
    added when a lost second moves past the last round.  ``in_flight`` is their row sum, kept up to date
    by each slot's encodes and deliveries rather than recounted, and
    ``stored`` counts the first sharings each receiver holds; the two are
    the floors of a row's points: its sender's send pool at 9/4 units per
    window unit (three sharings for at most three quarters of the window),
    then its receiver's receive pool, the only place its pools are held,
    tied in ``(session, hop)`` order.  Sharings succeed by ``channel``,
    drawn from ``rng``.
    """

    def __init__(self, pools: PoolTable, channel: ChannelModel,
                 rng: np.random.Generator, switched: bool):
        rounds = np.zeros((0, 1), dtype=np.int64)
        super().__init__(
            "session", "hop", "window", "phase", "backlog", "unminted",
            "remaining", "queue_bound", "stored", "in_flight",
            forwards=np.zeros(0, dtype=bool), firsts=rounds, seconds=rounds)
        self.pools, self.channel, self.rng = pools, channel, rng
        self.switched = switched

    def admit(self, sessions: list[tuple[int, Path, int | None, int | None]]
              ) -> None:
        """Append one slot's sessions, each ``(id, path, qubits, initial
        window)``, in order: one hop per link over relays, one end-to-end
        hop when ``switched``.  The ingress hop mints ``qubits`` and the
        egress hop counts them down; a relay hop queues what its sender's
        send pool can hold in flight."""
        if not sessions:
            return
        rows, pairs = [], []
        for sid, path, qubits, initial_window in sessions:
            nodes = (path.src, path.dst) if self.switched else path.nodes
            supply = UNBOUNDED if qubits is None else qubits
            last = len(nodes) - 2
            pairs.extend(zip(nodes, nodes[1:]))
            rows.extend(
                (sid, hop, initial_window or INITIAL_WINDOW,
                 supply if hop == 0 else 0,
                 supply if hop == last else UNBOUNDED, hop < last)
                for hop in range(last + 1))
        session, hop, window, unminted, remaining, forwards = np.array(
            rows, dtype=np.int64).T
        pool, num, den = path_points(self.pools, session, pairs, TAG_PRICES)
        # A path never visits a node twice and each of its senders holds a
        # send pool, so a hop index is below the pool count.
        super().admit(
            (pool, num, den,
             np.repeat(session * len(self.pools.keys) + hop, 2)),
            length=np.full(len(rows), 2), session=session, hop=hop,
            window=window, unminted=unminted, remaining=remaining,
            forwards=forwards,
            queue_bound=self.pools.capacity[pool[::2]] // TAG_QUBIT_UNITS)

    def step(self) -> tuple[np.ndarray, ...]:
        """One slot for every hop: reserve by ``_reserve``, plan by
        ``_plan``, draw every planned sharing at once by
        ``ChannelModel.successes``, send by ``_send``, advance the windows
        and hand relayed qubits downstream.  A plan reads the next hop's
        relay queue as it stood at the start of the slot.  Finished
        sessions leave the table.  Returns the slot's trace columns in
        ``SessionRow`` field order after ``slot``: the window and phase
        code announced, the grant, the sharings sent and lost, and the first
        sharings stored after it."""
        floor = np.empty(2 * len(self.stored), dtype=np.int64)
        floor[0::2] = TAG_QUBIT_UNITS * self.in_flight
        floor[1::2] = self.stored
        granted, congested, receiver_free = _reserve(
            self.pools, self.incidence(floor), self.window)
        # No row of a switched table forwards.
        downstream = _NEVER if self.switched else np.where(
            self.forwards, np.concatenate(
                (self.queue_bound[1:] - self.backlog[1:], [0])), _NEVER)
        take_seconds, take_firsts, encodes, firsts_sent, seconds_sent = _plan(
            granted, receiver_free, downstream, self.stored, self.firsts,
            self.seconds, self.backlog, self.unminted)
        runs = _runs(take_seconds, take_firsts, encodes)
        ok = self.channel.successes(self.rng, runs)
        (self.firsts, self.seconds, self.stored, self.backlog, self.unminted,
         delivered, landed) = _send(self.firsts, self.seconds, self.stored,
                                    self.backlog, self.unminted, runs, ok)
        self.in_flight = self.in_flight + encodes - delivered
        record = (self.session, self.hop, self.window,
                  congested.astype(np.int64), granted, delivered, self.phase,
                  firsts_sent, seconds_sent,
                  firsts_sent + seconds_sent - delivered - landed, self.stored)
        self.window, self.phase = advance_windows(self.window, self.phase,
                                                  congested)
        self._hand_over(delivered)
        return record

    def _hand_over(self, delivered: np.ndarray) -> None:
        """Relay deliveries into the next hop's queue, then count down by
        ``count_down`` what each egress hop delivered.  A switched table
        has no relay hop.  A delivery past a relay queue's bound raises
        CapacityExceededError."""
        if not self.switched:
            arriving = np.concatenate(
                ([0], np.where(self.forwards, delivered, 0)[:-1]))
            full = np.flatnonzero(arriving > self.queue_bound - self.backlog)
            if len(full):
                row = full[0]
                raise CapacityExceededError(
                    f"relay queue full on hop {self.hop[row]} of session "
                    f"{self.session[row]}")
            self.backlog = self.backlog + arriving
        self.count_down(delivered)
