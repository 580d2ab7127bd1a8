"""Exception types raised by the simulator.

Reservation errors (CapacityExceededError, InfeasibleReservationError,
DeadlockError) abort a run loudly and name the pool or node they fired
at.  DeadlockError means a broken protocol invariant, and so does
CapacityExceededError, except from FRA: a window above twice the fair
share is halved to one still above it.  InfeasibleReservationError can
also mean a pool too small for its sessions with every window halved.
"""


class QdnError(Exception):
    """Base class for simulator errors."""


class GenerationError(QdnError):
    """Topology generation could not meet its calibration target."""


class NoRouteError(QdnError):
    """No path exists between the requested endpoints."""


class CapacityExceededError(QdnError):
    """A reservation would push a memory pool past its capacity."""


class InfeasibleReservationError(QdnError):
    """Demand still exceeds capacity after every session was cut once."""


class DeadlockError(QdnError):
    """Stored sharings alone exceed a receive pool; no progress possible."""


class MetricUndefinedError(QdnError):
    """A metric was requested on input where it has no defined value."""


class ConfigError(QdnError):
    """A run configuration is malformed or inconsistent."""
