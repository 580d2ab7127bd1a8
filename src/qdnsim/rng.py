"""Deterministic random streams, derived from one root seed by label.

Every stochastic choice in a run (topology sampling, session endpoints,
channel losses) draws from its own named stream so that adding draws to
one subsystem never perturbs another.  The generator is numpy's Philox
(philox4x64-10), whose bit stream is fixed for a given key, keyed by a
SHA-256 digest of ``"<seed>:<label>"``.
"""

from __future__ import annotations

import hashlib

import numpy as np

TOPOLOGY_STREAM = "topology"
SESSION_STREAM = "sessions"
CHANNEL_STREAM = "channel"


def derive_key(seed: int, label: str) -> int:
    """128-bit Philox key for one (seed, label) pair."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for one named stream of a run."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, label)))
