"""Frozen scalar references that the engine's array passes are checked
against.  Test code only: nothing under ``src/`` imports it, and it is not
edited to follow the engine."""
