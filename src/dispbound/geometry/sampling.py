"""Deterministic random-stream plumbing and direction sampling.

Every random quantity in the geometry layer flows from an explicit
64-bit seed through a named substream, so parallel and serial runs (and
repeated runs) produce byte-identical results.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream", "unit_directions"]


def substream(seed: int, *names: str) -> np.random.Generator:
    """Independent, reproducible generator for a named operation.

    The names are hashed into a spawn key, so streams for different
    operations never overlap and adding a new consumer cannot shift the
    draws of an existing one.
    """
    key = tuple(zlib.crc32(name.encode("utf-8")) for name in names)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def unit_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform directions sampled by normalizing standard Gaussians."""
    v = rng.standard_normal((count, dim))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]

