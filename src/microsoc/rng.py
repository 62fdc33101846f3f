"""Deterministic counter-based randomness.

Every random decision in a run is a pure function of a few small integers
(run seed, stream tag, agent id, round number). There is no mutable generator
state to thread through the simulation, which buys two things:

* the batch kernel's draws do not depend on loop order or on which
  replicates are still being stepped;
* sweep output is byte-identical for any worker count, because nothing about
  scheduling can perturb the draws.

The mixing function is the public-domain splitmix64 finalizer, on uint64
arrays: seed_derive derives run seeds (see README, Determinism), and the other
functions a point's quality owners and production uniforms from them. Their
Python-int definition, which they are checked against, is in the tests.
"""

from __future__ import annotations

import operator

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Stream tags keep draws for different purposes from ever sharing a key.
STREAM_PRODUCTION = 0x50524F44  # "PROD"
STREAM_OWNER = 0x4F574E52  # "OWNR"


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Bijective avalanche (the splitmix64 finalizer) over a uint64 array."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def absorb_np(seed: np.ndarray, *words) -> np.ndarray:
    """Fold integer words into seeds, one mix per word; words broadcast with seed."""
    h = np.asarray(seed, dtype=np.uint64)
    for w in words:
        h = mix64_np(h + np.uint64(_GAMMA) + np.asarray(w, dtype=np.uint64))
    return h


def seed_derive(master_seed: int, point_index: int, replicate_index) -> np.ndarray:
    """Run seeds of one grid point as uint64: one for an int replicate_index,
    else one per entry of its array of non-negative indices. Distinct
    (point_index, replicate_index) pairs give independent streams.

    Any integer master seed and point index is reduced modulo 2**64 as a
    Python int, where a numpy integer would overflow at the mask; a float is
    refused. An array, not a numpy scalar: uint64 scalar arithmetic warns on
    wraparound.
    """
    master = np.array([operator.index(master_seed) & MASK64], dtype=np.uint64)
    return absorb_np(master, operator.index(point_index) & MASK64, replicate_index)


def to_unit_np(h: np.ndarray) -> np.ndarray:
    """Map 64-bit hashes to floats in [0, 1) using their top 53 bits.

    Dividing by 2**64 instead can round up to exactly 1.0, which would break
    inverse-CDF sampling; the 53-bit construction cannot.
    """
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def production_keys_np(run_seeds: np.ndarray, agent_ids: np.ndarray) -> np.ndarray:
    """Keys of the production draws for a (replicate, agent) grid.

    A production uniform folds its round into the key last, so one run's
    keys serve every round. run_seeds and agent_ids broadcast against each
    other, e.g. shapes (R, 1) and (N,) give an (R, N) result.
    """
    return absorb_np(run_seeds, STREAM_PRODUCTION, agent_ids)


def production_uniform_np(keys: np.ndarray, round_no: int) -> np.ndarray:
    """Production uniforms of one round for production_keys_np's keys: the
    uniform of (run, agent, round) is to_unit_np(absorb_np(run_seed,
    STREAM_PRODUCTION, agent_id, round_no))."""
    return to_unit_np(absorb_np(keys, round_no))
