"""Hashing substrate: pair-index algebra and multiply-shift hashing."""

from repro.hashing.families import (
    FAMILY,
    MultiplyShiftHash,
    MultiTableHasher,
    SignHash,
    check_family,
)
from repro.hashing.pairs import (
    MAX_DIMENSION,
    all_pair_indices,
    index_to_pair,
    num_pairs,
    pair_to_index,
    pairs_among,
)

__all__ = [
    "FAMILY",
    "MultiplyShiftHash",
    "MultiTableHasher",
    "SignHash",
    "check_family",
    "MAX_DIMENSION",
    "all_pair_indices",
    "index_to_pair",
    "num_pairs",
    "pair_to_index",
    "pairs_among",
]
