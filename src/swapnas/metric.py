"""Activation-pattern cardinality metrics and size regularisation.

The central object is a bit matrix of binarised post-activation values:
rows are intermediate values, columns are batch samples.  Two cardinalities
are defined on it.  The standard count deduplicates columns (per-sample
patterns, bounded by the batch size).  The sample-wise count deduplicates
rows (per-value patterns, bounded by the usually much larger number of
intermediate values); this is the SWAP score.  Multiplying the SWAP score
by a bell-shaped function of model size gives the regularised variant used
for size-controlled architecture search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class ContractViolationError(ValueError):
    """An argument breaks a documented precondition."""


def pack_bit_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (values x samples) 0/1 block into row-packed bytes."""
    # One cast (and, for a transposed view, transposing) copy into C order:
    # packbits runs about twice as fast along contiguous rows as along a
    # strided axis.
    return np.packbits(np.ascontiguousarray(bits, dtype=np.uint8), axis=1)


@dataclass(frozen=True)
class ActivationCapture:
    """Bit matrix of binarised post-activation values, packed row-wise.

    Row v holds the bits of one intermediate value across all samples;
    column s holds the bits of one sample across all values.  Rows are
    packed eight samples per byte (first sample in the high bit) because
    the row count V reaches the millions for image-sized inputs while the
    batch stays small.
    """

    packed_rows: np.ndarray
    n_samples: int

    def __post_init__(self) -> None:
        # A private C-ordered copy; the caller's array stays writeable.
        self._freeze(np.array(self.packed_rows, dtype=np.uint8, order="C"))

    def _freeze(self, packed: np.ndarray) -> None:
        if packed.ndim != 2:
            raise ContractViolationError("packed_rows must be a 2-D byte array")
        if self.n_samples < 1:
            raise ContractViolationError("a capture needs at least one sample")
        want = (self.n_samples + 7) // 8
        if packed.shape[1] != want:
            raise ContractViolationError(
                f"expected {want} bytes per row for {self.n_samples} samples, "
                f"got {packed.shape[1]}"
            )
        # Zero the pad bits so byte equality coincides with bit equality.
        tail = self.n_samples % 8
        if tail and packed.shape[0]:
            packed[:, -1] &= np.uint8((0xFF << (8 - tail)) & 0xFF)
        packed.setflags(write=False)
        object.__setattr__(self, "packed_rows", packed)

    @classmethod
    def _adopt(cls, packed_rows: np.ndarray, n_samples: int) -> "ActivationCapture":
        """The capture ``cls(...)`` builds, but holding ``packed_rows`` itself, frozen.

        Only for a C-ordered uint8 array the library has just made and
        nobody else holds: the public constructor copies it.
        """
        capture = object.__new__(cls)
        object.__setattr__(capture, "n_samples", n_samples)
        capture._freeze(packed_rows)
        return capture

    @property
    def n_values(self) -> int:
        return int(self.packed_rows.shape[0])

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "ActivationCapture":
        """Build a capture from a dense (values x samples) array of 0/1."""
        arr = np.asarray(bits)
        if arr.ndim != 2:
            raise ContractViolationError("bit matrix must be 2-D")
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ContractViolationError("bit matrix entries must be 0 or 1")
        return cls._adopt(pack_bit_rows(arr), arr.shape[1])

    def bits(self) -> np.ndarray:
        """Unpack to a dense (values x samples) uint8 matrix of 0/1."""
        return np.unpackbits(self.packed_rows, axis=1, count=self.n_samples)

    def transpose(self) -> "ActivationCapture":
        """Swap the value/sample axes, turning columns into rows."""
        if self.n_values == 0:
            raise ContractViolationError("cannot transpose an empty capture")
        return ActivationCapture._adopt(pack_bit_rows(self.bits().T), self.n_values)


_NATIVE_KEYS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _distinct_row_count(packed: np.ndarray) -> int:
    # One item per row; the pad bits are zero, so equal bytes mean equal bits.
    # Rows 1, 2, 4 or 8 bytes wide sort as native integers: 0.7 ms against
    # 50 ms for np.unique of the void view on 137k 4-byte rows.
    key = _NATIVE_KEYS.get(packed.shape[1])
    if key is None:
        return int(np.unique(packed.view(np.dtype((np.void, packed.shape[1])))).size)
    rows = np.sort(packed.view(key).ravel())
    return int(np.count_nonzero(rows[1:] != rows[:-1])) + int(rows.size > 0)


def standard_pattern_cardinality(capture: ActivationCapture) -> int:
    """Count distinct per-sample activation patterns (matrix columns).

    Bounded above by both the sample count and 2**V; a batch of identical
    samples therefore scores 1 regardless of the network.
    """
    if capture.n_values == 0:
        raise ContractViolationError("empty capture")
    return _distinct_row_count(capture.transpose().packed_rows)


def swap_score(capture: ActivationCapture) -> int:
    """Count distinct per-value activation patterns (matrix rows)."""
    if capture.n_values == 0:
        raise ContractViolationError("empty capture")
    return _distinct_row_count(capture.packed_rows)


@dataclass(frozen=True)
class RegularisationParams:
    """Bell-curve coefficients: mu is the preferred model size, sigma the width.

    Units follow whatever the size argument uses (megabytes by default in
    this package); sigma carries squared size units.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ContractViolationError("mu must be positive and finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ContractViolationError("sigma must be positive and finite")


def regularisation_factor(size: float, params: RegularisationParams) -> float:
    """exp(-(size - mu)**2 / sigma), equal to 1 exactly when size == mu."""
    return math.exp(-((size - params.mu) ** 2) / params.sigma)


def regularised_swap_score(score: float, size: float, params: RegularisationParams) -> float:
    """Scale a raw score by the size bell; never exceeds the raw score."""
    if score < 0:
        raise ContractViolationError("score must be non-negative")
    return score * regularisation_factor(size, params)


@dataclass(frozen=True)
class ScoreRecord:
    """One architecture's scores plus the provenance needed to recompute them."""

    arch_id: str
    swap: int
    reg_swap: float
    size_mb: float
    flops: int
    seed: int
    batch: str

    def regularised(self, reg: RegularisationParams | None) -> "ScoreRecord":
        """This record with ``reg_swap`` under the bell ``reg``; None leaves the raw score."""
        if reg is None:
            return replace(self, reg_swap=float(self.swap))
        return replace(self, reg_swap=regularised_swap_score(self.swap, self.size_mb, reg))
