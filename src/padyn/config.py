"""Shared configuration for all truncation levels.

Every quantity in this package is computed at a finite level chosen up
front: a residue level for power classes, a matrix level for integral
matrices, a valuation window for type classification, and a separation
factor for the scale ladder used by witness constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

RESIDUE_LEVEL_MAX = 12  # largest residue level n accepted anywhere


def is_prime(k: int) -> bool:
    """Deterministic primality test by trial division (desk-scale inputs)."""
    if k < 2:
        return False
    if k < 4:
        return True
    if k % 2 == 0:
        return False
    d = 3
    while d * d <= k:
        if k % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class GlobalConfig:
    """Immutable bundle of truncation parameters.

    Attributes:
        prime: the residue characteristic p; must be prime.
        residue_level_n: level n of the power-class group K*/(K*)^n.
        matrix_level_m: matrices are tracked modulo p^m.
        valuation_window_w: classification window; differences with
            valuation beyond the window count as infinitesimal.
        ladder_gap: multiplicative separation factor between ladder rungs;
            at least 2, since at gap 1 the witness blocks overlap and the
            projective and SL(2) flow checks give wrong answers.
    """

    prime: int = 5
    residue_level_n: int = 2
    matrix_level_m: int = 1
    valuation_window_w: int = 2
    ladder_gap: int = 8

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError(f"prime must be a prime number, got {self.prime}")
        if self.residue_level_n < 1:
            raise ValueError("residue_level_n must be >= 1")
        if self.residue_level_n > RESIDUE_LEVEL_MAX:
            raise ValueError(f"residue_level_n must be at most {RESIDUE_LEVEL_MAX}")
        if self.matrix_level_m < 1:
            raise ValueError("matrix_level_m must be >= 1")
        if self.valuation_window_w < 1:
            raise ValueError("valuation_window_w must be >= 1")
        if self.ladder_gap < 2:
            raise ValueError("ladder_gap must be >= 2")
