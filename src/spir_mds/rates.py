"""Exact rational download-rate and secrecy-rate formulas.

All quantities count field symbols, so rates are ratios of integers and
everything here is computed with ``fractions.Fraction``; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidParams
from .protocol import Transcript

RationalLike = Union[Fraction, int]

# The PIR capacity's terms are below n**k, of under k * n.bit_length() bits.  A
# larger k than this allows would not print within Python's 4300-digit default.
MAX_CAPACITY_BITS = 14_000


def _check_nm(n: int, m: int):
    if not 1 <= m < n:
        raise InvalidParams(f"need 1 <= m < n, got m={m}, n={n}")


def secrecy_floor(n: int, m: int) -> Fraction:
    """Minimum shared-randomness-to-file-size ratio for a positive rate."""
    _check_nm(n, m)
    return Fraction(m, n - m)


def spir_capacity(n: int, m: int, secrecy: RationalLike) -> Fraction:
    """Best achievable download rate: 1 - m/n given enough shared
    randomness, zero below the secrecy floor."""
    _check_nm(n, m)
    if Fraction(secrecy) >= secrecy_floor(n, m):
        return Fraction(n - m, n)
    return Fraction(0)


def pir_capacity_mds(n: int, m: int, k: int) -> Fraction:
    """Download capacity when only the user's side must stay private:
    the inverse of 1 + m/n + ... + (m/n)^(k-1), in closed form."""
    _check_nm(n, m)
    if k < 1:
        raise InvalidParams(f"need k >= 1, got {k}")
    if k * n.bit_length() > MAX_CAPACITY_BITS:
        raise InvalidParams(f"k={k} is too large for n={n}: the exact capacity passes {MAX_CAPACITY_BITS} bits")
    ratio = Fraction(m, n)
    return (1 - ratio) / (1 - ratio ** k)


@dataclass(frozen=True)
class RateReport:
    """Measured rates of one transcript against the exact formulas."""

    achieved_rate: Fraction
    capacity: Fraction
    achieved_secrecy: Fraction
    secrecy_floor: Fraction
    at_capacity: bool


def measure(transcript: Transcript) -> RateReport:
    """Read symbol counts off a transcript and compare them exactly."""
    p = transcript.params
    file_len = p.file_len
    achieved_rate = Fraction(file_len, transcript.download_count)
    achieved_secrecy = Fraction(transcript.randomness_count, file_len)
    floor = secrecy_floor(p.n, p.m)
    capacity = spir_capacity(p.n, p.m, achieved_secrecy)
    return RateReport(
        achieved_rate=achieved_rate,
        capacity=capacity,
        achieved_secrecy=achieved_secrecy,
        secrecy_floor=floor,
        at_capacity=(achieved_rate == capacity and achieved_secrecy >= floor),
    )
