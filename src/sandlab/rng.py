"""Deterministic random generation for property checks.

Everything here is reproducible from a single integer seed on any
platform: the generator is a 64-bit linear congruential generator with
Knuth's MMIX constants,

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

and the sampler below draws from it in a fixed documented order, so the
same seed always yields the same stream of configurations.
"""

from __future__ import annotations

from .config import Configuration, Tail, _check_int
from .heights import MINUS_INF, PLUS_INF

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
MASK = (1 << 64) - 1


class Lcg64:
    """The package's only randomness source. Seeded, portable, tiny."""

    def __init__(self, seed: int):
        self.state = _check_int("seed", seed) & MASK

    def next_u64(self) -> int:
        self.state = (self.state * MULTIPLIER + INCREMENT) & MASK
        return self.state

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n), reduced from the high bits of
        the state; the low bits of a power-of-two LCG cycle with tiny
        periods and must not be used directly."""
        if type(n) is not int or n < 1:
            _check_int("bound", n, 1)
        return (self.next_u64() >> 33) % n

    def int_between(self, lo: int, hi: int) -> int:
        if type(lo) is not int or type(hi) is not int or hi < lo:
            _check_int("upper end", hi, _check_int("lower end", lo))
        return lo + self.below(hi - lo + 1)


def _value(rng: Lcg64, height: int, allow_inf: bool):
    if allow_inf and rng.below(8) == 0:
        return PLUS_INF if rng.below(2) else MINUS_INF
    return rng.int_between(-height, height)


def sample_configuration(
    rng: Lcg64,
    height: int = 4,
    include_infinities: bool = False,
) -> Configuration:
    """One random configuration, cycling through all four constructor
    shapes: finite deviations, periodic, affine, and general two-tailed."""
    _check_int("height", height, 0)
    kind, value = rng.below(4), lambda: _value(rng, height, include_infinities)
    if kind == 0:  # a dict comprehension draws each key before its value
        return Configuration.finite({rng.int_between(-6, 6): value() for _ in range(rng.below(5))})
    if kind == 1:
        return Configuration.periodic([value() for _ in range(1 + rng.below(4))])
    if kind == 2:
        p, slope = 1 + rng.below(3), rng.int_between(-2, 2)
        return Configuration.affine([value() for _ in range(p)], slope)
    core_len, start = rng.below(4), rng.int_between(-2, 2)
    core, tails = tuple(value() for _ in range(core_len)), []
    for _ in range(2):
        p, slope = 1 + rng.below(3), rng.int_between(-2, 2)
        tails.append(Tail(tuple(value() for _ in range(p)), slope))
    return Configuration(start, core, *tails)
