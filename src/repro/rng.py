"""Seeded random draws in pure Python: numpy's default generator, draw for draw.

Every dataset, query mix, churn plan and link delay of the reproduction is
drawn from a :class:`Generator` made by :func:`default_rng`.  It reproduces
``numpy.random.default_rng(seed)`` exactly for the methods the package
calls: the seed is expanded by numpy's ``SeedSequence`` (a pool of four
32-bit words) into a PCG64 state, and each method consumes the 64-bit
XSL-RR stream the way numpy's C distributions do — Lemire's bounded
integers on 32-bit halves (the unused upper half of a 64-bit output is
buffered across calls), the multiplication and PTRS Poisson samplers, the
256-layer ziggurat normal, Floyd's and the tail-shuffle sampling without
replacement, and Fisher–Yates on masked rejection.

Only the methods used by ``repro`` exist.  The stream is pinned by the
golden digests in the test suite, so it cannot move with whatever numpy
release is installed — and none needs to be.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

from ._ziggurat import FI, KI, WI

__all__ = ["Generator", "default_rng"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# SeedSequence hashing constants (O'Neill's seed_seq_fe).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_ZIGGURAT_NOR_R = 3.6541528853610087963519472518
_ZIGGURAT_NOR_INV_R = 0.27366123732975827203338247596

_LOGGAM_COEFFICIENTS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)


def _seed_words(entropy: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, uint64)``."""
    words = []
    while True:
        words.append(entropy & _MASK32)
        entropy >>= 32
        if not entropy:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in words[_POOL_SIZE:]:
        for target in range(_POOL_SIZE):
            pool[target] = mix(pool[target], hashmix(word))

    hash_const = _INIT_B
    state = []
    for index in range(8):
        value = pool[index % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[index] | (state[index + 1] << 32) for index in range(0, 8, 2)]


def _loggam(x: float) -> float:
    """log Γ(x) as numpy's ``random_loggam`` computes it (Stirling series)."""
    if x == 1.0 or x == 2.0:
        return 0.0
    shift = int(7 - x) if x < 7.0 else 0
    x0 = x + shift
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFICIENTS[9]
    for coefficient in _LOGGAM_COEFFICIENTS[8::-1]:
        gl0 *= x2
        gl0 += coefficient
    gl = gl0 / x0 + 0.5 * 1.8378770664093453e00 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(shift):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


class Generator:
    """A PCG64 stream with numpy ``Generator`` semantics for the methods used."""

    __slots__ = ("_state", "_increment", "_has_half", "_half")

    def __init__(self, seed: int | None = None) -> None:
        if seed is None:
            entropy = int.from_bytes(os.urandom(16), "little")
        else:
            entropy = int(seed)
            if entropy < 0:
                raise ValueError("expected non-negative integer seed")
        words = _seed_words(entropy)
        initial_state = (words[0] << 64) | words[1]
        sequence = (words[2] << 64) | words[3]
        self._increment = ((sequence << 1) | 1) & _MASK128
        # pcg64_srandom: step from 0, add the initial state, step again.
        self._state = (self._increment + initial_state) & _MASK128
        self._state = (self._state * _PCG_MULTIPLIER + self._increment) & _MASK128
        self._has_half = False
        self._half = 0

    # -- the bit stream ------------------------------------------------------------------ #

    def _next64(self) -> int:
        state = (self._state * _PCG_MULTIPLIER + self._increment) & _MASK128
        self._state = state
        rotation = state >> 122
        value = ((state >> 64) ^ state) & _MASK64
        return ((value >> rotation) | (value << (64 - rotation))) & _MASK64

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        value = self._next64()
        self._has_half = True
        self._half = value >> 32
        return value & _MASK32

    def _bounded(self, span: int) -> int:
        """Uniform in ``[0, span]`` (Lemire on 32 bits; ``span`` < 2**32)."""
        if span == 0:
            return 0
        if span > _MASK32:
            raise ValueError("ranges of more than 2**32 values are not supported")
        if span == _MASK32:
            return self._next32()
        excluded = span + 1
        product = self._next32() * excluded
        leftover = product & _MASK32
        if leftover < excluded:
            threshold = (_MASK32 - span) % excluded
            while leftover < threshold:
                product = self._next32() * excluded
                leftover = product & _MASK32
        return product >> 32

    def _interval(self, bound: int) -> int:
        """Uniform in ``[0, bound]`` by masked rejection (``random_interval``)."""
        if bound == 0:
            return 0
        mask = (1 << bound.bit_length()) - 1  # a list never reaches 2**32 items
        value = self._next32() & mask
        while value > bound:
            value = self._next32() & mask
        return value

    def _shuffle_indexes(self, values: list[int], first: int) -> None:
        """numpy's ``_shuffle_int``: positions ``n-1`` down to ``first``, Lemire draws."""
        for index in range(len(values) - 1, first - 1, -1):
            other = self._bounded(index)
            values[index], values[other] = values[other], values[index]

    # -- draws --------------------------------------------------------------------------- #

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 random bits."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in ``[low, high)``."""
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform int in ``[low, high)``, or ``[0, low)`` when ``high`` is omitted."""
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError("low >= high")
        return low + self._bounded(high - low - 1)

    def poisson(self, lam: float = 1.0) -> int:
        """A Poisson draw: multiplication below ``lam`` = 10, PTRS at or above."""
        if lam < 0:
            raise ValueError("lam < 0")
        if lam == 0:
            return 0
        if lam >= 10:
            return self._poisson_ptrs(lam)
        limit = math.exp(-lam)
        count = 0
        product = 1.0
        while True:
            product *= self.random()
            if product > limit:
                count += 1
            else:
                return count

    def _poisson_ptrs(self, lam: float) -> int:
        # Hörmann's transformed rejection with squeeze.
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:
                continue  # k would be -inf, which the C code rejects as k < 0
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            log_v = math.log(v) if v > 0.0 else -math.inf
            if log_v + math.log(invalpha) - math.log(a / (us * us) + b) <= (
                -lam + k * loglam - _loggam(k + 1)
            ):
                return k

    def standard_normal(self) -> float:
        """A standard normal draw from the 256-layer ziggurat."""
        while True:
            bits = self._next64()
            layer = bits & 0xFF
            bits >>= 8
            magnitude = (bits >> 1) & 0x000FFFFFFFFFFFFF
            x = magnitude * WI[layer]
            if bits & 0x1:
                x = -x
            if magnitude < KI[layer]:
                return x
            if layer == 0:
                while True:
                    xx = -_ZIGGURAT_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        tail = _ZIGGURAT_NOR_R + xx
                        return -tail if (magnitude >> 8) & 0x1 else tail
            elif (FI[layer - 1] - FI[layer]) * self.random() + FI[layer] < math.exp(-0.5 * x * x):
                return x

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """``exp(mean + sigma * z)`` for a standard normal ``z``."""
        return math.exp(mean + sigma * self.standard_normal())

    def choice(self, a: int | Sequence, size: int, replace: bool = True) -> list:
        """``size`` distinct draws from ``range(a)`` or from the sequence ``a``.

        Only sampling without replacement is supported.  It takes numpy's
        branches: a sample of more than a fiftieth of a population above
        10,000 is the tail of a partial shuffle, anything else is Floyd's
        algorithm followed by a shuffle of the sample.
        """
        if replace:
            raise ValueError("only replace=False is supported")
        population = a if isinstance(a, int) else len(a)
        if not 0 <= size <= population:
            raise ValueError("cannot take a larger sample than population when replace=False")
        if population > 10_000 and size > population // 50:
            indexes = list(range(population))
            self._shuffle_indexes(indexes, max(population - size, 1))
            indexes = indexes[population - size :]
        else:
            seen: set[int] = set()
            indexes = []
            for bound in range(population - size, population):
                value = self._bounded(bound)
                if value in seen:
                    value = bound
                seen.add(value)
                indexes.append(value)
            self._shuffle_indexes(indexes, 1)
        if isinstance(a, int):
            return indexes
        return [a[index] for index in indexes]

    def shuffle(self, values: list) -> None:
        """Shuffle ``values`` in place (Fisher–Yates, last position first)."""
        for index in range(len(values) - 1, 0, -1):
            other = self._interval(index)
            values[index], values[other] = values[other], values[index]


def default_rng(seed: int | None = None) -> Generator:
    """A :class:`Generator` seeded like ``numpy.random.default_rng(seed)``."""
    return Generator(seed)
