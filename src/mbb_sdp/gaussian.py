"""Standard normal density, tail probabilities, and the tail bounds the rounding analysis uses.

All bounds require tau >= 2, where the classical sandwich
phi(tau)/(2 tau) <= Pr[Z >= tau] <= phi(tau)/tau holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TailBounds",
    "std_normal_pdf",
    "std_normal_tail",
    "univariate_tail_bounds",
    "bivariate_tail_lower",
    "bivariate_tail_upper",
    "sample_standard_vector",
    "sample_correlated_pairs",
    "pcg64_states",
    "seeded_normals",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])

# np.random.default_rng(entropy) hashes its entropy words with numpy's
# SeedSequence (a 4-word pool, hash chains A and B, all arithmetic mod 2^32)
# and seeds PCG64 from four 64-bit words of the result.  pcg64_states replays
# those steps; these are their constants.
_POOL_SIZE = 4
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class TailBounds:
    """A certified (lower, upper) probability bracket."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(f"bounds ({self.lower}, {self.upper}) are not an ordered probability pair")


def std_normal_pdf(x):
    """Density of N(0, 1); accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_tail(tau):
    """Pr[Z >= tau] via the complementary error function.

    erfc keeps full double precision in the far tail, which a naive
    1 - cdf(tau) subtraction would destroy.
    """
    tau = np.asarray(tau, dtype=float)
    out = 0.5 * _erfc(tau / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def _require_tau(tau: float) -> float:
    tau = float(tau)
    if tau < 2.0:
        raise ValueError(f"tail bounds require tau >= 2, got {tau}")
    return tau


def univariate_tail_bounds(tau: float) -> TailBounds:
    """Bracket phi(tau)/(2 tau) <= Pr[Z >= tau] <= phi(tau)/tau, valid for tau >= 2."""
    tau = _require_tau(tau)
    density = std_normal_pdf(tau)
    return TailBounds(lower=density / (2.0 * tau), upper=density / tau)


def bivariate_tail_lower(tau: float) -> float:
    """Lower bound phi(tau)^2 / (4 tau^2) on Pr[X >= tau, Y >= tau] for
    jointly Gaussian unit pairs with nonnegative correlation, tau >= 2."""
    tau = _require_tau(tau)
    return std_normal_pdf(tau) ** 2 / (4.0 * tau * tau)


def bivariate_tail_upper(tau: float, rho: float) -> float:
    """Upper bound (sqrt(pi)/tau) phi(tau)^2 exp(rho tau^2) on
    Pr[X >= tau, Y >= tau] for unit Gaussian pairs with correlation rho in (-1, 0)."""
    tau = _require_tau(tau)
    rho = float(rho)
    if not -1.0 < rho < 0.0:
        raise ValueError(f"negative-correlation bound requires rho in (-1, 0), got {rho}")
    return (_SQRT_PI / tau) * std_normal_pdf(tau) ** 2 * math.exp(rho * tau * tau)


def sample_standard_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """One draw from N(0, I_d); deterministic given the generator state."""
    d = int(d)
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return rng.standard_normal(d)


def sample_correlated_pairs(rho: float, size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Unit Gaussian pairs with correlation rho, via y = rho x + sqrt(1-rho^2) z."""
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    x = rng.standard_normal(size)
    z = rng.standard_normal(size)
    return x, rho * x + math.sqrt(1.0 - rho * rho) * z


def _hash_chain(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constants init * mult^j (mod 2^32), j = 0..calls; hash call j
    xors with constant j and multiplies by constant j + 1."""
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one chain step per row of the result."""
    values = (values ^ chain[:-1]) * chain[1:]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * _MIX_L - y * _MIX_R
    return mixed ^ (mixed >> 16)


def pcg64_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of np.random.default_rng((seed, t)) for each t
    in range(start, stop), computed together.

    The entropy words of (seed, t) are seed's 32-bit words, low first, then
    t's one word; t must lie below 2**32.  SeedSequence's pool mix and
    generate_state(4, uint64) run on uint32 arrays over all t at once, and
    PCG64's srandom_r seeding on Python ints per t.
    """
    seed, start, stop = int(seed), int(start), int(stop)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"trial range [{start}, {stop}) must lie in [0, 2**32)")
    trials = np.arange(start, stop, dtype=np.uint32)
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = [np.full_like(trials, w) for w in words] + [trials]
    entropy += [np.zeros_like(trials)] * (_POOL_SIZE - len(entropy))
    extra = len(entropy) - _POOL_SIZE
    chain = _hash_chain(*_HASH_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = _hashmix(np.stack(entropy[:_POOL_SIZE]), chain[: _POOL_SIZE + 1])
    j = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain[j : j + _POOL_SIZE]))
        j += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, chain[j : j + _POOL_SIZE + 1]))
        j += _POOL_SIZE
    # generate_state(4, uint64): eight uint32 words cycling the pool, read in
    # little-endian pairs as PCG64's initstate (high, low), initseq (high, low)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_chain(*_HASH_B, 8)).astype(np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = (out[0::2] | (out[1::2] << 32)).tolist()
    states = []
    # srandom_r: inc = 2 initseq + 1, then two steps state = state * MULT + inc
    # from state 0, with initstate added after the first
    for a, b, c, d in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = ((c << 65) | (d << 1) | 1) & _MASK128
        states.append((((inc + ((a << 64) | b)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def seeded_normals(seed: int, start: int, stop: int, dim: int) -> np.ndarray:
    """Row t - start is np.random.default_rng((seed, t)).standard_normal(dim),
    bit for bit, for t in range(start, stop).

    One PCG64 and Generator are re-seeded per row from pcg64_states instead
    of building a generator per t.  The first row's state is checked against
    numpy's own seeding and a mismatch raises RuntimeError.
    """
    states = pcg64_states(seed, start, stop)
    rows = np.empty((len(states), int(dim)))
    if not states:
        return rows
    expected = np.random.default_rng((seed, start)).bit_generator.state["state"]
    if (expected["state"], expected["inc"]) != states[0]:
        raise RuntimeError(f"PCG64 seeding of (seed={seed}, t={start}) disagrees with numpy's SeedSequence")
    bits = np.random.PCG64(0)
    generator = np.random.Generator(bits)
    for row, (state, inc) in zip(rows, states):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=row)
    return rows
