"""Per-slot random streams for the evolution loops, seeded in batches.

Streams(seed, slots)(generation, slot) is bit for bit
np.random.default_rng([seed, generation, slot]), the stream a child of
a run draws from.  default_rng spends nearly all its time in numpy's
SeedSequence, whose per-call cost dwarfs the hash itself.  Here one
vectorised pass of the same hash covers every (generation, slot) row
of a batch, and each stream's PCG64 is built from its ready words, at
a fraction of the cost per stream.

Each stream is a Stream around that Generator.  numpy's integers
spends most of a small draw on argument handling, so Stream.integers
draws itself when 0 < high - low < 2**32 and size is None or an int:
numpy's 32-bit Lemire rule on the uint32 halves of random_raw(), low
half first, as PCG64 splits them.  A scalar draw is a python int.
numpy keeps the unused high half for its next 32-bit draw; Stream
keeps it instead, hands it to the bit generator before any other call
can read it (any other attribute, bit_generator included) and takes
numpy's over at its next draw.  So every call gives numpy's values and
leaves bit_generator.state as numpy would.  random is the Generator's
own method: float64 draws never read the pending half (float32 ones
would, and pcgp makes none).

Importing this module imports numpy.random, which takes 11-14 ms on a
2-vCPU VM; the loops import it when a run starts, so `import pcgp`
does not.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# one hash pass costs about 100 us whatever its row count, and 1+lambda
# has only lambda slots per generation, so a batch spans generations
_BATCH_ROWS = 512


def _words(n: int) -> list:
    """The 32-bit words default_rng takes from a non-negative integer, low word first."""
    words = [n & _MASK]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK)
    return words


def _consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n, as an (n, 1) np.uint32 column."""
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & _MASK)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each values[i]: xor the running hash
    constant consts[i], then multiply by the next one, consts[i + 1]."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(column).generate_state(4, np.uint64) for every column
    of entropy, an (n_words, rows) np.uint32 array.

    The hash is SeedSequence's.  Its constants do not depend on the
    data, so each group of steps that reads no result of another is one
    operation on a (steps, rows) array.  Every operand is an np.uint32
    array, so products wrap without numpy's overflow warning for scalars.
    """
    n = len(entropy)
    consts = _consts(_INIT_A, _MULT_A, _POOL * (_POOL + max(0, n - _POOL)) + 1)
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:min(n, _POOL)] = entropy[:_POOL]
    pool = _hashmix(pool, consts[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, n):                 # entropy longer than the pool
        pool = _mix(pool, _hashmix(entropy[src], consts[k:k + _POOL + 1]))
        k += _POOL
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _consts(_INIT_B, _MULT_B, 2 * _POOL + 1))
    # generate_state's uint64 words are pairs of uint32 words, low first
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _ReadySeed(ISeedSequence):
    """A seed sequence whose generate_state returns words hashed beforehand."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only the 4 uint64 words PCG64 asks for are ready")
        return self.state


class Streams:
    """The per-slot random streams of one run.

    stream(generation, slot) is bit for bit
    np.random.default_rng([seed, generation, slot]).  A batch hashes
    every slot of max(1, _BATCH_ROWS // slots) consecutive generations,
    or fewer where a generation number needs one more 32-bit word, and
    is refilled from the generation asked for when it lies outside.
    """

    def __init__(self, seed: int, slots: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = np.array(_words(seed), dtype=np.uint32)[:, None, None]
        self.slots = slots
        self.generations = max(1, _BATCH_ROWS // slots)
        self._fill(0)

    def _fill(self, first: int):
        if first < 0:
            raise ValueError(f"generation must be non-negative, got {first}")
        width, seed_len = len(_words(first)), len(self.seed)
        # rows hashed together share an entropy length, so the batch stops
        # where the generation needs one more 32-bit word
        self.first, self.stop = first, min(first + self.generations, 1 << 32 * width)
        gens = range(first, self.stop)
        entropy = np.empty((seed_len + width + 1, len(gens), self.slots), dtype=np.uint32)
        entropy[:seed_len] = self.seed
        entropy[seed_len:-1] = np.array(
            [[g >> 32 * j & _MASK for g in gens] for j in range(width)],
            dtype=np.uint32)[:, :, None]
        entropy[-1] = np.arange(self.slots, dtype=np.uint32)
        self.states = _seed_states(entropy.reshape(len(entropy), -1))

    def __call__(self, generation: int, slot: int) -> Stream:
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} outside [0, {self.slots})")
        if not self.first <= generation < self.stop:
            self._fill(generation)
        offset = (generation - self.first) * self.slots
        return Stream(Generator(PCG64(_ReadySeed(self.states[offset + slot]))))


class Stream:
    """A fresh Generator whose integers draws run here (module docstring).
    _has and _half mirror numpy's uint32 buffer; _dirty: the bit
    generator's copy is stale; _lent: numpy may have changed it.  Class
    defaults, so __getattr__ cannot recurse on a half-built instance."""

    _gen, _has, _half, _dirty, _lent = None, 0, 0, 0, 0

    def __init__(self, gen: Generator):
        self._gen, self.random = gen, gen.random

    def _draws(self, n: int, count: int) -> list:
        """count draws below n by numpy's buffered_bounded_lemire_uint32:
        the high word of n times a uint32, redrawn while the low word is
        below 2**32 % n.  Nothing is drawn for n = 1, as in numpy."""
        if n == 1:
            return [0] * count
        if self._lent:
            state = self._gen.bit_generator.state
            self._has, self._half, self._lent = state["has_uint32"], state["uinteger"], 0
        has, half, raw = self._has, self._half, self._gen.bit_generator.random_raw
        threshold, out = (_MASK + 1) % n, []
        while len(out) < count:
            if has:
                has, word = 0, half
            else:
                bits = raw()
                has, half, word = 1, bits >> 32, bits & _MASK
            m = word * n
            if m & _MASK >= threshold:
                out.append(m >> 32)
        self._has, self._half, self._dirty = has, half, 1
        return out

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        lo, hi = (0, low) if high is None else (low, high)
        if (type(lo) is type(hi) is int and dtype is np.int64 and endpoint is False
                and 0 < hi - lo <= _MASK and -1 << 63 <= lo and hi <= 1 << 63):
            if size is None:
                return lo + self._draws(hi - lo, 1)[0]
            if type(size) is int and size >= 0:
                return np.array([lo + v for v in self._draws(hi - lo, size)], np.int64)
        return self.__getattr__("integers")(low, high, size, dtype, endpoint)

    def __getattr__(self, name):
        """Any other Generator attribute, the pending half handed back."""
        if self._dirty:
            state = self._gen.bit_generator.state
            state["has_uint32"], state["uinteger"] = self._has, self._half
            self._gen.bit_generator.state, self._dirty = state, 0
        self._lent = 1
        return getattr(self._gen, name)
