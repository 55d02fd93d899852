"""Seedable random streams with an explicit, replayable draw contract.

Draws are read from PCG64's raw words, which NumPy's RNG policy (NEP 19) keeps stable.
"""

from __future__ import annotations

from math import ceil

import numpy as np

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_DOUBLE_SCALE = 2.0**-53


class RngStream:
    """Deterministic source of uniform reals, integers and permutations.

    Every randomized routine in this package draws exclusively through this
    interface, so a run is fully determined by the seeds of the streams
    handed to it. ``random_array(k)`` advances the stream exactly as ``k``
    successive ``random()`` calls would, which lets hot loops batch their
    draws without changing replay behavior. Each draw equals what
    ``np.random.Generator(np.random.PCG64(seed))`` returns for the same calls:
    permutation is that Generator's own, and the rest are served from a
    buffer of the bit generator's raw words (_RawBlock).
    """

    def __init__(self, seed):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._block = _RawBlock(self._gen.bit_generator)

    def __repr__(self):
        return f"RngStream(seed={self.seed!r})"

    def random(self) -> float:
        """One uniform draw from [0, 1)."""
        return self._block.double()

    def random_array(self, k: int) -> np.ndarray:
        """``k`` uniform draws from [0, 1)."""
        if k < 0:
            raise ValueError("negative dimensions are not allowed")
        return self._block.doubles(k)

    def randint(self, lo: int, hi: int) -> int:
        """One uniform integer from [lo, hi], both endpoints included."""
        if not _INT64_MIN <= lo <= hi <= _INT64_MAX:
            raise ValueError(f"integer range [{lo}, {hi}] is empty or outside int64")
        return lo + self._block.bounded(hi - lo)

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of 0..n-1 (Fisher-Yates semantics)."""
        self._block.hand_back()
        out = self._gen.permutation(n)
        self._block.restart()
        return out


def derive_stream(root_seed: int, *key: int) -> RngStream:
    """Child stream keyed by (root_seed, *key).

    Distinct keys yield statistically independent streams, and the mapping
    depends only on the key, never on creation order, so per-run streams can
    be derived identically from any process or thread. Note that a derived
    stream differs from ``RngStream(root_seed)`` even for key (0,); plain
    XOR-style derivation would collapse those two, as would seeding with the
    flat tuple (root_seed, *key): SeedSequence zero-pads short entropy, so a
    trailing 0 in the entropy tuple is a no-op and (root, 0) would reproduce
    the root stream. spawn_key is assembled after that padding, which is why
    every key, zeros included, lands on its own stream.
    """
    if not key:
        raise ValueError("derive_stream requires at least one key component")
    seq = np.random.SeedSequence(
        entropy=int(root_seed), spawn_key=tuple(int(k) for k in key)
    )
    return RngStream(seq)


_READ_WORDS = 8192  # the fewest a refill reads: random_raw's cost per call is spread over them


class _RawBlock:
    """A stream's raw words, drawn as numpy 2.x ``Generator`` draws from them.

    A double is ``(word >> 11) * 2**-53``. An integer draw over a span
    (high minus low) that fits 32 bits takes a half-word from the bit
    generator's buffer, low half first with the high half kept, and applies
    Lemire's multiply-and-reject, drawing the next half-word on a rejection.
    Wider spans take full words the same way; a span of 0 consumes nothing.
    See Lemire, "Fast Random Integer Generation in an Interval" (2019).

    raw holds words read ahead of the draws; pos is the next one. Doubles
    leave the half-word buffer alone, so a caller may place half-words among
    them (halves) and draw from them later at once (bounded_at). A half-word
    is named by where it sits in raw read as 32-bit values: word w's low half
    at 2w, its high half at 2w + 1, and -1 for the half buffered before raw.
    half_at names the high half last split off a word, which is buffered
    while has_half holds. Positions stay valid from hold to release.
    """

    def __init__(self, bitgen):
        self._bitgen = bitgen
        self.q = 0  # half-words drawn
        self.held = False
        self.restart()

    def restart(self) -> None:
        """Empty the buffer, for a bit generator that stands where the draws do."""
        state = self._bitgen.state
        self.raw, self.hit_words, self.hits = np.zeros(0, dtype=np.uint64), None, None
        self.pos, self._hit_limit = 0, -1
        self.has_half, self.half_at = bool(state["has_uint32"]), -1
        self._has0, self._half0 = self.has_half, state["uinteger"]

    def hand_back(self) -> None:
        """Move the bit generator back to where the draws stand, unless it is there, and restart."""
        if self.raw.size or self.has_half != self._has0:
            self._bitgen.advance(self.pos - self.raw.size)  # which empties numpy's half-word buffer
            if self.has_half:
                state = self._bitgen.state
                state["has_uint32"], state["uinteger"] = 1, self.half
                self._bitgen.state = state
            self.restart()

    @property
    def half(self) -> int:
        """The half at half_at: what numpy's buffer holds, buffered or spent."""
        return self.raw.item(self.half_at >> 1) >> 32 if self.half_at >= 0 else self._half0

    def hold(self, words: int) -> tuple:
        """Buffer words undrawn words, then keep every word until release; a mark for it."""
        if self.pos + words > self.raw.size:
            self.grow(self.pos + words)
        self.held = True
        return self.pos, self.q, self.has_half, self.half_at

    def release(self, mark: tuple | None = None) -> None:
        """End a hold: back at mark if given, forgetting the draws since; then free a big buffer."""
        self.held = False
        if mark:
            self.pos, self.q, self.has_half, self.half_at = mark
        if self.raw.size > _READ_WORDS:  # more than a refill
            self.hand_back()

    def grow(self, end: int) -> None:
        """Read words until end words are buffered: while held, at least doubling; else after a hand_back."""
        if not self.held:
            end -= self.pos
            self.hand_back()
            self.raw = self._bitgen.random_raw(max(end, _READ_WORDS))
            return
        size = self.raw.size
        extra = self._bitgen.random_raw(max(end - size, size))
        if self._hit_limit >= 0:
            new = np.flatnonzero(extra <= self._hit_limit) + size
            self.hit_words = np.concatenate((self.hit_words, new))
            self.hits += new.tolist()
        self.raw = np.concatenate((self.raw, extra))

    def reserve(self, k: int) -> int:
        """Consume the next k words, growing the buffer when short; the first's position."""
        if self.pos + k > self.raw.size:
            self.grow(self.pos + k)
        p = self.pos
        self.pos = p + k
        return p

    def double(self) -> float:
        p = self.reserve(1)  # before reading self.raw, which may grow
        return (self.raw.item(p) >> 11) * _DOUBLE_SCALE

    def doubles(self, k: int) -> np.ndarray:
        p = self.reserve(int(k))
        return (self.raw[p:p + k] >> 11) * _DOUBLE_SCALE

    def below(self, p: float) -> list[int]:
        """Positions of the undrawn words whose double is below p, kept as hits and hit_words."""
        # (word >> 11) * 2**-53 < p exactly when word < ceil(p * 2**53) << 11.
        self._hit_limit = (ceil(p * 2.0**53) << 11) - 1
        self.hit_words = np.flatnonzero(self.raw[self.pos:] <= self._hit_limit) + self.pos
        self.hits = self.hit_words.tolist()
        return self.hits

    def halves(self, count: int) -> np.ndarray:
        """Draw count half-words for a later bounded_at; where they sit.

        The buffered half comes first, then both halves of each new word.
        """
        buffered = self.has_half
        split = (count - buffered + 1) // 2
        p = self.reserve(split)
        at = np.arange(2 * p - buffered, 2 * p - buffered + count)
        if buffered and count:
            at[0] = self.half_at
        if split:
            self.half_at = 2 * self.pos - 1
        self.q += count
        self.has_half = bool((count + buffered) & 1)
        return at

    def bounded(self, span: int) -> int:
        """Offset in [0, span], consumed as numpy's bounded integer draw."""
        if span == 0:
            return 0
        excl = span + 1
        if span <= _U32:
            while True:
                self.q += 1
                if self.has_half:  # the half property, inline
                    self.has_half, at = False, self.half_at
                    m = (self.raw.item(at >> 1) >> 32 if at >= 0 else self._half0) * excl
                else:  # reserve(1), inline
                    p = self.pos
                    if p == self.raw.size:
                        self.grow(p + 1)
                        p = self.pos
                    self.pos, self.has_half, self.half_at = p + 1, True, 2 * p + 1
                    m = (self.raw.item(p) & _U32) * excl
                # Accepted when the low half reaches Lemire's threshold,
                # (2**32 - excl) % excl, which is below excl.
                if m & _U32 >= excl or m & _U32 >= (_U32 - span) % excl:
                    return m >> 32
        while True:
            p = self.reserve(1)
            m = self.raw.item(p) * excl
            if m & _U64 >= excl or m & _U64 >= (_U64 - span) % excl:
                return m >> 64

    def bounded_at(self, at, spans) -> tuple[np.ndarray, int]:
        """Draws over spans (below 2**32 - 1) from placed half-words, named by where they sit."""
        # Little-endian words, so that word w's low half sits at 2w on any host.
        halves = self.raw.astype("<u8", copy=False).view("<u4")[at]
        if self._has0:
            halves[np.asarray(at) < 0] = self._half0
        excl = spans + 1
        m = halves * np.uint64(excl)  # 64-bit products
        bad = np.flatnonzero(m & _U32 < (_U32 - spans) % excl)
        # Also the first draw Lemire's method rejects: it and all after it are void.
        return m >> 32, int(bad[0]) if bad.size else len(at)
