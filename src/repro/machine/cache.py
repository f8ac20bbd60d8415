"""Per-processor shared-data cache (Section 6).

A set-associative, LRU, **write-through / no-write-allocate** cache in
front of shared memory.  Write-through keeps the paper's "stores are
fire-and-forget and never switch" semantics without an ownership protocol:
every shared store propagates a word to memory, where the full-map
directory (:mod:`repro.machine.directory`) invalidates the other cached
copies.  The writer's own copy, if present, is updated in place.

Addresses are word addresses; a line holds ``line_words`` consecutive
words and is indexed by ``(addr // line_words) % num_sets``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.machine.config import CacheConfig


class Cache:
    """One processor's shared-data cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.line_words = config.line_words
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        # One OrderedDict per set: line_number -> list of word values.
        # OrderedDict order = LRU order (oldest first).
        self._sets: List["OrderedDict[int, List]"] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    # -- lookups -----------------------------------------------------------------

    def _set_for(self, line: int) -> "OrderedDict[int, List]":
        return self._sets[line % self.num_sets]

    def lookup(self, addr: int):
        """Return the cached value of word *addr*, or None on a miss.

        A hit refreshes the line's LRU position.  (Word values are never
        None; shared memory is initialised to numeric zero.)
        """
        line = addr // self.line_words
        cache_set = self._sets[line % self.num_sets]
        data = cache_set.get(line)
        if data is None:
            return None
        cache_set.move_to_end(line)
        return data[addr - line * self.line_words]

    def contains(self, addr: int) -> bool:
        line = addr // self.line_words
        return line in self._sets[line % self.num_sets]

    # -- mutations ---------------------------------------------------------------

    def install(self, line: int, data: List) -> Optional[int]:
        """Install a fetched line; returns the evicted line number, if any.

        Lines are always clean (write-through), so eviction is silent.
        """
        cache_set = self._set_for(line)
        victim = None
        if line not in cache_set and len(cache_set) >= self.assoc:
            victim, _ = cache_set.popitem(last=False)
        cache_set[line] = list(data)
        cache_set.move_to_end(line)
        return victim

    def update_if_present(self, addr: int, value) -> bool:
        """Write-through local update: refresh our own copy on a store."""
        line = addr // self.line_words
        cache_set = self._sets[line % self.num_sets]
        data = cache_set.get(line)
        if data is None:
            return False
        data[addr - line * self.line_words] = value
        return True

    def invalidate(self, line: int) -> bool:
        """Directory-initiated invalidation; True if the line was present."""
        cache_set = self._set_for(line)
        return cache_set.pop(line, None) is not None

    def flush(self) -> None:
        """Drop every line (used by tests and machine reset)."""
        for cache_set in self._sets:
            cache_set.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)


class OneLineCache:
    """The tiny per-thread cache of Section 5.2.

    One line of 32 words, used only as an *estimator*: a load that hits in
    this cache touched the same structure/array as the preceding reference
    and could therefore have been grouped with it by an inter-block
    compiler.  It stores no data — only the current line number.
    """

    def __init__(self, line_words: int = 32):
        self.line_words = line_words
        self._line: Optional[int] = None
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Record an access; True when it hits the single resident line."""
        line = addr // self.line_words
        if line == self._line:
            self.hits += 1
            return True
        self._line = line
        self.misses += 1
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
