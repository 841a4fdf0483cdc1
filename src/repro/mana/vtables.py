"""Virtual-ID tables: the virtual-to-real mappings of process virtualization.

A virtual ID is what lives in application memory; the real object it maps
to can be rebound after a restart (paper Section II-C).  The table
charges a per-lookup cost that depends on the configured backend —
ordered map, O(log n), as in the original MANA, or a hash table, O(1) —
reproducing Section III-I item 1: with request virtualization generating
IDs at high rate, the lookup structure matters.

The cost is *reported*, not yielded: wrappers accumulate lookup costs and
charge them in a single ``Advance`` per wrapper, which keeps the event
count manageable at 2048 ranks.
"""

from __future__ import annotations

import math
from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar

from repro.errors import ManaError
from repro.mana.config import VtableBackend

V = TypeVar("V")


class VirtualTable(Generic[V]):
    """One virtual-ID space (communicators, requests, groups, ...).

    The table itself — the virtual-to-real mapping — is portable
    upper-half state; only the per-lookup *pricing* is machine-derived,
    so it flows through the injected
    :class:`~repro.mana.binding.LowerHalfBinding` and is re-derived on
    the target machine after a cross-machine restore.
    """

    def __init__(
        self,
        name: str,
        binding,
        first_id: int = 1,
    ):
        self.name = name
        self._binding = binding
        self._table: Dict[int, V] = {}
        self._next_id = first_id
        #: lookup/insert/delete counters and accumulated modeled cost
        self.lookups = 0
        self.inserts = 0
        self.deletes = 0
        self.peak_size = 0
        # the cost model is pure in (backend, table size): HASH is one
        # constant; MAP is memoized per table size (same float-op order)
        if binding.cfg.vtable is VtableBackend.HASH:
            self._hash_cost: Optional[float] = binding.mana_sw_time(
                binding.cfg.overheads.hash_lookup
            )
        else:
            self._hash_cost = None
        self._map_cost_memo: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def _op_cost(self) -> float:
        """One operation's modeled cost at the table's current size
        (HASH callers on the hot path read ``_hash_cost`` directly)."""
        c = self._hash_cost
        if c is not None:
            return c
        n = len(self._table)
        c = self._map_cost_memo.get(n)
        if c is None:
            levels = max(1.0, math.log2(max(2, n)))
            nominal = self._binding.cfg.overheads.map_lookup_per_level * levels
            c = self._binding.mana_sw_time(nominal)
            self._map_cost_memo[n] = c
        return c

    # ------------------------------------------------------------------
    def create(self, real: V) -> Tuple[int, float]:
        """Insert a real object; returns (virtual id, modeled cost)."""
        vid = self._next_id
        self._next_id += 1
        self._table[vid] = real
        self.inserts += 1
        if len(self._table) > self.peak_size:
            self.peak_size = len(self._table)
        c = self._hash_cost
        return vid, (c if c is not None else self._op_cost())

    def lookup(self, vid: int) -> Tuple[V, float]:
        """Translate virtual -> real; returns (real, modeled cost)."""
        self.lookups += 1
        try:
            real = self._table[vid]
        except KeyError:
            raise ManaError(
                f"{self.name}: virtual id {vid} is not mapped "
                "(stale handle, or retired request reused?)"
            ) from None
        c = self._hash_cost
        return real, (c if c is not None else self._op_cost())

    def try_lookup(self, vid: int) -> Tuple[Optional[V], float]:
        self.lookups += 1
        return self._table.get(vid), self._op_cost()

    def rebind(self, vid: int, real: V) -> None:
        """Point an existing virtual id at a new real object (restart)."""
        if vid not in self._table:
            raise ManaError(f"{self.name}: cannot rebind unmapped id {vid}")
        self._table[vid] = real

    def delete(self, vid: int) -> float:
        """Remove a mapping; returns the modeled cost."""
        self.deletes += 1
        if self._table.pop(vid, None) is None:
            raise ManaError(f"{self.name}: delete of unmapped id {vid}")
        # MAP prices the table as it stands *after* the pop
        c = self._hash_cost
        return c if c is not None else self._op_cost()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, vid: int) -> bool:
        return vid in self._table

    def items(self) -> Iterator[Tuple[int, V]]:
        return iter(sorted(self._table.items()))
