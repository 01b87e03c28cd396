"""Communication statistics collected by the network layer.

Two complementary counters are kept per message kind and per category:

- ``packets`` — number of point-to-point transmissions (one per hop), and
- ``values``  — the paper's metric: scalar values carried × hops travelled.

Experiments report ``values`` totals; ``packets`` is useful for debugging
and for the complexity checks (Theorems 2–3 bound packet counts).

A third family counts **delivery failures**: messages the network layer
dropped as structured failures (dead destination, severed link, no
surviving route) instead of raising mid-simulation.  Failed messages are
never charged hops — they record ``drops_by_kind`` / ``drops_by_reason``
instead, so fault experiments can report loss without polluting the
paper's message metric.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.sim.messages import Message


@dataclass(slots=True)
class MessageStats:
    """Mutable accumulator of communication costs."""

    packets_by_kind: Counter = field(default_factory=Counter)
    values_by_kind: Counter = field(default_factory=Counter)
    packets_by_category: Counter = field(default_factory=Counter)
    values_by_category: Counter = field(default_factory=Counter)
    drops_by_kind: Counter = field(default_factory=Counter)
    drops_by_reason: Counter = field(default_factory=Counter)
    # Running totals, so total_packets/total_values are O(1) — hot paths
    # (e.g. per-update cost deltas) read them once or twice per message.
    # Sentinel -1 means "derive from the by-kind counter once, at init";
    # snapshot()/diff() pass the already-known totals so copying stats is
    # O(distinct kinds) and never re-walks the counters.
    _total_packets: int = field(default=-1, repr=False, compare=False)
    _total_values: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._total_packets < 0:
            self._total_packets = sum(self.packets_by_kind.values())
        if self._total_values < 0:
            self._total_values = sum(self.values_by_kind.values())

    def record(self, message: Message, hops: int = 1) -> None:
        """Charge *message* for travelling *hops* hops."""
        self.charge(message.kind, message.category, message.values, hops)

    def charge(self, kind: str, category: str, values: int, hops: int = 1) -> None:
        """Charge *values* scalar values of *kind*/*category* over *hops* hops.

        Equivalent to :meth:`record` with a matching :class:`Message`;
        accounting-only call sites (costs charged without a message object
        travelling the network) use this to skip the construction.
        """
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        if values < 1:
            raise ValueError(f"message must carry at least one value, got {values}")
        total = hops * values
        self.packets_by_kind[kind] += hops
        self.values_by_kind[kind] += total
        self.packets_by_category[category] += hops
        self.values_by_category[category] += total
        self._total_packets += hops
        self._total_values += total

    def charge_batch(self, kind: str, category: str, values: int, count: int) -> None:
        """Charge *count* single-hop messages of identical kind/category/values.

        One counter update per family instead of *count*; the totals are
        exactly what *count* :meth:`charge` calls with ``hops=1`` would
        accumulate.  Used by the array engine's batched broadcast, where a
        whole neighbourhood receives the same-shaped message.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if values < 1:
            raise ValueError(f"message must carry at least one value, got {values}")
        total = count * values
        self.packets_by_kind[kind] += count
        self.values_by_kind[kind] += total
        self.packets_by_category[category] += count
        self.values_by_category[category] += total
        self._total_packets += count
        self._total_values += total

    def record_drop(self, message: Message, reason: str) -> None:
        """Record a structured delivery failure (no hops are charged)."""
        self.drop(message.kind, reason)

    def drop(self, kind: str, reason: str) -> None:
        """Record a delivery failure by *kind*/*reason* alone.

        Accounting-only counterpart of :meth:`record_drop` for call sites
        where no :class:`Message` object travels (e.g. a query engine
        noting that a dead relay made a cluster unreachable).
        """
        self.drops_by_kind[kind] += 1
        self.drops_by_reason[reason] += 1

    @property
    def total_drops(self) -> int:
        """Messages dropped as structured delivery failures."""
        return sum(self.drops_by_reason.values())

    @property
    def total_packets(self) -> int:
        """Point-to-point transmissions recorded (one per hop)."""
        return self._total_packets

    @property
    def total_values(self) -> int:
        """The paper's "number of messages" (single-value messages × hops)."""
        return self._total_values

    def category_values(self, category: str) -> int:
        """Value-messages recorded under *category*."""
        return self.values_by_category.get(category, 0)

    def snapshot(self) -> "MessageStats":
        """Return an independent copy of the current counters."""
        return MessageStats(
            packets_by_kind=Counter(self.packets_by_kind),
            values_by_kind=Counter(self.values_by_kind),
            packets_by_category=Counter(self.packets_by_category),
            values_by_category=Counter(self.values_by_category),
            drops_by_kind=Counter(self.drops_by_kind),
            drops_by_reason=Counter(self.drops_by_reason),
            _total_packets=self._total_packets,
            _total_values=self._total_values,
        )

    def diff(self, earlier: "MessageStats") -> "MessageStats":
        """Return the costs incurred since *earlier* (a prior snapshot).

        Counters only grow, so per-kind differences are non-negative and
        the running totals subtract in O(1) — no counter re-walk.
        """
        return MessageStats(
            packets_by_kind=self.packets_by_kind - earlier.packets_by_kind,
            values_by_kind=self.values_by_kind - earlier.values_by_kind,
            packets_by_category=self.packets_by_category - earlier.packets_by_category,
            values_by_category=self.values_by_category - earlier.values_by_category,
            drops_by_kind=self.drops_by_kind - earlier.drops_by_kind,
            drops_by_reason=self.drops_by_reason - earlier.drops_by_reason,
            _total_packets=self._total_packets - earlier._total_packets,
            _total_values=self._total_values - earlier._total_values,
        )

    def reset(self) -> None:
        """Clear all counters."""
        self.packets_by_kind.clear()
        self.values_by_kind.clear()
        self.packets_by_category.clear()
        self.values_by_category.clear()
        self.drops_by_kind.clear()
        self.drops_by_reason.clear()
        self._total_packets = 0
        self._total_values = 0

    def __repr__(self) -> str:
        return (
            f"MessageStats(values={self.total_values}, packets={self.total_packets}, "
            f"by_category={dict(self.values_by_category)})"
        )
