"""The seeded operation stream a workload's single client replays.

A stream is a fixed interleaving of reads (one ``recommend`` call for
one user) and updates (one ``add_interactions`` call folding in one
fresh ``(user, item)`` pair).  Read users are drawn Zipf-skewed over a
fixed popularity order, so a few users are hot and the result cache
sees repeats.  Update users walk a seeded permutation of all users, so
every user interacts once before any interacts twice and the mix of
update costs barely depends on the seed; update items are drawn
uniformly among items the user has never interacted with, so every
update adds exactly one interaction.

The stream is a pure function of its arguments: the same seed gives the
same operations in the same order, whatever the speed of the system
replaying it.  Its first :attr:`OpStream.prefix_len` operations form the
fixed request set that quality and the output checks are computed on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Set

import numpy as np

READ = "read"
UPDATE = "update"


@dataclass(frozen=True)
class Op:
    """One client operation; ``item`` is ``-1`` for reads."""

    kind: str
    user: int
    item: int = -1


class OpStream:
    """Seeded, replayable stream of reads and updates.

    Parameters
    ----------
    num_users, num_items:
        Population sizes.
    known:
        Items each user already has (training and held-out test
        positives); update items avoid them, and each other.
    seed:
        Workload seed: drives every draw of the stream.
    zipf:
        Skew exponent ``a`` of ``P(rank r) ~ 1 / r**a`` for read users.
    popularity_seed:
        Seeds the popularity order, which is part of the population, not
        of the stream: who is hot, and so which users miss the cache,
        stays the same from seed to seed.
    update_every:
        ``None`` replays every prefix read, then every prefix update,
        then reads only.  An integer ``n`` replays blocks of ``n`` reads
        followed by one update, for as long as the stream is read.
    prefix_reads, prefix_updates:
        Size of the fixed request set.  With ``update_every=n`` the
        prefix is ``prefix_updates`` whole blocks, so ``prefix_reads``
        must equal ``n * prefix_updates``.
    """

    def __init__(self, num_users: int, num_items: int,
                 known: Mapping[int, Set[int]], seed: int, zipf: float,
                 update_every: Optional[int], prefix_reads: int,
                 prefix_updates: int, popularity_seed: int = 0):
        if num_users < 1 or num_items < 2:
            raise ValueError("need at least one user and two items")
        if update_every is not None:
            if update_every < 1:
                raise ValueError("update_every must be >= 1")
            if prefix_reads != update_every * prefix_updates:
                raise ValueError(
                    "an interleaved prefix is whole blocks: prefix_reads "
                    "must equal update_every * prefix_updates")
        self.num_users = num_users
        self.num_items = num_items
        self.update_every = update_every
        self.prefix_reads = prefix_reads
        self.prefix_updates = prefix_updates
        self._rng = np.random.default_rng(seed)
        self._users_by_rank = np.random.default_rng(
            popularity_seed).permutation(num_users)
        weights = 1.0 / np.arange(1, num_users + 1, dtype=np.float64) ** zipf
        self._update_order = self._rng.permutation(num_users)
        self._updates = 0
        self._cdf = np.cumsum(weights / weights.sum())
        self._taken: Dict[int, Set[int]] = {
            int(user): set(items) for user, items in known.items()}
        self.prefix = [self._next(index)
                       for index in range(self.prefix_len)]

    @property
    def prefix_len(self) -> int:
        return self.prefix_reads + self.prefix_updates

    def _user(self) -> int:
        rank = int(np.searchsorted(self._cdf, self._rng.random(),
                                   side="right"))
        return int(self._users_by_rank[min(rank, self.num_users - 1)])

    def _kind(self, index: int) -> str:
        if self.update_every is None:
            if self.prefix_reads <= index < self.prefix_len:
                return UPDATE
            return READ
        return UPDATE if index % (self.update_every + 1) == \
            self.update_every else READ

    def _next(self, index: int) -> Op:
        if self._kind(index) == READ:
            return Op(READ, self._user())
        user = int(self._update_order[self._updates % self.num_users])
        self._updates += 1
        taken = self._taken.setdefault(user, set())
        if len(taken) >= self.num_items:
            raise ValueError(f"user {user} already has every item")
        while True:
            item = int(self._rng.integers(self.num_items))
            if item not in taken:
                break
        taken.add(item)
        return Op(UPDATE, user, item)

    def __iter__(self) -> Iterator[Op]:
        """The prefix, then the stream's continuation, without end."""
        yield from self.prefix
        index = self.prefix_len
        while True:
            yield self._next(index)
            index += 1


def digest(ops: List[Op]) -> str:
    """Stable fingerprint of an operation sequence."""
    text = ";".join(f"{op.kind[0]}{op.user}:{op.item}" for op in ops)
    return hashlib.sha256(text.encode()).hexdigest()
