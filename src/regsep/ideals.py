"""Exact set algebra for markings, omega-markings, and up/down-closed subsets of N^d.

Vectors are plain tuples.  A marking is a tuple of non-negative ints.  An
omega-marking may additionally contain OMEGA, which is `math.inf`: the top
element of N_omega, above every natural and unchanged by adding or
subtracting one.  So the plain `<=`, `min`, `+` and `-` on coordinates are
the order, meet and token updates of N_omega, exact as long as OMEGA only
meets naturals.  An omega-marking u denotes the ideal of all markings m
with m <= u componentwise; a finite antichain of omega-markings denotes a
downward-closed set, and a finite antichain of markings denotes an
upward-closed set via its minimal elements.

Canonical ordering of antichains is plain tuple order, which puts OMEGA
last, so serialized artifacts are byte-stable across runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import add, ge, le, or_, sub
from typing import Iterable, Union

from .config import DEFAULT, Settings, is_count
from .errors import BudgetExceededError, InputError

OMEGA = math.inf

Coord = Union[int, float]
Marking = tuple[int, ...]
OmegaMarking = tuple[Coord, ...]
_BITS = tuple(1 << i for i in range(64))  # places past 64 get no bucket bit: less pruning


def _derived(cls: type, base: object | None = None, **fields: object):
    """A `cls` with the given fields, the others taken from `base`, built
    without `__post_init__`: for objects derived from validated ones, which
    are valid by construction (tests/test_derived.py checks each)."""
    obj = object.__new__(cls)
    if base is not None:
        obj.__dict__.update((name, getattr(base, name)) for name in cls.__dataclass_fields__)
    obj.__dict__.update(fields)
    return obj


def vector_str(u: OmegaMarking) -> str:
    return "(" + ",".join("w" if c == OMEGA else str(c) for c in u) + ")"


def check_marking(m: Marking, dimension: int | None = None) -> None:
    if dimension is not None and len(m) != dimension:
        raise InputError(f"dimension mismatch: expected {dimension}, got {len(m)}")
    for c in m:
        if not is_count(c):
            raise InputError(f"marking entry {c!r} is not a non-negative integer")


def check_omega_marking(u: OmegaMarking, dimension: int | None = None) -> None:
    if dimension is not None and len(u) != dimension:
        raise InputError(f"dimension mismatch: expected {dimension}, got {len(u)}")
    for c in u:
        if c != OMEGA and not is_count(c):
            raise InputError(f"omega-marking entry {c!r} is not a natural or OMEGA")


def omega_leq(u: OmegaMarking, v: OmegaMarking) -> bool:
    """Componentwise order on omega-markings; equals inclusion of the ideals."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return all(map(le, u, v))


def ideal_fire(u: OmegaMarking, pre: Marking, post: Marking) -> OmegaMarking | None:
    """Successor of the ideal `u` under a step with the given pre/post vectors.

    Defined when u >= pre componentwise; OMEGA coordinates stay OMEGA.
    Returns None when the step is disabled on the ideal.
    """
    if not all(map(le, pre, u)):
        return None
    return tuple(map(add, map(sub, u, pre), post))  # u - pre + post


@dataclass(frozen=True)
class UpSet:
    """Upward-closed subset of N^d, represented by its minimal elements."""

    dimension: int
    basis: tuple[Marking, ...]

    def __post_init__(self) -> None:
        for m in self.basis:
            check_marking(m, self.dimension)
        if len(Antichain(self.basis)) != len(self.basis):
            raise InputError("basis is not an antichain")
        if list(self.basis) != sorted(self.basis):
            raise InputError("basis is not in canonical order")

    def norm(self) -> int:
        """Largest entry over all basis vectors (0 when empty)."""
        return max((c for m in self.basis for c in m), default=0)


@dataclass(frozen=True)
class DownSet:
    """Downward-closed subset of N^d, represented by its maximal ideals."""

    dimension: int
    ideals: tuple[OmegaMarking, ...]

    def __post_init__(self) -> None:
        for u in self.ideals:
            check_omega_marking(u, self.dimension)
        if len(IdealAntichain(self.ideals)) != len(self.ideals):
            raise InputError("ideals are not an antichain")
        if list(self.ideals) != sorted(self.ideals):
            raise InputError("ideals are not in canonical order")


class Antichain(dict):
    """The elements that no other is below in the order `le`, among the
    vectors added so far, in insertion order, each mapped to its bucket key.
    The key `_mask(v)` is a bitmask such that b `le` m needs key(b) inside
    key(m); so the test whether an element is below m skips every bucket
    with a bit outside key(m), and an eviction visits only the buckets
    containing key(m).  Here `le` is the componentwise order and the key is
    the support, so the elements are the minimal markings.  Change it only
    through `add` and `drop`."""

    __slots__ = ("_buckets",)
    le = le

    def __init__(self, elements: Iterable[OmegaMarking] = ()) -> None:
        super().__init__()
        self._buckets: dict[int, set[OmegaMarking]] = {}
        for m in elements:
            self.add(m)

    @staticmethod
    def _mask(m: OmegaMarking) -> int:
        return sum(compress(_BITS, m))

    def add(self, m: OmegaMarking) -> bool:
        """Insert `m` and evict the elements above it, unless an element is
        below or equal to `m`.  Returns whether `m` was inserted."""
        order, mask = self.le, self._mask(m)
        above = []
        for key, bucket in self._buckets.items():
            if not key & ~mask:
                for b in bucket:
                    if all(map(order, b, m)):
                        return False
            if key & mask == mask:
                for b in bucket:
                    if all(map(order, m, b)):
                        above.append(b)
        for b in above:
            self.drop(b)
        self[m] = mask
        self._buckets.setdefault(mask, set()).add(m)
        return True

    def drop(self, b: OmegaMarking) -> None:
        """Remove the element `b`."""
        key = self.pop(b)
        bucket = self._buckets[key]
        bucket.discard(b)
        if not bucket:
            del self._buckets[key]


class IdealAntichain(Antichain):
    """The same engine under the reverse order: the maximal ideals among the
    omega-markings added so far.  u <= r needs fin(r) inside fin(u), so the
    key is the set of finite coordinates."""

    __slots__ = ()
    le = ge

    @staticmethod
    def _mask(u: OmegaMarking) -> int:
        return sum(compress(_BITS, map(OMEGA.__ne__, u)))


class IdealIndex:
    """A fixed tuple of ideals: bit k of `mask(s)` is set iff ideal k contains
    s.  Per coordinate it keeps the sorted distinct values (OMEGA last) and
    per value the bitmask of the ideals at least that high there."""

    __slots__ = ("ideals", "_columns", "_all")

    def __init__(self, ideals: Iterable[OmegaMarking]) -> None:
        self.ideals = tuple(ideals)
        self._all = (1 << len(self.ideals)) - 1
        self._columns: list[tuple[list[Coord], list[int]]] = []
        for column in zip(*self.ideals):
            values = sorted(set(column))
            masks = [0] * (len(values) + 1)  # past the last value: no ideal
            for k, c in enumerate(column):
                masks[bisect_left(values, c)] |= 1 << k
            self._columns.append((values, list(accumulate(masks[::-1], or_))[::-1]))

    def mask(self, s: OmegaMarking) -> int:
        """The bitmask of the ideals containing `s`."""
        found = self._all
        for (values, masks), c in zip(self._columns, s):
            found &= masks[bisect_left(values, c)]
            if not found:
                break
        return found

    def containing(self, s: OmegaMarking) -> list[OmegaMarking]:
        """The ideals containing `s`, in tuple order."""
        found, out = self.mask(s), []
        while found:
            low = found & -found
            out.append(self.ideals[low.bit_length() - 1])
            found ^= low
        return out


def member_up(m: Marking, u: UpSet) -> bool:
    """True iff some basis vector is dominated by `m`."""
    check_marking(m, u.dimension)
    return any(omega_leq(base, m) for base in u.basis)


def member_down(m: Marking, x: DownSet) -> bool:
    """True iff `m` lies below some ideal of `x`."""
    check_marking(m, x.dimension)
    return any(omega_leq(m, u) for u in x.ideals)


def complement_upset(u: UpSet, settings: Settings = DEFAULT) -> DownSet:
    """Ideal decomposition of N^d minus the given upward-closed set.

    Removes one basis vector's cone at a time from (OMEGA, ..., OMEGA).  An
    ideal meets the cone of v iff it contains v, so only those ideals split,
    each into one piece per coordinate j with v(j) > 0, pinned to v(j)-1.
    A piece lies inside the ideal it came from and the ideals form an
    antichain, so no other ideal lies below a piece: dropping the split
    ideals and adding the pieces keeps exactly the maximal ones.  The split
    ideals are found by one scan: v is a marking, so its bucket key has
    every bit set and no bucket could be skipped.  Raises
    BudgetExceededError once more than `settings.node_budget` ideals are held.
    """
    acc = IdealAntichain([(OMEGA,) * u.dimension])
    for done, v in enumerate(u.basis, 1):
        split = [a for a in acc if all(map(le, v, a))]
        for a in split:
            acc.drop(a)
        for a in split:
            for j, vj in enumerate(v):
                if vj:
                    acc.add(a[:j] + (vj - 1,) + a[j + 1 :])
        if len(acc) > settings.node_budget:
            raise BudgetExceededError(
                f"complement held {len(acc)} ideals, over the budget of {settings.node_budget}, "
                f"after {done} of {len(u.basis)} basis vectors"
            )
    return _derived(DownSet, dimension=u.dimension, ideals=tuple(sorted(acc)))
