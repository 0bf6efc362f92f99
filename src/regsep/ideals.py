"""Exact set algebra for markings, omega-markings, and up/down-closed subsets of N^d.

Vectors are plain tuples.  A marking is a tuple of non-negative ints.  An
omega-marking may additionally contain OMEGA, a sentinel that compares
strictly above every natural and absorbs addition and subtraction.  An
omega-marking u denotes the ideal of all markings m with m <= u
componentwise; a finite antichain of omega-markings denotes a
downward-closed set, and a finite antichain of markings denotes an
upward-closed set via its minimal elements.

Canonical ordering of antichains is lexicographic with OMEGA greatest, so
serialized artifacts are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import le
from typing import Any, Iterable, Union

from .errors import InputError


class _Omega:
    """Sentinel for an unbounded coordinate.  Compare with `is OMEGA`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "w"


OMEGA = _Omega()

Coord = Union[int, _Omega]
Marking = tuple[int, ...]
OmegaMarking = tuple[Coord, ...]
_BITS = tuple(1 << i for i in range(64))  # places past 64 get no support bit: less pruning


def coord_leq(a: Coord, b: Coord) -> bool:
    if b is OMEGA:
        return True
    return a is not OMEGA and a <= b


def coord_min(a: Coord, b: Coord) -> Coord:
    if a is OMEGA:
        return b
    if b is OMEGA:
        return a
    return min(a, b)


def coord_add(a: Coord, n: int) -> Coord:
    return OMEGA if a is OMEGA else a + n


def coord_sub(a: Coord, n: int) -> Coord:
    return OMEGA if a is OMEGA else a - n


def coord_str(c: Coord) -> str:
    return "w" if c is OMEGA else str(c)


def vector_str(u: OmegaMarking) -> str:
    return "(" + ",".join(coord_str(c) for c in u) + ")"


def _sort_key(u: OmegaMarking) -> tuple:
    # lexicographic with OMEGA greatest
    return tuple((1, 0) if c is OMEGA else (0, c) for c in u)


def check_marking(m: Marking, dimension: int | None = None) -> None:
    if dimension is not None and len(m) != dimension:
        raise InputError(f"dimension mismatch: expected {dimension}, got {len(m)}")
    for c in m:
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise InputError(f"marking entry {c!r} is not a non-negative integer")


def check_omega_marking(u: OmegaMarking, dimension: int | None = None) -> None:
    if dimension is not None and len(u) != dimension:
        raise InputError(f"dimension mismatch: expected {dimension}, got {len(u)}")
    for c in u:
        if c is OMEGA:
            continue
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise InputError(f"omega-marking entry {c!r} is not a natural or OMEGA")


def omega_leq(u: OmegaMarking, v: OmegaMarking) -> bool:
    """Componentwise order on omega-markings; equals inclusion of the ideals."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return all(coord_leq(a, b) for a, b in zip(u, v))


def intersect_ideals(u: OmegaMarking, v: OmegaMarking) -> OmegaMarking:
    """Intersection of two ideals: componentwise min with OMEGA as top."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(coord_min(a, b) for a, b in zip(u, v))


def ideal_fire(u: OmegaMarking, pre: Marking, post: Marking) -> OmegaMarking | None:
    """Successor of the ideal `u` under a step with the given pre/post vectors.

    Defined when u >= pre componentwise (OMEGA dominates); OMEGA absorbs the
    token updates.  Returns None when the step is disabled on the ideal.
    """
    if not all(coord_leq(p, c) for p, c in zip(pre, u)):
        return None
    return tuple(coord_add(coord_sub(c, p), q) for c, p, q in zip(u, pre, post))


@dataclass(frozen=True)
class UpSet:
    """Upward-closed subset of N^d, represented by its minimal elements."""

    dimension: int
    basis: tuple[Marking, ...]

    def __post_init__(self) -> None:
        for m in self.basis:
            check_marking(m, self.dimension)
        for i, a in enumerate(self.basis):
            for j, b in enumerate(self.basis):
                if i != j and all(x <= y for x, y in zip(a, b)):
                    raise InputError(f"basis is not an antichain: {a} <= {b}")
        if list(self.basis) != sorted(self.basis, key=_sort_key):
            raise InputError("basis is not in canonical order")

    def __contains__(self, m: Marking) -> bool:
        return member_up(m, self)

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
        for i, a in enumerate(self.ideals):
            for j, b in enumerate(self.ideals):
                if i != j and omega_leq(a, b):
                    raise InputError(f"ideals are not an antichain: {a} included in {b}")
        if list(self.ideals) != sorted(self.ideals, key=_sort_key):
            raise InputError("ideals are not in canonical order")

    def __contains__(self, m: Marking) -> bool:
        return member_down(m, self)


class Antichain(dict):
    """The minimal elements of the markings added so far, in insertion order,
    each mapped to its support bitmask.  b <= m needs supp(b) inside supp(m),
    so the elements are bucketed by support: a dominance query skips every
    bucket with a bit outside supp(m), and an eviction visits only the
    buckets containing supp(m).  Change it only through `add`."""

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        super().__init__()
        self._buckets: dict[int, set[Marking]] = {}

    def add(self, m: Marking) -> bool:
        """Insert `m` and evict the elements above it, unless an element is
        below or equal to `m`.  Returns whether `m` was inserted."""
        mask = sum(compress(_BITS, m))
        above = []
        for key, bucket in self._buckets.items():
            if not key & ~mask and any(all(map(le, b, m)) for b in bucket):
                return False
            if key & mask == mask:
                above += [b for b in bucket if all(map(le, m, b))]
        for b in above:
            key = self.pop(b)
            self._buckets[key].discard(b)
            if not self._buckets[key]:
                del self._buckets[key]
        self[m] = mask
        self._buckets.setdefault(mask, set()).add(m)
        return True


def _trusted(cls: type, dimension: int, elements: tuple) -> Any:
    """UpSet or DownSet without validation, for a canonical antichain by construction."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, (dimension, elements)):
        object.__setattr__(obj, name, value)  # as the frozen dataclass's __init__ does
    return obj


def canonicalize_up(dimension: int, vectors: Iterable[Marking]) -> UpSet:
    """Keep only minimal vectors, sorted canonically."""
    minimal = Antichain()
    for v in map(tuple, vectors):
        check_marking(v, dimension)
        minimal.add(v)
    return UpSet(dimension, tuple(sorted(minimal, key=_sort_key)))


def canonicalize_down(dimension: int, ideals: Iterable[OmegaMarking]) -> DownSet:
    """Keep only maximal ideals, sorted canonically."""
    vecs = list(dict.fromkeys(tuple(u) for u in ideals))
    for u in vecs:
        check_omega_marking(u, dimension)
    maximal = [
        u
        for u in vecs
        if not any(w != u and omega_leq(u, w) for w in vecs)
    ]
    return DownSet(dimension, tuple(sorted(set(maximal), key=_sort_key)))


def member_up(m: Marking, u: UpSet) -> bool:
    """True iff some basis vector is dominated by `m`."""
    check_marking(m, u.dimension)
    return any(all(b <= x for b, x in zip(base, m)) for base in u.basis)


def member_down(m: Marking, x: DownSet) -> bool:
    """True iff `m` lies below some ideal of `x`."""
    check_marking(m, x.dimension)
    return any(omega_leq(m, u) for u in x.ideals)


def complement_upset(u: UpSet) -> DownSet:
    """Ideal decomposition of N^d minus the given upward-closed set.

    Removes one basis vector's cone at a time from (OMEGA, ..., OMEGA).  An
    ideal meets the cone of v iff it contains v, so only those ideals split,
    each into one piece per coordinate j with v(j) > 0, pinned to v(j)-1.
    The other ideals stay maximal, since a piece lies inside the ideal it
    came from and the ideals form an antichain; only new pieces are filtered.
    """
    acc = [(OMEGA,) * u.dimension]
    for v in u.basis:
        split = [a for a in acc if omega_leq(v, a)]
        survivors = [a for a in acc if not omega_leq(v, a)]
        pieces = [a[:j] + (vj - 1,) + a[j + 1 :] for a in split for j, vj in enumerate(v) if vj]
        # no two pieces are equal, since the ideals split were an antichain
        candidates = survivors + pieces
        acc = survivors + [
            p for p in pieces if not any(q is not p and omega_leq(p, q) for q in candidates)
        ]
        if not acc:
            break
    return _trusted(DownSet, u.dimension, tuple(sorted(acc, key=_sort_key)))
