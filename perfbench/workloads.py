"""Job lists of the benchmark's workloads, built from the seed.

A job is one user-level request against the public API of `regsep`:

- `decide`: `disjoint(n1, n2)`, a disjointness verdict;
- `separate`: `separate(n1, n2)` and, when it returns, `verify_separator`
  on the produced separator; a `NotDisjointError` is a refusal, which is
  also a disjointness verdict;
- `verify`: `verify_separator(n1, n2, b)` on a candidate built here.

Each job carries the reference it is checked against.  References never
come from the code under test: the last-letter family has a closed-form
language, and random pairs are checked by the bounded searches of
`oracle.py`.  The random nets are drawn by this module's own generator, so
the inputs stay the same when the program's generators change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

# `lastletter` runs by hand only: BENCHMARK.json does not list it, because
# its one 30 s pass per run spread beyond the 0.25 bound (see NOTES.md)
WORKLOADS = ("lastletter", "random", "decide")

# last-letter sizes per workload; k=4..6 take 30-110 s each in `separate`
# at the seed commit, beyond what one measured run can hold
LAST_LETTER_KS = (2, 3)
DECIDE_KS = (1, 2, 3, 4)
VERIFY_KS = (6, 7)

# random regime: norm 1 keeps the per-pair cost bounded (no pair over
# 0.15 s in 1,200 draws); norm 3 puts one pair in twenty past 4 s.
# The pairs are drawn once from a fixed seed: the cost of a pair spans two
# orders of magnitude, so a pass over pairs drawn per run seed varied by
# about 19% (interquartile range over median, five seeds) against 6% for
# repeated runs of one seed.  The run seed orders the jobs.
RANDOM_PAIRS = 1000
RANDOM_POPULATION_SEED = 0
# the first pair of that population that `separate` answers with a
# separator while its second net is not injectively labeled: about 1 ms,
# and it enters every wrapped layer function
SMALL_PAIR_INDEX = 7
RANDOM_PLACES = 3
RANDOM_NORM = 1
RANDOM_SHAPES = ((5, 2), (5, 2), (5, 2), (3, 6))  # (transitions, alphabet size)


@dataclass
class Job:
    id: str
    kind: str  # "decide", "separate" or "verify"
    n1: object
    n2: object
    family: str  # "lastletter", "self" (separate(n, n)), "random" or "candidate"
    k: int = 0
    bit: int = 1  # for "candidate": the bit the candidate NFA pins
    candidate: object = None


def _random_net(rs, rng: random.Random, transitions: int, alphabet: tuple[str, ...]):
    places = tuple(f"p{i}" for i in range(RANDOM_PLACES))

    def vector() -> tuple[int, ...]:
        return tuple(rng.randint(0, RANDOM_NORM) for _ in places)

    trans = tuple(
        rs.Transition(f"t{i}", rng.choice(alphabet), vector(), vector())
        for i in range(transitions)
    )
    initial, final = vector(), vector()
    if not any(final):
        # a zero final marking accepts every word; demand one token
        idx = rng.randrange(RANDOM_PLACES)
        final = tuple(int(i == idx) for i in range(RANDOM_PLACES))
    return rs.LabeledPetriNet(
        places=places, alphabet=alphabet, transitions=trans, initial=initial, final=final
    )


def random_pair(rs, rng: random.Random, index: int):
    """Every fourth pair has few transitions over a wide alphabet, so its
    second net is often injectively labeled."""
    transitions, size = RANDOM_SHAPES[index % len(RANDOM_SHAPES)]
    alphabet = tuple(chr(ord("a") + i) for i in range(size))
    return _random_net(rs, rng, transitions, alphabet), _random_net(rs, rng, transitions, alphabet)


def candidate_nfa(rs, k: int, bit: int):
    """NFA for c{0,1}*<bit>{0,1}^(k-1)c over (0,1,b,c)."""
    states = ("s0", "s1") + tuple(f"q{i}" for i in range(1, k + 1)) + ("f",)
    edges = [("s0", "c", "s1"), ("s1", "0", "s1"), ("s1", "1", "s1"), ("s1", str(bit), "q1")]
    for i in range(1, k):
        edges += [(f"q{i}", "0", f"q{i + 1}"), (f"q{i}", "1", f"q{i + 1}")]
    edges.append((f"q{k}", "c", "f"))
    return rs.Nfa(
        states=states,
        alphabet=oracle.LAST_LETTER_ALPHABET,
        transitions=tuple(edges),
        initial=frozenset({"s0"}),
        final=frozenset({"f"}),
    )


def build(rs, gen, workload: str, seed: int) -> list[Job]:
    """The workload's job list; `rs` is the `regsep` package and `gen` its
    `generators` module.  The seed orders the jobs."""
    jobs: list[Job] = []
    if workload == "lastletter":
        for k in LAST_LETTER_KS:
            jobs.append(Job(f"separate-k{k}", "separate", *gen.last_letter_pair(k), "lastletter", k))
    elif workload == "decide":
        for k in DECIDE_KS:
            n1, n2 = gen.last_letter_pair(k)
            jobs.append(Job(f"decide-k{k}", "decide", n1, n2, "lastletter", k))
            n = gen.last_letter_net(0, k)
            jobs.append(Job(f"refuse-k{k}", "separate", n, n, "self", k))
        # without this one small job, no call would enter `ideals`,
        # `invariant` or the core automaton here, and their per-layer times
        # would read 0 on every run
        jobs.append(Job("small-pair", "separate", *small_pair(rs), "random"))
        for k in VERIFY_KS:
            n1, n2 = gen.last_letter_pair(k)
            for bit in (1, 0):
                jobs.append(
                    Job(f"verify-k{k}-bit{bit}", "verify", n1, n2, "candidate", k, bit,
                        candidate_nfa(rs, k, bit))
                )
    elif workload == "random":
        rng = random.Random(RANDOM_POPULATION_SEED)
        for i in range(RANDOM_PAIRS):
            n1, n2 = random_pair(rs, rng, i)
            jobs.append(Job(f"pair-{i}", "separate", n1, n2, "random"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs


def small_pair(rs):
    rng = random.Random(RANDOM_POPULATION_SEED)
    for i in range(SMALL_PAIR_INDEX + 1):
        pair = random_pair(rs, rng, i)
    return pair


def warmup_job(rs) -> Job:
    """Run once per set-up."""
    return Job("warmup", "separate", *small_pair(rs), "random")
