"""Reference answers that do not use the code under test.

Nets and automata are read only through their public fields (places,
transitions with pre/post vectors, initial/final markings; states, edges,
initial/final sets).  Every search here is a direct forward definition:
firing sequences for nets, set simulation for automata, subset
construction plus Moore refinement for minimal DFA sizes.
"""

from __future__ import annotations

import itertools
import re
from collections import deque

LAST_LETTER_ALPHABET = ("0", "1", "b", "c")

# random pairs: words up to this length are checked against a separator;
# a wider alphabet gets a shorter bound so each pair checks a few hundred words
WORD_BOUND = {2: 6, 6: 3}
COMMON_WORD_BUDGET = 2_000


def last_letter_regex(bit: int, k: int) -> re.Pattern[str]:
    """c{0,1}* <bit> {0,1}^(k-1) c: the language of last_letter_net(bit, k)."""
    return re.compile(f"c[01]*{bit}[01]{{{k - 1}}}c")


def nfa_accepts(nfa, word) -> bool:
    table: dict[tuple[str, str], set[str]] = {}
    for s, a, r in nfa.transitions:
        table.setdefault((s, a), set()).add(r)
    current = set(nfa.initial)
    for letter in word:
        current = {r for s in current for r in table.get((s, letter), ())}
        if not current:
            return False
    return bool(current & nfa.final)


def min_dfa_states(nfa) -> int:
    """State count of the minimal complete DFA of `nfa` over its alphabet."""
    table: dict[tuple[str, str], set[str]] = {}
    for s, a, r in nfa.transitions:
        table.setdefault((s, a), set()).add(r)
    start = frozenset(nfa.initial)
    index = {start: 0}
    order = [start]
    delta: list[list[int]] = []
    for subset in order:  # grows while iterating
        row = []
        for a in nfa.alphabet:
            target = frozenset(r for s in subset for r in table.get((s, a), ()))
            if target not in index:
                index[target] = len(order)
                order.append(target)
            row.append(index[target])
        delta.append(row)
    block = [int(bool(s & nfa.final)) for s in order]
    count = len(set(block))
    while True:
        ids: dict[tuple[int, ...], int] = {}
        block = [
            ids.setdefault((block[s], *(block[t] for t in delta[s])), len(ids))
            for s in range(len(order))
        ]
        if len(ids) == count:
            return count
        count = len(ids)


def _fire(m, t):
    if any(x < p for x, p in zip(m, t.pre)):
        return None
    return tuple(x - p + q for x, p, q in zip(m, t.pre, t.post))


def _covers(m, f) -> bool:
    return all(x >= y for x, y in zip(m, f))


def net_accepts(net, word) -> bool:
    markings = {net.initial}
    for letter in word:
        markings = {
            m2
            for m in markings
            for t in net.transitions
            if t.label == letter
            for m2 in (_fire(m, t),)
            if m2 is not None
        }
        if not markings:
            return False
    return any(_covers(m, net.final) for m in markings)


def accepted_words(net, maxlen: int) -> set[tuple[str, ...]]:
    """Every word of length at most `maxlen` that the net accepts."""
    frontier: dict[tuple[str, ...], set] = {(): {net.initial}}
    accepted = set()
    for length in range(maxlen + 1):
        accepted.update(w for w, ms in frontier.items() if any(_covers(m, net.final) for m in ms))
        if length == maxlen:
            break
        nxt: dict[tuple[str, ...], set] = {}
        for w, ms in frontier.items():
            for t in net.transitions:
                for m in ms:
                    m2 = _fire(m, t)
                    if m2 is not None:
                        nxt.setdefault(w + (t.label,), set()).add(m2)
        frontier = nxt
    return accepted


def common_word(n1, n2, budget: int = COMMON_WORD_BUDGET) -> tuple[str, ...] | None:
    """A word both nets accept, by breadth-first search over joint markings.

    A joint marking dominated by one already explored is skipped: whatever
    it can cover, the dominating one can too.  Returns None when nothing is
    found within `budget` explored markings.
    """
    start = (n1.initial, n2.initial)
    seen = [start]
    queue = deque([(start, ())])
    while queue and len(seen) <= budget:
        (m1, m2), word = queue.popleft()
        if _covers(m1, n1.final) and _covers(m2, n2.final):
            return word
        for t1, t2 in itertools.product(n1.transitions, n2.transitions):
            if t1.label != t2.label:
                continue
            a, b = _fire(m1, t1), _fire(m2, t2)
            if a is None or b is None:
                continue
            joint = a + b
            if any(all(x <= y for x, y in zip(joint, s[0] + s[1])) for s in seen):
                continue
            seen.append((a, b))
            queue.append(((a, b), word + (t1.label,)))
    return None


def check_last_letter_separator(sep, k: int) -> list[str]:
    """Errors of `sep` as a separator of last_letter_pair(k): it must accept
    c u c when the k-th last letter of u is 1, and reject it when it is 0."""
    errors = []
    for n in range(k, k + 5):
        for bits in itertools.product("01", repeat=n):
            word = ("c", *bits, "c")
            want = bits[-k] == "1"
            if nfa_accepts(sep, word) != want:
                errors.append(f"k={k}: separator {'rejects' if want else 'accepts'} {''.join(word)}")
    return errors


def check_random_separator(sep, n1, n2) -> list[str]:
    """Errors of `sep` on the words up to the bound: it must accept every
    word of n2 and reject every word of n1."""
    maxlen = WORD_BOUND[len(n1.alphabet)]
    errors = []
    for w in sorted(accepted_words(n2, maxlen)):
        if not nfa_accepts(sep, w):
            errors.append(f"separator rejects {''.join(w)!r} of the second net")
    for w in sorted(accepted_words(n1, maxlen)):
        if nfa_accepts(sep, w):
            errors.append(f"separator accepts {''.join(w)!r} of the first net")
    return errors


def self_test(rs, candidate_nfa) -> list[str]:
    """The checks must reject deliberately wrong answers."""
    errors = []
    k = 2
    if not check_last_letter_separator(candidate_nfa(rs, k, 0), k):
        errors.append("oracle accepts the swapped bit-0 candidate as a separator")
    if check_last_letter_separator(candidate_nfa(rs, k, 1), k):
        errors.append("oracle rejects the exact bit-1 candidate")
    if min_dfa_states(candidate_nfa(rs, k, 1)) != 2**k + 3:
        errors.append("minimal DFA of the bit-1 candidate is not 2^k+3 states")
    return errors
