"""Finite automata on finite words.

Small, exact, dependency-free NFA/DFA toolkit: determinization,
completion, minimization (partition refinement), boolean operations,
emptiness and equivalence.  The star-freeness decision in
:mod:`repro.omega.monoid` and the ω-layers build on this.
"""

from __future__ import annotations

import itertools


class Nfa:
    """A nondeterministic finite automaton (no ε-transitions).

    ``transitions`` maps ``(state, symbol)`` to a set of states.
    """

    def __init__(self, states, alphabet, transitions, initial, accepting):
        self.states = frozenset(states)
        self.alphabet = tuple(alphabet)
        self.transitions = {
            key: frozenset(value) for key, value in transitions.items()
        }
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)

    def step(self, states, symbol):
        """The set of states reachable from ``states`` on ``symbol``."""
        result = set()
        for state in states:
            result |= self.transitions.get((state, symbol), frozenset())
        return frozenset(result)

    def accepts(self, word):
        """Membership of a finite word."""
        current = self.initial
        for symbol in word:
            current = self.step(current, symbol)
        return bool(current & self.accepting)

    def determinize(self):
        """Subset construction; the result is complete."""
        initial = self.initial
        states = {initial}
        delta = {}
        queue = [initial]
        while queue:
            subset = queue.pop()
            for symbol in self.alphabet:
                target = self.step(subset, symbol)
                delta[(subset, symbol)] = target
                if target not in states:
                    states.add(target)
                    queue.append(target)
        accepting = {subset for subset in states if subset & self.accepting}
        return Dfa(states, self.alphabet, delta, initial, accepting)


class Dfa:
    """A complete deterministic finite automaton.

    ``delta`` maps ``(state, symbol)`` to one state and must be total
    on ``states × alphabet``.
    """

    def __init__(self, states, alphabet, delta, initial, accepting):
        self.states = frozenset(states)
        self.alphabet = tuple(alphabet)
        self.delta = dict(delta)
        self.initial = initial
        self.accepting = frozenset(accepting)
        for state in self.states:
            for symbol in self.alphabet:
                if (state, symbol) not in self.delta:
                    raise ValueError(
                        "incomplete DFA: no transition from %r on %r"
                        % (state, symbol)
                    )

    # -- runs -------------------------------------------------------------

    def run(self, word, start=None):
        """The state reached after reading ``word``."""
        state = self.initial if start is None else start
        for symbol in word:
            state = self.delta[(state, symbol)]
        return state

    def accepts(self, word):
        """Membership of a finite word."""
        return self.run(word) in self.accepting

    # -- structure -----------------------------------------------------------

    def reachable(self):
        """The sub-automaton of states reachable from the initial one."""
        seen = {self.initial}
        queue = [self.initial]
        while queue:
            state = queue.pop()
            for symbol in self.alphabet:
                target = self.delta[(state, symbol)]
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        delta = {
            (state, symbol): self.delta[(state, symbol)]
            for state in seen
            for symbol in self.alphabet
        }
        return Dfa(seen, self.alphabet, delta, self.initial, self.accepting & seen)

    def minimize(self):
        """Minimal equivalent DFA (partition refinement / Moore)."""
        automaton = self.reachable()
        partition = {}
        for state in automaton.states:
            partition[state] = state in automaton.accepting
        while True:
            signatures = {}
            for state in automaton.states:
                signature = (
                    partition[state],
                    tuple(
                        partition[automaton.delta[(state, symbol)]]
                        for symbol in automaton.alphabet
                    ),
                )
                signatures[state] = signature
            classes = {}
            for state, signature in signatures.items():
                classes.setdefault(signature, set()).add(state)
            new_partition = {}
            # Stable renaming: map each signature to an index.
            ordered = sorted(classes.keys(), key=repr)
            for index, signature in enumerate(ordered):
                for state in classes[signature]:
                    new_partition[state] = index
            if len(set(new_partition.values())) == len(set(partition.values())):
                partition = new_partition
                break
            partition = new_partition
        blocks = sorted(set(partition.values()))
        representative = {}
        for state, block in partition.items():
            representative.setdefault(block, state)
        delta = {}
        for block in blocks:
            state = representative[block]
            for symbol in self.alphabet:
                delta[(block, symbol)] = partition[automaton.delta[(state, symbol)]]
        accepting = {
            partition[state] for state in automaton.accepting
        }
        return Dfa(blocks, self.alphabet, delta, partition[automaton.initial], accepting)

    # -- boolean algebra -----------------------------------------------------------

    def complement(self):
        """The DFA of the complement language."""
        return Dfa(
            self.states,
            self.alphabet,
            self.delta,
            self.initial,
            self.states - self.accepting,
        )

    def product(self, other, accept):
        """Product automaton; ``accept(in_self, in_other)`` decides
        acceptance of a pair."""
        if tuple(other.alphabet) != tuple(self.alphabet):
            raise ValueError("alphabet mismatch")
        states = set(itertools.product(self.states, other.states))
        delta = {}
        for (p, q) in states:
            for symbol in self.alphabet:
                delta[((p, q), symbol)] = (
                    self.delta[(p, symbol)],
                    other.delta[(q, symbol)],
                )
        accepting = {
            (p, q)
            for (p, q) in states
            if accept(p in self.accepting, q in other.accepting)
        }
        return Dfa(
            states, self.alphabet, delta, (self.initial, other.initial), accepting
        )

    def intersection(self, other):
        """Language intersection."""
        return self.product(other, lambda a, b: a and b)

    def union(self, other):
        """Language union."""
        return self.product(other, lambda a, b: a or b)

    def difference(self, other):
        """Language difference."""
        return self.product(other, lambda a, b: a and not b)

    # -- decision procedures ----------------------------------------------------------

    def is_empty(self):
        """True when no word is accepted."""
        return not (self.reachable().accepting)

    def equivalent(self, other):
        """Language equality."""
        return self.difference(other).is_empty() and other.difference(self).is_empty()

    def some_word(self, max_length=None):
        """A shortest accepted word, or None when the language is empty."""
        limit = max_length if max_length is not None else len(self.states) + 1
        frontier = {self.initial: ()}
        if self.initial in self.accepting:
            return ()
        for _ in range(limit):
            next_frontier = {}
            for state, word in frontier.items():
                for symbol in self.alphabet:
                    target = self.delta[(state, symbol)]
                    if target not in next_frontier:
                        next_frontier[target] = word + (symbol,)
                        if target in self.accepting:
                            return word + (symbol,)
            frontier = next_frontier
            if not frontier:
                break
        return None
