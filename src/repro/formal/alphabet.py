"""Interned automaton alphabets (role set ↔ small integer).

Migration patterns are words over role sets -- frozensets of class names --
so the seed-era automata hashed and ordered raw frozensets everywhere: in
the subset construction, in product automata, in Hopcroft signatures and in
every deterministic ``sorted(..., key=repr)``.  This module provides:

* :class:`RoleSetAlphabet` -- an interner assigning each symbol a small
  integer code, so the determinization/product/minimization hot loops can
  run on integers and map back at the boundary;
* :func:`canonical_symbol_key` -- a total, deterministic ordering key for
  mixed symbol alphabets that orders role sets structurally (by size, then
  by sorted class names) instead of by ``repr`` string;
* :func:`canonical_word_key` -- the induced ordering on words, shared by
  :meth:`repro.core.simulation.SimulationResult.as_migration_patterns` and
  the analysis reports so pattern orderings are stable across runs;
* :func:`intern_nfa` / :func:`restore_nfa` -- rewrite an automaton's
  transition labels to integer codes and back.

Soundness of interned constructions comes from sharing: every automaton
taking part in one product/boolean operation must be interned against the
*same* :class:`RoleSetAlphabet` instance (see
:mod:`repro.formal.operations`, which allocates one interner per
operation), so equal role sets receive equal codes.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

Symbol = Hashable


def canonical_symbol_key(symbol: Symbol) -> Tuple:
    """A deterministic, total ordering key for automaton symbols.

    Role sets (and any ``frozenset`` of strings) order structurally by
    ``(size, sorted elements)``; every other symbol falls back to its
    ``repr``.  The leading tag keeps mixed alphabets totally ordered.
    """
    if isinstance(symbol, frozenset):
        try:
            return (0, len(symbol), tuple(sorted(symbol)))
        except TypeError:
            return (0, len(symbol), tuple(sorted(map(repr, symbol))))
    return (1, repr(symbol))


def canonical_word_key(word: Sequence[Symbol]) -> Tuple:
    """The ordering on words induced by :func:`canonical_symbol_key`.

    Orders first by length, then position-wise -- a stable replacement for
    the seed's ``key=repr`` tuple sorting.
    """
    return (len(word), tuple(canonical_symbol_key(symbol) for symbol in word))


def sort_alphabet(symbols: Iterable[Symbol]) -> Tuple[Symbol, ...]:
    """An alphabet in the canonical deterministic order.

    The single ordering used by NFA and DFA alike, so the two automaton
    classes can never drift apart on enumeration order.
    """
    return tuple(sorted(symbols, key=canonical_symbol_key))


class RoleSetAlphabet:
    """A bijective interner between symbols and small integer codes.

    Codes are handed out in first-intern order and never recycled; the
    class is append-only, so a code obtained from one automaton remains
    valid for every later automaton interned against the same instance.

    **Stable extension.**  The append-only contract is what makes the
    interner usable as a long-lived *shared* alphabet (the streaming
    engine keeps one per :class:`repro.engine.engine.HistoryCheckerEngine`
    and encodes every event batch against it exactly once): remap arrays
    built from a shorter snapshot stay correct forever and only ever need
    *appending* when :attr:`version` has moved -- re-registering a spec or
    encoding a batch with unseen symbols can never renumber an existing
    code.  :attr:`version` is a cheap staleness probe for such derived
    tables.
    """

    __slots__ = ("_codes", "_symbols")

    def __init__(self, symbols: Iterable[Symbol] = ()) -> None:
        self._codes: Dict[Symbol, int] = {}
        self._symbols: List[Symbol] = []
        for symbol in symbols:
            self.intern(symbol)

    def intern(self, symbol: Symbol) -> int:
        """The code of ``symbol``, allocating a fresh one on first sight."""
        code = self._codes.get(symbol)
        if code is None:
            code = len(self._symbols)
            self._codes[symbol] = code
            self._symbols.append(symbol)
        return code

    def intern_all(self, symbols: Iterable[Symbol]) -> Tuple[int, ...]:
        """Intern several symbols, preserving order."""
        return tuple(self.intern(symbol) for symbol in symbols)

    def code(self, symbol: Symbol) -> int:
        """The existing code of ``symbol`` (raises ``KeyError`` if unseen)."""
        return self._codes[symbol]

    def encode(self, symbol: Symbol, default: int = -1) -> int:
        """The existing code of ``symbol``, or ``default`` -- never interns."""
        return self._codes.get(symbol, default)

    @property
    def version(self) -> int:
        """A monotonically increasing revision: the number of interned symbols.

        Derived tables (spec remaps, fused kernels) record the version they
        were built against; a larger current version means exactly "new codes
        were appended", never "existing codes moved".
        """
        return len(self._symbols)

    def encode_column(self, column: Sequence[Symbol]) -> List[int]:
        """Intern a whole event column, mapping it at C speed.

        The column is mapped through the code table with :func:`map` first:
        once a stream's symbols are known -- its steady state -- that single
        pass is the whole encode.  Only an unseen symbol falls back to
        interning the column's distinct fresh symbols, in canonical order so
        their codes never depend on the process hash seed, before mapping
        again.  This is the encode-once primitive of the columnar event
        pipeline.
        """
        codes = self._codes
        try:
            return list(map(codes.__getitem__, column))
        except KeyError:
            pass
        for symbol in sorted(set(column).difference(codes), key=canonical_symbol_key):
            self.intern(symbol)
        return list(map(codes.__getitem__, column))

    def symbol(self, code: int) -> Symbol:
        """The symbol carrying ``code``."""
        return self._symbols[code]

    def intern_word(self, word: Sequence[Symbol]) -> Tuple[int, ...]:
        """Intern a word symbol-wise."""
        return tuple(self.intern(symbol) for symbol in word)

    def restore_word(self, codes: Sequence[int]) -> Tuple[Symbol, ...]:
        """Map a word of codes back to symbols."""
        symbols = self._symbols
        return tuple(symbols[code] for code in codes)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._codes

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self):
        return iter(self._symbols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoleSetAlphabet({len(self._symbols)} symbols)"


def intern_nfa(automaton: "NFA", interner: RoleSetAlphabet) -> "NFA":
    """An isomorphic automaton whose transition labels are integer codes.

    Epsilon moves are preserved as epsilon moves.  The language over codes
    is the image of the original language under the interner.
    """
    from repro.formal.nfa import EPSILON, NFA

    alphabet = interner.intern_all(sort_alphabet(automaton.alphabet))
    transitions = {}
    for (source, symbol), targets in automaton.transitions.items():
        label = symbol if symbol is EPSILON else interner.code(symbol)
        transitions[(source, label)] = targets
    return NFA(
        automaton.states,
        alphabet,
        transitions,
        automaton.initial_states,
        automaton.accepting_states,
    )


def restore_nfa(automaton: "NFA", interner: RoleSetAlphabet) -> "NFA":
    """Invert :func:`intern_nfa`: map integer codes back to their symbols."""
    from repro.formal.nfa import EPSILON, NFA

    alphabet = [interner.symbol(code) for code in automaton.alphabet]
    transitions = {}
    for (source, symbol), targets in automaton.transitions.items():
        label = symbol if symbol is EPSILON else interner.symbol(symbol)
        transitions[(source, label)] = targets
    return NFA(
        automaton.states,
        alphabet,
        transitions,
        automaton.initial_states,
        automaton.accepting_states,
    )


__all__ = [
    "RoleSetAlphabet",
    "canonical_symbol_key",
    "canonical_word_key",
    "sort_alphabet",
    "intern_nfa",
    "restore_nfa",
]
