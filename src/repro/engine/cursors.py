"""Per-object DFA cursors over compiled specifications.

A cursor is nothing more than a small integer -- the current state of one
object's history inside a :class:`repro.engine.compiler.CompiledSpec` table.
:class:`HistoryCursor` wraps a single object for interactive use;
:class:`CursorTable` holds the states of a whole population of objects
against one spec, advanced event by event -- the reference path the
product kernel (:mod:`repro.engine.vector`) is pinned against.

Cursor states deliberately do **not** hold a reference to the compiled
table: compilation is deterministic (:mod:`repro.engine.compiler`), so a
state means the same thing against any compilation of the same source.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Sequence, Tuple

from repro.engine.compiler import CompiledSpec

Symbol = Hashable
ObjectId = Hashable


class HistoryCursor:
    """The incremental membership state of one object history."""

    __slots__ = ("_spec", "_state", "_events")

    def __init__(self, spec: CompiledSpec) -> None:
        self._spec = spec
        self._state = spec.initial
        self._events = 0

    @property
    def state(self) -> int:
        """The current table state."""
        return self._state

    @property
    def events_seen(self) -> int:
        """How many events have been consumed."""
        return self._events

    @property
    def accepted(self) -> bool:
        """Whether the history consumed so far is in the specification."""
        return self._spec.is_accepting(self._state)

    @property
    def doomed(self) -> bool:
        """Whether no continuation of the history can ever be accepted."""
        return self._spec.is_doomed(self._state)

    def advance(self, symbol: Symbol) -> "HistoryCursor":
        """Consume one event (no-op once doomed: the verdict is final)."""
        self._events += 1
        state = self._state
        if not self._spec.is_doomed(state):
            self._state = self._spec.advance(state, symbol)
        return self

    def advance_many(self, word: Sequence[Symbol]) -> "HistoryCursor":
        """Consume a run of events.

        Table/codes/doomed lookups are hoisted out of the per-event loop
        (mirroring :meth:`CursorTable.advance_events`) instead of re-entering
        :meth:`advance` per event; once the cursor is doomed the rest of the
        word is consumed without touching the table -- doomed states are
        absorbing, so the verdict is already final.
        """
        if not isinstance(word, (list, tuple, str)):
            word = list(word)
        spec = self._spec
        table = spec.table
        code_of = spec.codes.get
        doomed = spec.doomed
        width = spec.n_symbols
        dead = spec.dead
        state = self._state
        for symbol in word:
            if doomed[state]:
                break
            code = code_of(symbol, -1)
            state = dead if code < 0 else table[state * width + code]
        self._state = state
        self._events += len(word)
        return self


class CursorTable:
    """Object-id -> table-state for a population checked against one spec."""

    __slots__ = ("_states",)

    def __init__(self) -> None:
        self._states: Dict[ObjectId, int] = {}

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, object_id: object) -> bool:
        return object_id in self._states

    def objects(self) -> Tuple[ObjectId, ...]:
        """Every object that has produced at least one event."""
        return tuple(self._states)

    def state_of(self, spec: CompiledSpec, object_id: ObjectId) -> int:
        """The current state of one object (its initial state if unseen)."""
        return self._states.get(object_id, spec.initial)

    def advance(self, spec: CompiledSpec, object_id: ObjectId, symbol: Symbol) -> int:
        """Advance one object by one event and return its new state."""
        states = self._states
        state = states.get(object_id, spec.initial)
        if not spec.doomed[state]:
            state = spec.advance(state, symbol)
            states[object_id] = state
        else:
            states.setdefault(object_id, state)
        return state

    def advance_events(
        self, spec: CompiledSpec, events: Iterable[Tuple[ObjectId, Symbol]]
    ) -> int:
        """Advance a batch of ``(object_id, symbol)`` events; returns the count.

        The hot loop of the streaming engine: table/codes/doomed lookups are
        hoisted out of the per-event iteration so each event costs one dict
        get, one code lookup and one array read.
        """
        states = self._states
        table = spec.table
        code_of = spec.codes.get
        doomed = spec.doomed
        width = spec.n_symbols
        initial = spec.initial
        dead = spec.dead
        count = 0
        for object_id, symbol in events:
            count += 1
            state = states.get(object_id, initial)
            if doomed[state]:
                states.setdefault(object_id, state)
                continue
            code = code_of(symbol, -1)
            states[object_id] = dead if code < 0 else table[state * width + code]
        return count

    def verdict(self, spec: CompiledSpec, object_id: ObjectId) -> bool:
        """Whether one object's history so far satisfies the spec."""
        return bool(spec.accepting[self._states.get(object_id, spec.initial)])

    def verdicts(self, spec: CompiledSpec) -> Dict[ObjectId, bool]:
        """The verdict of every tracked object."""
        accepting = spec.accepting
        return {object_id: bool(accepting[state]) for object_id, state in self._states.items()}


__all__ = ["HistoryCursor", "CursorTable"]
