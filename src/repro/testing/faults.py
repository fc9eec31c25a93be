"""Deterministic fault injection for the chaos suites.

The durability layer (:mod:`repro.engine.journal`) is tested by
*injecting* the failures it claims to survive -- exceptions at named
execution sites, bit-flipped or torn wire payloads -- under seeds, so every
chaos case is reproducible from its parameters alone.

Production modules declare **sites**: named points that call :func:`fire`.
A disarmed harness (the default, and the only state outside the chaos
suites) makes a site one module-global ``is None`` check.  Arming installs
a :class:`FaultInjector` built from :class:`FaultSpec` rows::

    injector = FaultInjector([FaultSpec("journal.append", "flip", times=1)], seed=7)
    with inject(injector):
        durable.feed_events(events)   # the first journal record is corrupted

The sites are ``journal.append`` (each framed WAL record, before it is
written) and ``journal.checkpoint`` (each checkpoint's snapshot blob,
before it is written).  Injectors live in the process that arms them.

Actions:

``raise``
    Raise :class:`FaultError` at the site (a transient failure).
``flip``
    Flip seeded bits of the site's ``bytes`` payload (wire corruption).
``truncate``
    Drop a seeded-length tail of the payload (a torn write).

:func:`bit_flip` and :func:`tear_file` are the standalone corruption
helpers the fuzz suites apply to snapshot blobs and journal files at rest.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

_ACTIONS = ("raise", "flip", "truncate")


class FaultError(RuntimeError):
    """The exception injected by ``raise`` actions (and only by them)."""


class FaultSpec:
    """One arming rule: what happens at a site, how often, how many times.

    Parameters
    ----------
    site:
        The site name the rule matches (exact match).
    action:
        One of ``raise`` / ``flip`` / ``truncate``.
    times:
        Fire at most this many times (``None`` = unbounded).
    after:
        Skip the first ``after`` triggers of the site before firing.
    probability:
        Fire each eligible trigger only with this probability (seeded;
        ``None`` = always).
    flips:
        Bits to flip for ``flip`` actions.
    """

    __slots__ = ("site", "action", "times", "after", "probability", "flips")

    def __init__(
        self,
        site: str,
        action: str,
        times: Optional[int] = 1,
        after: int = 0,
        probability: Optional[float] = None,
        flips: int = 1,
    ) -> None:
        if action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, not {action!r}")
        self.site = site
        self.action = action
        self.times = times
        self.after = after
        self.probability = probability
        self.flips = flips

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSpec({self.site!r}, {self.action!r}, times={self.times})"


class FaultInjector:
    """A seeded set of :class:`FaultSpec` rules, installable process-wide.

    Every random draw -- which bits a ``flip`` hits, where a ``truncate``
    cuts, whether a ``probability`` rule fires -- comes from an RNG seeded
    with a string naming the injector seed, the site and the trigger
    ordinal, so a draw is the same on every Python version and under every
    ``PYTHONHASHSEED``.
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self._counts: Dict[int, int] = {}
        #: Site -> times fired (introspection for tests).
        self.fired: Dict[str, int] = {}

    def _mutate(self, spec: FaultSpec, payload, ordinal: int):
        if not isinstance(payload, (bytes, bytearray)) or not payload:
            return payload
        rng = random.Random(f"{self.seed}:{spec.site}:{ordinal}")
        if spec.action == "flip":
            return bit_flip(bytes(payload), rng=rng, flips=spec.flips)
        keep = rng.randrange(len(payload))
        return bytes(payload)[:keep]

    def fire(self, site: str, payload=None):
        """Trigger one site; returns the (possibly mutated) payload.

        ``raise`` acts on control flow; ``flip`` and ``truncate`` act on a
        ``bytes`` payload and return the mutated copy (sites that carry no
        payload pass them through unchanged).
        """
        for rule_index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            ordinal = self._counts.get(rule_index, 0)
            self._counts[rule_index] = ordinal + 1
            if ordinal < spec.after:
                continue
            if spec.times is not None and ordinal >= spec.after + spec.times:
                continue
            if spec.probability is not None:
                decider = random.Random(f"{self.seed}:{site}:p:{ordinal}")
                if decider.random() >= spec.probability:
                    continue
            self.fired[site] = self.fired.get(site, 0) + 1
            if spec.action == "raise":
                raise FaultError(f"injected fault at {site} (trigger {ordinal})")
            payload = self._mutate(spec, payload, ordinal)
        return payload


#: The process-wide armed injector; ``None`` keeps every site disarmed.
_ACTIVE: Optional[FaultInjector] = None


def installed() -> Optional[FaultInjector]:
    """The armed injector, or ``None`` when every site is disarmed."""
    return _ACTIVE


def install(injector: FaultInjector) -> None:
    """Arm ``injector`` process-wide (replacing any armed one)."""
    global _ACTIVE
    _ACTIVE = injector


def uninstall() -> None:
    """Disarm every site."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def inject(injector: FaultInjector):
    """Arm ``injector`` for the duration of the block, then disarm."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


def fire(site: str, payload=None):
    """The site entry point production modules call.

    Disarmed (the permanent state outside chaos suites) this is one global
    read and one ``is None`` check; armed, it delegates to the injector and
    returns the possibly mutated payload.
    """
    injector = _ACTIVE
    if injector is None:
        return payload
    return injector.fire(site, payload)


# --------------------------------------------------------------------------- #
# Corruption helpers (applied to blobs and files at rest by the fuzz suites)
# --------------------------------------------------------------------------- #
def bit_flip(
    blob: bytes,
    seed: Optional[int] = None,
    flips: int = 1,
    rng: Optional[random.Random] = None,
) -> bytes:
    """``blob`` with ``flips`` seeded single-bit flips (empty blobs pass)."""
    if not blob:
        return blob
    rng = rng if rng is not None else random.Random(seed)
    mutated = bytearray(blob)
    for _ in range(flips):
        position = rng.randrange(len(mutated))
        mutated[position] ^= 1 << rng.randrange(8)
    return bytes(mutated)


def tear_file(path, drop: Optional[int] = None, seed: int = 0) -> int:
    """Truncate a file's tail -- a torn final write.  Returns bytes dropped.

    ``drop=None`` picks a seeded size in ``[1, min(64, file size)]``; a
    ``drop`` larger than the file clamps to emptying it.
    """
    size = os.path.getsize(path)
    if size == 0:
        return 0
    if drop is None:
        drop = random.Random(seed).randrange(1, min(64, size) + 1)
    drop = min(drop, size)
    os.truncate(path, size - drop)
    return drop


def corrupt_file(path, seed: int = 0, flips: int = 1) -> None:
    """Bit-flip a file in place (seeded), e.g. a checkpoint blob at rest."""
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(bit_flip(blob, seed=seed, flips=flips))


__all__ = [
    "FaultError",
    "FaultSpec",
    "FaultInjector",
    "installed",
    "install",
    "uninstall",
    "inject",
    "fire",
    "bit_flip",
    "tear_file",
    "corrupt_file",
]
