"""Reference runs: the fault-free runs an experiment measures against.

A chaos point needs its golden run (which event to strike, which result
to reproduce); an availability trial needs the uncheckpointed and the
checkpointed runtime of its job.  Such a run is a pure function of a few
parameters, it is the same for every cell of a sweep that shares them,
and it costs as much as the cell itself — so it is computed once per
process and kept here.

:func:`reference_run` turns a function of hashable positional arguments
into a memoised one.  Its *key* — ``(name, *args)`` — is plain data: it
can be collected before anything runs, shipped to another process, and
the value computed there can be :func:`install`-ed here.  That is how a
campaign shares one reference run among hundreds of cells in forked
workers (``repro.campaign.runner``); a caller that finds nothing installed
simply computes the value itself, so nobody has to know whether a
campaign is running.

Values are handed out as they are held, not copied: treat them as
read-only.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, Iterable, List, Tuple

Key = Tuple[Any, ...]

#: name → the undecorated function
_RUNS: Dict[str, Callable[..., Any]] = {}
#: key → value, computed here or installed from elsewhere
_HELD: Dict[Key, Any] = {}


def reference_run(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Memoise ``fn`` process-wide under its name and arguments.

    Defaults are applied before the key is formed, so ``f()`` and
    ``f(4, 6)`` share an entry.  The decorated function gains
    ``.key(*args, **kwargs)``, the key such a call would use.
    """
    name = fn.__name__
    if name in _RUNS:
        raise ValueError(f"reference run {name!r} is already registered")
    _RUNS[name] = fn
    signature = inspect.signature(fn)

    def key(*args, **kwargs) -> Key:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return (name, *bound.arguments.values())

    @functools.wraps(fn)
    def memoised(*args, **kwargs):
        return lookup(key(*args, **kwargs))

    memoised.key = key
    return memoised


def lookup(key: Key) -> Any:
    """The value of ``key``: held, or computed now and held from now on."""
    try:
        return _HELD[key]
    except KeyError:
        value = _HELD[key] = _RUNS[key[0]](*key[1:])
        return value


def install(key: Key, value: Any) -> None:
    """Hold ``value``, computed elsewhere, as the value of ``key``."""
    _HELD[key] = value


def missing(keys: Iterable[Key]) -> List[Key]:
    """Those of ``keys`` that a :func:`lookup` would have to compute."""
    return [key for key in keys if key not in _HELD]


def clear() -> None:
    """Forget every held value (tests; a fresh process starts empty)."""
    _HELD.clear()
