"""Engine names for the simulation kernels.

Three engines, one name each (:data:`SIM_ENGINES`):

* ``"exact"`` — the per-flow kernels: the multi-flow tick loop, the
  fan-in Lindley sweep and max-min fair allocation, each a single
  vectorized numpy implementation whose results the golden digests
  pin bit for bit;
* ``"fluid"`` — the :mod:`repro.fluid` mean-field engine, which trades
  per-flow congestion state for flow-class population dynamics, so its
  results carry an accuracy contract (delivered-bytes ratio within 1%
  at matched horizon) rather than a bit-identity contract;
* ``"hybrid"`` — picks ``"fluid"`` at or above a stream-population
  threshold and ``"exact"`` below it.

Only :class:`~repro.tcp.simulate.MultiFlowSimulation` chooses between
them.  The fan-in sweep and the allocator exist in the exact tier alone,
so selecting the fluid engine process-wide never changes *their*
numbers.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional

from .errors import ConfigurationError

__all__ = [
    "SIM_ENGINES",
    "check_engine",
    "default_backend",
    "resolve_engine",
    "set_default_backend",
    "use_backend",
]

#: Everything a simulation ``backend=`` argument may name.
SIM_ENGINES = ("exact", "fluid", "hybrid")

#: Process-wide default set by :func:`set_default_backend`; None means
#: "consult the REPRO_BACKEND environment variable, else exact".
_DEFAULT_BACKEND: Optional[str] = None


def check_engine(backend: str) -> str:
    """Validate a ``backend=`` argument, returning it unchanged."""
    if backend not in SIM_ENGINES:
        known = ", ".join(SIM_ENGINES)
        raise ConfigurationError(
            f"unknown simulation backend {backend!r}; known: {known}")
    return backend


def default_backend() -> str:
    """The engine used when a simulation is built with ``backend=None``.

    Resolution order: :func:`set_default_backend`, then the
    ``REPRO_BACKEND`` environment variable, then ``"exact"``.
    """
    if _DEFAULT_BACKEND is not None:
        return _DEFAULT_BACKEND
    env = os.environ.get("REPRO_BACKEND", "")
    return check_engine(env) if env else "exact"


def set_default_backend(backend: Optional[str]) -> Optional[str]:
    """Set the process default (None restores env/exact resolution).

    Returns the previous override so callers can restore it.
    """
    global _DEFAULT_BACKEND
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = check_engine(backend) if backend is not None else None
    return previous


def resolve_engine(backend: Optional[str]) -> str:
    """A concrete engine name (any :data:`SIM_ENGINES` member)."""
    return check_engine(backend) if backend is not None \
        else default_backend()


@contextlib.contextmanager
def use_backend(backend: str) -> Iterator[str]:
    """Temporarily make ``backend`` the process default::

        with use_backend("fluid"):
            run_experiment(spec)       # every simulation takes the fluid tier
    """
    previous = set_default_backend(backend)
    try:
        yield check_engine(backend)
    finally:
        set_default_backend(previous)
