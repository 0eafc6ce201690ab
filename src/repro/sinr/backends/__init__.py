"""Pluggable SINR physics backends.

Every backend implements the :class:`~repro.sinr.backends.base.PhysicsBackend`
protocol -- one round via ``receptions()``, a whole CSR schedule via
``receptions_table()`` -- and they are interchangeable everywhere a network or
simulator needs physics.  Selection is by name (``"dense"``, ``"lazy"`` or
``"spatial"``) through :func:`make_backend`, threaded from
``WirelessNetwork(backend=...)``, the deployment generators, and the CLI's
``--backend`` option.
"""

from __future__ import annotations

from typing import Mapping, Tuple, Union

import numpy as np

from ..model import SINRParameters
from .base import PhysicsBackend, Reception
from .dense import DenseMatrixBackend
from .lazy import LazyBlockBackend
from .spatial import SpatialGridBackend

#: Name -> backend class registry used by :func:`make_backend` and the CLI.
BACKENDS = {
    "dense": DenseMatrixBackend,
    "lazy": LazyBlockBackend,
    "spatial": SpatialGridBackend,
}


def make_backend(
    backend: Union[str, Tuple[str, Mapping[str, object]], PhysicsBackend],
    positions: np.ndarray,
    params: SINRParameters,
) -> PhysicsBackend:
    """Build (or pass through) a physics backend for a placement.

    ``backend`` is a registry name (``"dense"``, ``"lazy"``, ``"spatial"``),
    a ``(name, options)`` pair whose options dict is forwarded to the
    backend constructor as keyword arguments (e.g. ``("spatial",
    {"round_batch": 16})`` or ``("dense", {"gain_dtype": "float32"})`` --
    this is how ``DeploymentSpec.backend_params`` reaches the backend), or
    an already constructed :class:`PhysicsBackend`, whose size must match
    ``positions``.
    """
    if isinstance(backend, PhysicsBackend):
        if backend.size != len(positions):
            raise ValueError(
                f"backend holds {backend.size} nodes but the placement has {len(positions)}"
            )
        return backend
    options: Mapping[str, object] = {}
    if isinstance(backend, tuple):
        if len(backend) != 2 or not isinstance(backend[1], Mapping):
            raise ValueError(
                "tuple backend must be (name, options mapping), got " f"{backend!r}"
            )
        backend, options = backend
    try:
        cls = BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown physics backend {backend!r}; available: {sorted(BACKENDS)}"
        ) from None
    if not options:
        return cls(np.asarray(positions, dtype=float), params)
    try:
        return cls(np.asarray(positions, dtype=float), params, **dict(options))
    except TypeError as exc:
        raise ValueError(
            f"backend {backend!r} rejected options {dict(options)!r}: {exc}"
        ) from None


__all__ = [
    "BACKENDS",
    "DenseMatrixBackend",
    "LazyBlockBackend",
    "PhysicsBackend",
    "Reception",
    "SpatialGridBackend",
    "make_backend",
]
