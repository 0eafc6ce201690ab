"""Request payload -> spec adapter: validate untrusted JSON before execution.

The executor trusts its :class:`~repro.api.specs.RunSpec` inputs: registry
lookups raise ``KeyError`` mid-run and malformed parameter values raise
``TypeError`` from the spec constructors.  That is the right behavior for
in-process callers (the stack trace points at the caller's bug), but a
network service cannot hand stack traces to clients -- it needs every
problem with a payload collected up front and reported as a structured
*400*, naming the offending field.

This module is that boundary:

* :func:`spec_from_request` -- parse a request body (a bare spec dictionary
  or a ``{"spec": ...}`` envelope) into a :class:`RunSpec`, converting
  every construction error into :class:`SpecValidationError` with a
  field path (``"deployment.params"``, ``"algorithm.name"``, ...);
* :func:`validate_spec` -- check a structurally sound spec against the
  live registries (deployment kind, algorithm name, config preset,
  physics backend, mobility kind) and return the list of problems instead
  of raising on the first one, so a client sees everything wrong with its
  payload in a single round trip.

Used by :mod:`repro.service` for every run/session endpoint; useful to any
caller executing specs it did not construct itself (queue consumers,
notebook loaders of third-party artifacts).
"""

from __future__ import annotations

import inspect
from typing import Any, List, Mapping, Optional

from .registry import ALGORITHMS, BACKENDS, CONFIG_PRESETS, DEPLOYMENTS, MOBILITY
from .specs import RunSpec

__all__ = ["SpecValidationError", "spec_from_request", "validate_spec"]


class SpecValidationError(ValueError):
    """A request payload does not describe a valid, executable spec.

    ``problems`` holds one human-readable message per defect, each prefixed
    with the JSON path of the offending field; the exception message joins
    them, so ``str(exc)`` is directly usable as an HTTP 400 body.
    """

    def __init__(self, problems: List[str]) -> None:
        self.problems = list(problems)
        super().__init__("; ".join(self.problems) or "invalid spec")


def _registry_problem(field: str, name: Any, registry, label: str) -> Optional[str]:
    """One problem line when ``name`` is not a key of ``registry`` (else None)."""
    try:
        names = sorted(registry.names()) if hasattr(registry, "names") else sorted(registry)
    except Exception:  # pragma: no cover - registries are plain mappings
        names = []
    if name in names:
        return None
    return f"{field}: unknown {label} {str(name)!r} (available: {', '.join(names)})"


def _backend_param_problems(backend: str, options: Mapping[str, Any]) -> List[str]:
    """Problems with ``backend_params``, judged by the named backend itself.

    Keys must be constructor keywords of the backend (``make_backend``
    passes the placement and the SINR parameters positionally first), and
    values must pass the backend's own :attr:`PhysicsBackend.option_checks`
    rules -- the same functions its constructor runs.
    """
    cls = BACKENDS[backend]
    accepted = list(inspect.signature(cls).parameters)[2:]
    problems: List[str] = []
    for key, value in options.items():
        field = f"deployment.backend_params.{key}"
        if key not in accepted:
            problems.append(
                f"{field}: not an option of the {backend!r} backend (accepted: {', '.join(accepted)})"
            )
            continue
        check = cls.option_checks.get(key)
        if check is None:
            continue
        try:
            check(value)
        except ValueError as exc:
            problems.append(f"{field}: {exc}")
    return problems


def validate_spec(spec: RunSpec) -> List[str]:
    """Check a spec's names against the live registries; return all problems.

    A structurally valid spec can still be unexecutable: its deployment
    kind, algorithm name, config preset, physics backend or mobility kind
    may not be registered (typo, or a plugin not loaded in this process).
    Returns one message per problem -- an empty list means the executor's
    registry lookups will all succeed and the backend accepts the spec's
    ``backend_params``.  Standalone algorithms (which build
    their own network) skip the deployment-kind check, matching the
    executor; a spec with a dynamics block additionally validates the
    mobility kind and epoch count.
    """
    problems: List[str] = []
    algorithm_entry = None
    problem = _registry_problem("algorithm.name", spec.algorithm.name, ALGORITHMS, "algorithm")
    if problem is not None:
        problems.append(problem)
    else:
        algorithm_entry = ALGORITHMS.get(spec.algorithm.name)
    problem = _registry_problem("algorithm.preset", spec.algorithm.preset, CONFIG_PRESETS, "config preset")
    if problem is not None:
        problems.append(problem)
    standalone = bool(algorithm_entry is not None and algorithm_entry.standalone)
    if not standalone and spec.deployment.kind != "none":
        problem = _registry_problem("deployment.kind", spec.deployment.kind, DEPLOYMENTS, "deployment")
        if problem is not None:
            problems.append(problem)
    if not standalone:
        problem = _registry_problem("deployment.backend", spec.deployment.backend, BACKENDS, "physics backend")
        if problem is not None:
            problems.append(problem)
        else:
            problems.extend(
                _backend_param_problems(spec.deployment.backend, spec.deployment.backend_param_dict())
            )
    if spec.dynamics is not None:
        if algorithm_entry is not None and algorithm_entry.standalone:
            problems.append(
                f"dynamics: algorithm {spec.algorithm.name!r} is standalone and cannot run dynamically"
            )
        problem = _registry_problem(
            "dynamics.mobility.kind", spec.dynamics.mobility.kind, MOBILITY, "mobility model"
        )
        if problem is not None:
            problems.append(problem)
    return problems


def spec_from_request(payload: Any, check_registries: bool = True) -> RunSpec:
    """Parse an untrusted request payload into a validated :class:`RunSpec`.

    Accepts either a bare spec dictionary (the exact :meth:`RunSpec.to_dict`
    shape) or an envelope carrying one under a ``"spec"`` key (the service's
    request format, leaving room for sibling execution options).  Every
    defect -- wrong top-level type, missing sections, malformed parameter
    values, and (unless ``check_registries=False``) names unknown to the
    registries -- raises :class:`SpecValidationError` listing all problems
    at once.
    """
    if isinstance(payload, Mapping) and "spec" in payload:
        payload = payload["spec"]
    if not isinstance(payload, Mapping):
        raise SpecValidationError(
            [f"spec: expected a JSON object, got {type(payload).__name__}"]
        )
    problems: List[str] = []
    for section in ("deployment", "algorithm"):
        if section not in payload:
            problems.append(f"spec.{section}: required section is missing")
        elif not isinstance(payload[section], Mapping):
            problems.append(
                f"spec.{section}: expected a JSON object, got {type(payload[section]).__name__}"
            )
    # Unknown keys are rejected, not ignored: a silently dropped key (the
    # classic being a top-level "seed" -- it lives at deployment.seed)
    # would make the service compute a *different experiment* than the
    # client asked for.
    for key in sorted(set(payload) - {"deployment", "algorithm", "tags", "dynamics"}):
        hint = " (the placement seed lives at deployment.seed)" if key == "seed" else ""
        problems.append(f"spec.{key}: unknown key{hint}")
    if problems:
        raise SpecValidationError(problems)
    try:
        spec = RunSpec.from_dict(payload)
    except (TypeError, ValueError, KeyError) as exc:
        raise SpecValidationError([f"spec: {exc}"]) from exc
    if check_registries:
        problems = validate_spec(spec)
        if problems:
            raise SpecValidationError(problems)
    return spec
