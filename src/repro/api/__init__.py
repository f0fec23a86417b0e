"""Unified programmatic API: typed requests, one warm session, a service.

This package is the single front door to every workflow the repository
supports:

* :mod:`repro.api.schema` — versioned, JSON-serialisable request/result
  dataclasses (``SimulateRequest``, ``RooflineRequest``, ``SweepRequest``,
  ``ExploreRequest`` and their results, wrapped in ``ApiResult``
  envelopes with schema version, timing and per-request engine stats);
* :mod:`repro.api.session` — :class:`Session`, the facade that owns
  exactly one :class:`~repro.engine.SimulationEngine`, which keeps
  traces and layer results warm across calls;
* :mod:`repro.api.service` — the ``repro serve`` batch service
  (stdlib ``ThreadingHTTPServer``) dispatching POSTed request documents
  into a shared session.

The CLI subcommands are thin clients of this layer: they build a
request, call :meth:`Session.submit` and format the result.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "SimulateRequest",
    "RooflineRequest",
    "ScaleRequest",
    "SweepRequest",
    "ExploreRequest",
    "SimulateResult",
    "RooflineResult",
    "ScaleResult",
    "SweepResult",
    "ExploreResult",
    "ApiResult",
    "request_from_dict",
    "Session",
    "ApiServer",
    "create_server",
    "serve",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api.schema": (
        "SCHEMA_VERSION", "ApiResult", "ExploreRequest", "ExploreResult",
        "RooflineRequest", "RooflineResult", "ScaleRequest", "ScaleResult",
        "SchemaError", "SimulateRequest", "SimulateResult", "SweepRequest",
        "SweepResult", "request_from_dict",
    ),
    "repro.api.session": ("Session",),
    "repro.api.service": ("ApiServer", "create_server", "serve"),
})
