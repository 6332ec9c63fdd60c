"""Sweep-as-a-service: a queued, multi-tenant job API over :mod:`repro.api`.

* :mod:`repro.service.jobs` — the transport-free core: a bounded job
  queue, worker threads driving :func:`repro.api.sweep`, per-tenant rate
  limiting and cancellation;
* :mod:`repro.service.server` — the stdlib HTTP/JSON front-end
  (``repro serve-api``).

See ``docs/service.md`` for the endpoint reference, job lifecycle,
tenants and backpressure contract.
"""

from .jobs import (
    JOB_STATES,
    Backpressure,
    Job,
    JobCancelled,
    ServiceConfig,
    SweepService,
    TokenBucket,
)
from .server import ServiceServer

__all__ = [
    "Backpressure",
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "ServiceConfig",
    "ServiceServer",
    "SweepService",
    "TokenBucket",
]
