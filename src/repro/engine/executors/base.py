"""The ``SweepExecutor`` protocol: where shards run is an interface.

:func:`repro.engine.run_sweep` owns everything a sweep *means* — sharding,
the :class:`~repro.engine.store.ResultStore`, progress emission, resume and
dedup bookkeeping, and the dead-worker recovery policy.  An executor owns
exactly one thing: running a round of shard payloads and handing the
outcomes back.  Two backends ship:

* :class:`~repro.engine.executors.inline.InlineExecutor` — in this
  process, one shard after another; the serial baseline and the default
  for smoke grids and unit tests;
* :class:`~repro.engine.executors.process.ProcessExecutor` — a
  spawn-context process pool.

The conformance contract (``tests/test_executors.py``) is the same for
both: rows byte-identical to the serial baseline, and every fault kind in
:data:`~repro.engine.faults.FAULT_KINDS` survived with byte-identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..faults import InjectedWorkerError

__all__ = [
    "BACKENDS",
    "ExecutionOptions",
    "SweepExecutor",
    "as_executor",
    "check_execution",
]

#: one shard's result: ``(shard_index, rows, trace_document, cache_stats)``
ShardOutcome = Tuple[int, List[dict], dict, dict]
#: a shard that did not finish: ``(payload, exception)``
ShardFailure = Tuple[dict, BaseException]


class SweepExecutor:
    """Base class every sweep backend implements.

    ``parallel`` is the one property the driver adapts to.  A parallel
    backend gets a round's shards at once and runs each in its own OS
    process: only there may a ``kill-worker`` fault send a real
    ``SIGKILL``, and rows reach the driver only when a shard finishes, so
    progress is polled from the result store.  A serial backend gets one
    shard per round, runs it in this process (a ``kill-worker`` fault
    raises :class:`~repro.engine.faults.InjectedWorkerError` instead), and
    reports every row live through ``on_row``.

    The driver calls :meth:`run_round` once per (recovery) round and
    :meth:`is_worker_loss` to triage each failure.  ``run_round`` must
    never raise for a shard failure: it returns ``(outcomes, failures)``
    and lets the driver apply the recovery policy.
    """

    #: registry name; also reported in ``SweepResult.backend``
    name: str = "base"
    #: shard fan-out of a parallel round (1 for serial backends)
    width: int = 1
    #: shards run concurrently, each in its own process
    parallel: bool = False

    def run_round(
        self, payloads: List[dict], on_row: Optional[Callable[[dict, object], None]]
    ) -> Tuple[List[ShardOutcome], List[ShardFailure]]:
        """Execute one round of shards; never raises on shard failure.

        ``on_row`` is the sweep's per-row progress callback on serial
        rounds and ``None`` on parallel ones.
        """
        raise NotImplementedError

    def is_worker_loss(self, exc: BaseException) -> bool:
        """Whether a shard failure means the worker itself died."""
        return isinstance(exc, InjectedWorkerError)


def check_execution(
    workers: int, cell_timeout: Optional[float], retries: int, max_restarts: int
) -> None:
    """The execution-control checks every sweep passes, by any entry point."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")


@dataclass(frozen=True)
class ExecutionOptions:
    """The validated execution-control vocabulary shared by sweep and bench.

    One object backs the CLI flags (``--workers``, ``--backend``,
    ``--cell-timeout``, ``--retries``, ``--max-restarts``) and
    :func:`repro.api.bench`: at least one worker, a known backend name,
    and the checks of :func:`check_execution` that ``run_sweep`` applies
    to every sweep.
    """

    workers: int = 1
    backend: Optional[str] = None
    cell_timeout: Optional[float] = None
    retries: int = 1
    max_restarts: int = 2

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers} (serial runs are "
                f"workers=1 on the inline backend)"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from "
                f"{', '.join(sorted(BACKENDS))}"
            )
        check_execution(self.workers, self.cell_timeout, self.retries, self.max_restarts)

    def engine_kwargs(self) -> dict:
        """The ``run_sweep`` keyword arguments this option set spells."""
        return {
            "workers": self.workers,
            "backend": self.backend,
            "cell_timeout": self.cell_timeout,
            "retries": self.retries,
            "max_restarts": self.max_restarts,
        }


def _make_inline(workers: int) -> SweepExecutor:
    from .inline import InlineExecutor

    return InlineExecutor()


def _make_process(workers: int) -> SweepExecutor:
    from .process import ProcessExecutor

    return ProcessExecutor(workers=workers)


#: backend name -> factory; the CLI's ``--backend`` choices come from here
BACKENDS = {
    "inline": _make_inline,
    "process": _make_process,
}


def as_executor(backend, *, workers: int = 0) -> SweepExecutor:
    """Resolve ``backend`` (name, instance or ``None``) to an executor.

    ``None`` keeps the historical behaviour: ``workers >= 2`` selects the
    process pool, anything less runs inline — so ``run_sweep(workers=0)``
    is still the serial baseline and ``run_sweep(workers=4)`` still spawns.
    """
    if isinstance(backend, SweepExecutor):
        return backend
    if backend is None:
        backend = "process" if workers >= 2 else "inline"
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {', '.join(sorted(BACKENDS))}"
        ) from None
    return factory(workers)
