"""Synchronous LOCAL runtime (paper, Section 1.4).

Executes a :class:`repro.local.algorithm.DistributedAlgorithm` on a network
in lock-step rounds: every node sends a message on each port, the network
delivers them, every node updates its state; nodes announce outputs and the
run stops once all have.  Message size and local computation are unbounded,
exactly as in the LOCAL model.

Three network adapters realise the models:

* :class:`ECNetwork` — ports are edge colours of an :class:`ECGraph`.  A
  message sent on a *loop* port is delivered back to the sender on the same
  port: this is precisely the universal-cover semantics (the neighbour across
  a loop is a symmetric copy of the sender), making every simulator run on a
  multigraph equal to the corresponding run on any simple lift.
* :class:`PONetwork` — ports are ``("out", c)`` / ``("in", c)`` slots of a
  :class:`POGraph`; a message sent out on colour ``c`` over arc ``(u, v)``
  arrives at ``v``'s ``("in", c)`` port, and vice versa.  A directed loop
  wires the node's own out-slot to its in-slot.
* :class:`IDNetwork` — a simple networkx graph whose integer node labels are
  the unique identifiers; ports are neighbour identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

import networkx as nx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sanitize import AccessLog

from ..graphs.digraph import POGraph
from ..graphs.multigraph import ECGraph
from ..obs.tracer import current_tracer
from .algorithm import DistributedAlgorithm
from .context import NodeContext, Port

Node = Hashable

__all__ = ["Network", "ECNetwork", "PONetwork", "IDNetwork", "RunResult", "run", "run_rounds"]


class Network:
    """Abstract network: contexts plus message routing."""

    model: str

    def nodes(self) -> List[Node]:
        """All nodes of the network."""
        raise NotImplementedError

    def context(self, v: Node) -> NodeContext:
        """The local context node ``v`` executes under."""
        raise NotImplementedError

    def route(self, v: Node, port: Port, message: Any) -> Tuple[Node, Port]:
        """Destination ``(node, port)`` of a message sent by ``v`` on ``port``."""
        raise NotImplementedError


class ECNetwork(Network):
    """Network over an :class:`ECGraph`; ports are incident edge colours."""

    model = "EC"

    def __init__(self, g: ECGraph, globals_: Optional[Dict[str, Any]] = None):
        self.graph = g
        # Routing reads go to a frozen kernel snapshot taken here: later
        # mutations of the view cannot skew an in-flight run, and the hot
        # per-message lookups bypass the mutable-view layer entirely.
        self.kernel = g.kernel
        self.globals_ = dict(globals_ or {})
        self._contexts = {
            v: NodeContext(
                node=v,
                model="EC",
                ports=tuple(sorted(self.kernel.incident_colors(v), key=repr)),
                globals=self.globals_,
            )
            for v in self.kernel.nodes()
        }

    def nodes(self) -> List[Node]:
        return list(self._contexts.keys())

    def context(self, v: Node) -> NodeContext:
        return self._contexts[v]

    def route(self, v: Node, port: Port, message: Any) -> Tuple[Node, Port]:
        edge = self.kernel.edge_at(v, port)
        if edge is None:
            raise KeyError(f"node {v!r} has no port {port!r}")
        if edge.is_loop:
            return (v, port)  # the echo: a loop's neighbour is a copy of oneself
        return (edge.other(v), port)


class PONetwork(Network):
    """Network over a :class:`POGraph`; ports are directed colour slots."""

    model = "PO"

    def __init__(self, g: POGraph, globals_: Optional[Dict[str, Any]] = None):
        self.graph = g
        # Frozen routing snapshot; see ECNetwork.__init__.
        self.kernel = g.kernel
        self.globals_ = dict(globals_ or {})
        self._contexts = {}
        for v in self.kernel.nodes():
            ports = tuple(
                [("out", c) for c in sorted(self.kernel.out_colors(v), key=repr)]
                + [("in", c) for c in sorted(self.kernel.in_colors(v), key=repr)]
            )
            self._contexts[v] = NodeContext(node=v, model="PO", ports=ports, globals=self.globals_)

    def nodes(self) -> List[Node]:
        return list(self._contexts.keys())

    def context(self, v: Node) -> NodeContext:
        return self._contexts[v]

    def route(self, v: Node, port: Port, message: Any) -> Tuple[Node, Port]:
        kind, color = port
        if kind == "out":
            arc = self.kernel.out_edge(v, color)
            if arc is None:
                raise KeyError(f"node {v!r} has no out-port {color!r}")
            return (arc.head, ("in", color))
        if kind == "in":
            arc = self.kernel.in_edge(v, color)
            if arc is None:
                raise KeyError(f"node {v!r} has no in-port {color!r}")
            return (arc.tail, ("out", color))
        raise KeyError(f"bad PO port {port!r}")


class IDNetwork(Network):
    """Network over a simple networkx graph; node labels are identifiers."""

    model = "ID"

    def __init__(self, g: "nx.Graph", globals_: Optional[Dict[str, Any]] = None):
        if any(u == v for u, v in g.edges()):
            raise ValueError("ID-graphs are simple: no self-loops allowed")
        self.graph = g
        self.globals_ = dict(globals_ or {})
        self._contexts = {
            v: NodeContext(
                node=v,
                model="ID",
                ports=tuple(sorted(g.neighbors(v))),
                identifier=v,
                globals=self.globals_,
            )
            for v in g.nodes()
        }

    def nodes(self) -> List[Node]:
        return list(self._contexts.keys())

    def context(self, v: Node) -> NodeContext:
        return self._contexts[v]

    def route(self, v: Node, port: Port, message: Any) -> Tuple[Node, Port]:
        if not self.graph.has_edge(v, port):
            raise KeyError(f"node {v!r} has no neighbour {port!r}")
        return (port, v)


@dataclass
class RunResult:
    """Outcome of a simulator run.

    Attributes
    ----------
    outputs:
        Local output of each node (``None`` for nodes that never halted).
    rounds:
        Number of communication rounds executed.
    halted:
        Whether every node announced an output.
    states:
        Final internal state of each node (useful for debugging/tests).
    message_counts:
        Messages delivered per round.
    """

    outputs: Dict[Node, Any]
    rounds: int
    halted: bool
    states: Dict[Node, Any] = field(default_factory=dict)
    message_counts: List[int] = field(default_factory=list)
    #: access log of a sanitized run (``None`` unless ``sanitize=True``)
    access_log: Optional["AccessLog"] = None


def _contexts_for(
    network: Network,
    algorithm: DistributedAlgorithm,
    nodes: List[Node],
    sanitize: bool,
    sanitize_mode: str,
):
    """Context table for a run, optionally wrapped in the locality sanitizer."""
    ctxs = {v: network.context(v) for v in nodes}
    if not sanitize:
        return ctxs, None
    from .sanitize import wrap_contexts

    return wrap_contexts(ctxs, network.model, algorithm, mode=sanitize_mode)


def run(
    network: Network,
    algorithm: DistributedAlgorithm,
    *,
    max_rounds: int = 10_000,
    sanitize: bool = False,
    sanitize_mode: str = "raise",
    tracer=None,
) -> RunResult:
    """Execute ``algorithm`` on ``network`` until all nodes output or the cap.

    Outputs are polled *before* the first round (a 0-round algorithm halts
    immediately with only its context) and after every round.  The returned
    ``rounds`` is the number of communication rounds actually performed —
    the quantity the paper's lower bound is about.

    With ``sanitize=True`` every context is wrapped in the locality
    sanitizer (:mod:`repro.local.sanitize`): out-of-model reads raise a
    ``LocalityViolation`` (or are recorded when ``sanitize_mode="log"``)
    and the returned result carries the full ``access_log``.

    ``tracer`` (a :class:`repro.obs.Tracer`) records one ``local.run`` span
    with nested per-round ``local.round`` spans (messages delivered and
    nodes that sent) and ``local.poll`` spans timing the output polls; it
    defaults to the ambient tracer, a no-op unless installed via
    :func:`repro.obs.use_tracer`.

    All options are keyword-only; the deprecated positional spellings from
    the pre-keyword API were removed after two majors of soak — passing
    them now raises :class:`TypeError` like any other excess positional.
    """
    if algorithm.model != network.model:
        raise ValueError(
            f"algorithm model {algorithm.model!r} does not match network model {network.model!r}"
        )
    tracer = tracer if tracer is not None else current_tracer()
    nodes = network.nodes()
    ctxs, access_log = _contexts_for(network, algorithm, nodes, sanitize, sanitize_mode)
    with tracer.span(
        "local.run",
        model=network.model,
        algorithm=type(algorithm).__name__,
        nodes=len(nodes),
    ) as run_span:
        states = {v: algorithm.initial_state(ctxs[v]) for v in nodes}
        message_counts: List[int] = []

        def poll() -> Dict[Node, Any]:
            with tracer.span("local.poll") as poll_span:
                polled = {v: algorithm.output(states[v], ctxs[v]) for v in nodes}
                poll_span.set(pending=sum(1 for o in polled.values() if o is None))
            return polled

        outputs = poll()
        rounds = 0
        while any(o is None for o in outputs.values()) and rounds < max_rounds:
            with tracer.span("local.round", round=rounds) as round_span:
                inboxes: Dict[Node, Dict[Port, Any]] = {v: {} for v in nodes}
                count = senders = 0
                for v in nodes:
                    sent = algorithm.send(states[v], ctxs[v])
                    if sent:
                        senders += 1
                    for port, message in sent.items():
                        target, tport = network.route(v, port, message)
                        inboxes[target][tport] = message
                        count += 1
                message_counts.append(count)
                for v in nodes:
                    states[v] = algorithm.receive(states[v], ctxs[v], inboxes[v])
                rounds += 1
                round_span.set(messages=count, senders=senders)
            outputs = poll()

        halted = all(o is not None for o in outputs.values())
        run_span.set(rounds=rounds, halted=halted, messages=sum(message_counts))
        tracer.metrics.counter("local.runs", model=network.model).inc()
        tracer.metrics.counter("local.rounds", model=network.model).inc(rounds)
        tracer.metrics.counter("local.messages", model=network.model).inc(
            sum(message_counts)
        )
    return RunResult(
        outputs=outputs,
        rounds=rounds,
        halted=halted,
        states=states,
        message_counts=message_counts,
        access_log=access_log,
    )


def run_rounds(
    network: Network,
    algorithm: DistributedAlgorithm,
    rounds: int,
    *,
    sanitize: bool = False,
    sanitize_mode: str = "raise",
    tracer=None,
) -> RunResult:
    """Execute exactly ``rounds`` communication rounds (or fewer if all halt).

    Unlike :func:`run`, nodes that have not announced an output by the end
    are *snapshotted*: their entry in ``outputs`` is whatever
    ``algorithm.snapshot(state, ctx)`` reports (``None`` if the algorithm
    offers no snapshot).  This realises evaluating a ``t``-time algorithm on
    a radius-``t`` view: whatever the node's state holds after ``t`` rounds
    is, by locality, its final answer on any graph agreeing on that view.

    Per-round message delivery counts are recorded in
    ``RunResult.message_counts`` exactly as in :func:`run`, and ``tracer``
    behaves identically (``local.run_rounds`` / ``local.round`` spans).

    All options after ``rounds`` are keyword-only; the deprecated
    positional spellings were removed after two majors of soak — passing
    them now raises :class:`TypeError` like any other excess positional.
    """
    if algorithm.model != network.model:
        raise ValueError(
            f"algorithm model {algorithm.model!r} does not match network model {network.model!r}"
        )
    tracer = tracer if tracer is not None else current_tracer()
    nodes = network.nodes()
    ctxs, access_log = _contexts_for(network, algorithm, nodes, sanitize, sanitize_mode)
    with tracer.span(
        "local.run_rounds",
        model=network.model,
        algorithm=type(algorithm).__name__,
        nodes=len(nodes),
        budget=rounds,
    ) as run_span:
        states = {v: algorithm.initial_state(ctxs[v]) for v in nodes}
        message_counts: List[int] = []
        executed = 0
        for _ in range(rounds):
            if all(algorithm.output(states[v], ctxs[v]) is not None for v in nodes):
                break
            with tracer.span("local.round", round=executed) as round_span:
                inboxes: Dict[Node, Dict[Port, Any]] = {v: {} for v in nodes}
                count = senders = 0
                for v in nodes:
                    sent = algorithm.send(states[v], ctxs[v])
                    if sent:
                        senders += 1
                    for port, message in sent.items():
                        target, tport = network.route(v, port, message)
                        inboxes[target][tport] = message
                        count += 1
                message_counts.append(count)
                for v in nodes:
                    states[v] = algorithm.receive(states[v], ctxs[v], inboxes[v])
                executed += 1
                round_span.set(messages=count, senders=senders)
        outputs: Dict[Node, Any] = {}
        for v in nodes:
            out = algorithm.output(states[v], ctxs[v])
            if out is None:
                out = algorithm.snapshot(states[v], ctxs[v])
            outputs[v] = out
        halted = all(o is not None for o in outputs.values())
        run_span.set(rounds=executed, halted=halted, messages=sum(message_counts))
        tracer.metrics.counter("local.runs", model=network.model).inc()
        tracer.metrics.counter("local.rounds", model=network.model).inc(executed)
        tracer.metrics.counter("local.messages", model=network.model).inc(
            sum(message_counts)
        )
    return RunResult(
        outputs=outputs,
        rounds=executed,
        halted=halted,
        states=states,
        message_counts=message_counts,
        access_log=access_log,
    )
