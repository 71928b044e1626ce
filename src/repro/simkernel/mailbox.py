"""Message matching and the eager/rendezvous transfer protocol.

This layer turns the kernel's raw :class:`CommActivity` flows into
MPI-style matched communications.  Both the simulated-MPI runtime
(:mod:`repro.smpi`) and the trace replayer (:mod:`repro.core.replay`)
speak to it.

Protocol, mirroring the MPI-on-TCP behaviour the paper's piece-wise-linear
model captures (§5):

* **Eager** (size <= ``eager_threshold``): the payload leaves immediately;
  the send request completes when the flow lands whether or not a receive
  is posted, and a receive posted later completes at the flow's arrival
  time (or immediately if it already landed).  This is MPI_Send's buffered
  mode.
* **Rendezvous** (size > ``eager_threshold``): the flow starts only once
  both sides are posted; both requests complete when it finishes.  This is
  MPI_Send's synchronous mode above the implementation threshold.

Matching follows MPI rules: per-destination queues, first-in-first-out per
(source, tag) pair, with ``ANY_SOURCE``/``ANY_TAG`` wildcards.  Negative
tags below ``ANY_TAG`` belong to collectives; ``ANY_TAG`` never matches
them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from .activity import CommActivity, Waitable
from .engine import Engine
from .platform import Host, Platform
from .pwl import PiecewiseLinearModel, DEFAULT_MPI_MODEL
from .telemetry import CommMetrics

__all__ = ["ANY_SOURCE", "ANY_TAG", "CommRequest", "CommSystem"]

ANY_SOURCE = -1
ANY_TAG = -1

# Matches OpenMPI's default point-to-point eager limit for TCP (64 KiB),
# which is also the upper boundary of the paper's third model segment.
DEFAULT_EAGER_THRESHOLD = 65536


class CommRequest(Waitable):
    """One side (send or receive) of a matched communication."""

    __slots__ = ("kind", "src", "dst", "tag", "size", "data")

    def __init__(self, kind: str, src: int, dst: int, tag: int,
                 size: float, data: Any = None) -> None:
        super().__init__()
        self.kind = kind  # "send" | "recv"
        self.src = src
        self.dst = dst
        self.tag = tag
        self.size = size
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CommRequest({self.kind} {self.src}->{self.dst} "
                f"tag={self.tag} size={self.size:g} done={self.done})")


class _PendingComm:
    """A communication being matched and transferred.

    ``links`` (the full route, fatpipes included) is only recorded when
    fault tracking is enabled — it is what lets a link failure find the
    flows crossing it.
    """

    __slots__ = ("send_req", "recv_req", "activity", "arrived", "eager",
                 "links")

    def __init__(self) -> None:
        self.send_req: Optional[CommRequest] = None
        self.recv_req: Optional[CommRequest] = None
        self.activity: Optional[CommActivity] = None
        self.arrived = False
        self.eager = False
        self.links = None


class CommSystem:
    """Matches sends with receives and drives flows over the platform.

    ``rank_hosts`` maps integer ranks to the :class:`Host` each one runs on
    (the deployment of Fig. 6); it can hold several ranks per host, which
    is how the Folding acquisition mode is expressed.
    """

    def __init__(
        self,
        engine: Engine,
        platform: Platform,
        rank_hosts: Dict[int, Host],
        comm_model: PiecewiseLinearModel = DEFAULT_MPI_MODEL,
        eager_threshold: float = DEFAULT_EAGER_THRESHOLD,
        metrics: Optional[CommMetrics] = None,
    ) -> None:
        self.engine = engine
        self.platform = platform
        self.rank_hosts = dict(rank_hosts)
        self.comm_model = comm_model
        self.eager_threshold = eager_threshold
        # Unmatched posted sends / receives, per destination rank.
        self._pending_sends: Dict[int, Deque[_PendingComm]] = {}
        self._pending_recvs: Dict[int, Deque[_PendingComm]] = {}
        # The transfer, queue and cache counters: the caller's (a
        # replay's telemetry) or this layer's own.
        self.metrics = metrics if metrics is not None else CommMetrics()
        # Routes and model factors are static for a run: memoise them
        # (regular MPI codes reuse a handful of peer pairs and sizes).
        self._route_cache: Dict[tuple, tuple] = {}
        self._factor_cache: Dict[float, tuple] = {}
        # Fault tracking (see repro.faults) — None until enabled, so
        # fault-free runs pay a single falsy attribute test per transfer.
        self._inflight: Optional[Dict[_PendingComm, None]] = None
        self._down_links: Optional[set] = None

    @property
    def size(self) -> int:
        """Number of ranks deployed (MPI_Comm_size of COMM_WORLD)."""
        return len(self.rank_hosts)

    def host_of(self, rank: int) -> Host:
        try:
            return self.rank_hosts[rank]
        except KeyError:
            raise KeyError(
                f"rank {rank} not deployed (have ranks "
                f"0..{len(self.rank_hosts) - 1})"
            ) from None

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------
    def isend(self, src: int, dst: int, size: float, tag: int = 0,
              data: Any = None) -> CommRequest:
        """Post a non-blocking send of ``size`` bytes from rank ``src``."""
        return self._post_send(CommRequest("send", src, dst, tag, size, data))

    def irecv(self, dst: int, src: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> CommRequest:
        """Post a non-blocking receive at rank ``dst``."""
        return self._post_recv(CommRequest("recv", src, dst, tag, 0.0))

    def post(self, req: CommRequest) -> CommRequest:
        """Post a request built earlier, as :meth:`isend` / :meth:`irecv`
        would have posted it at this instant (the simulated-MPI layer
        holds back the posts a rank makes while it owes tracing time)."""
        if req.kind == "send":
            return self._post_send(req)
        return self._post_recv(req)

    def _post_send(self, req: CommRequest) -> CommRequest:
        dst, size = req.dst, req.size
        queue = self._pending_recvs.get(dst)
        comm = self._match(queue, req.src, req.tag) if queue else None
        if comm is not None:
            comm.send_req = req
            comm.eager = size <= self.eager_threshold
            self._start_transfer(comm)
        else:
            comm = _PendingComm()
            comm.send_req = req
            comm.eager = size <= self.eager_threshold
            queue = self._pending_sends.setdefault(dst, deque())
            queue.append(comm)
            metrics = self.metrics
            if len(queue) > metrics.max_pending_sends:
                metrics.max_pending_sends = len(queue)
            if comm.eager:
                # Buffered mode: the payload flies now.
                self._start_transfer(comm)
        return req

    def _post_recv(self, req: CommRequest) -> CommRequest:
        dst = req.dst
        queue = self._pending_sends.get(dst)
        comm = self._match(queue, req.src, req.tag) if queue else None
        if comm is not None:
            comm.recv_req = req
            req.size = comm.send_req.size
            req.src = comm.send_req.src
            req.data = comm.send_req.data
            if comm.activity is None:
                # Rendezvous: the sender was waiting for us.
                self._start_transfer(comm)
            elif comm.arrived:
                # Eager payload already landed.
                self.engine.complete_waitable(req)
            # else: eager payload in flight; completion hooks in place.
        else:
            comm = _PendingComm()
            comm.recv_req = req
            queue = self._pending_recvs.setdefault(dst, deque())
            queue.append(comm)
            metrics = self.metrics
            if len(queue) > metrics.max_pending_recvs:
                metrics.max_pending_recvs = len(queue)
        return req

    # Blocking conveniences (generator style: ``yield from comms.send(...)``)
    def send(self, src: int, dst: int, size: float, tag: int = 0,
             data: Any = None):
        req = self.isend(src, dst, size, tag=tag, data=data)
        yield req
        return req

    def recv(self, dst: int, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        req = self.irecv(dst, src=src, tag=tag)
        yield req
        return req

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _match(queue: Optional[Deque[_PendingComm]], src_or_sender: int,
               tag: int) -> Optional[_PendingComm]:
        """Pop the first queue entry compatible with (src, tag).

        When called from ``isend`` the queue holds receive-side entries and
        ``src_or_sender`` is the sending rank (to match the receive's
        source selector); from ``irecv`` it holds send-side entries and
        the roles flip.  MPI's non-overtaking rule is preserved because the
        scan is in posting order.  ``ANY_TAG`` matches only user tags
        (>= 0): the negative tags are collectives', which in MPI run in a
        context of their own, so no wildcard receive can take their
        messages.
        """
        if not queue:
            return None
        for idx, comm in enumerate(queue):
            if comm.recv_req is not None:  # entry posted by a receiver
                want_src = comm.recv_req.src
                want_tag = comm.recv_req.tag
                if (want_src in (ANY_SOURCE, src_or_sender)
                        and (want_tag == tag
                             or (want_tag == ANY_TAG and tag >= 0))):
                    del queue[idx]
                    return comm
            else:  # entry posted by a sender
                have_src = comm.send_req.src
                have_tag = comm.send_req.tag
                if (src_or_sender in (ANY_SOURCE, have_src)
                        and (tag == have_tag
                             or (tag == ANY_TAG and have_tag >= 0))):
                    del queue[idx]
                    return comm
        return None

    def transfer_params(self, src: int, dst: int, size: float):
        """``(links, scaled latency, rate factor)`` for one transfer —
        the exact flow parameters :meth:`_start_transfer` would use,
        route- and factor-cached.  The phase-batched collective driver
        builds its flows through this, so a batched collective crosses
        the same constraints with the same latency/bandwidth scaling as
        the per-rank protocol it replaces."""
        src_host = self.host_of(src)
        dst_host = self.host_of(dst)
        route_key = (id(src_host), id(dst_host))
        cached = self._route_cache.get(route_key)
        if cached is None:
            route = self.platform.route(src_host, dst_host)
            cached = (route.links, route.latency)
            self._route_cache[route_key] = cached
            self.metrics.route_cache_misses += 1
        links, latency = cached
        factors = self._factor_cache.get(size)
        if factors is None:
            factors = self.comm_model.factors(size)
            self._factor_cache[size] = factors
            self.metrics.factor_cache_misses += 1
        lat_factor, bw_factor = factors
        return links, latency * lat_factor, bw_factor

    def _start_transfer(self, comm: _PendingComm) -> None:
        send_req = comm.send_req
        links, latency, bw_factor = self.transfer_params(
            send_req.src, send_req.dst, send_req.size)
        down = self._down_links
        if down and not down.isdisjoint(links):
            # The route crosses a dead link: the transfer is refused and
            # both posted sides fail with the link's provenance.
            dead = next(c for c in links if c in down)
            reason = f"link {dead.name or id(dead)} is down"
            for req in (comm.send_req, comm.recv_req):
                if req is not None and not req.done:
                    self.engine.fail_waitable(req, reason)
            return
        act = CommActivity(
            links,
            send_req.size,
            latency=latency,
            rate_factor=bw_factor,
            name=f"{send_req.src}->{send_req.dst}/{send_req.tag}",
        )
        comm.activity = act
        if self._inflight is not None:
            comm.links = links
            self._inflight[comm] = None
        metrics = self.metrics
        metrics.transfers += 1
        metrics.bytes += send_req.size
        if comm.eager:
            metrics.eager_transfers += 1
        act.on_complete(lambda _act, c=comm: self._on_arrival(c))
        self.engine.start_activity(act)
        if comm.eager and not send_req.done:
            # Buffered mode: MPI_Send returns as soon as the payload is
            # handed to the transport; only the receiver tracks arrival.
            self.engine.complete_waitable(send_req)

    def _on_arrival(self, comm: _PendingComm) -> None:
        comm.arrived = True
        if self._inflight is not None:
            self._inflight.pop(comm, None)
        if comm.send_req is not None:
            self.engine.complete_waitable(comm.send_req)
        if comm.recv_req is not None:
            recv = comm.recv_req
            recv.size = comm.send_req.size
            recv.src = comm.send_req.src
            recv.data = comm.send_req.data
            self.engine.complete_waitable(recv)

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)
    # ------------------------------------------------------------------
    def enable_fault_tracking(self) -> None:
        """Start tracking in-flight flows and down links; called once by
        the fault injector before the simulation starts.  Fault-free runs
        never call this, keeping the transfer path unchanged."""
        if self._inflight is None:
            self._inflight = {}  # insertion-ordered set of _PendingComm
            self._down_links = set()

    def take_link_down(self, constraint, reason: str) -> int:
        """Mark a link constraint down: refuse new flows crossing it and
        FAIL the in-flight ones.  Returns the number of flows failed."""
        self.enable_fault_tracking()
        self._down_links.add(constraint)
        victims = [comm for comm in self._inflight
                   if comm.links and constraint in comm.links]
        for comm in victims:
            self._fail_comm(comm, reason)
        return len(victims)

    def bring_link_up(self, constraint) -> None:
        """Restore a previously downed link for flows started from now on."""
        if self._down_links is not None:
            self._down_links.discard(constraint)

    def fail_flows_of(self, ranks, reason: str) -> int:
        """FAIL the in-flight flows with an endpoint among ``ranks`` (the
        ranks of a crashed host), so they stop sharing links with the
        survivors.  A surviving endpoint's request is left pending: its
        rank ends blocked, a casualty of the crash.  Returns the number
        of flows failed."""
        victims = [comm for comm in self._inflight
                   if comm.send_req.src in ranks
                   or comm.send_req.dst in ranks]
        for comm in victims:
            del self._inflight[comm]
            self.engine.fail_activity(comm.activity, reason)
        return len(victims)

    def _fail_comm(self, comm: _PendingComm, reason: str) -> int:
        """FAIL one in-flight communication: its kernel flow plus both
        posted requests (each waiting process gets an ActivityFailed)."""
        self._inflight.pop(comm, None)
        failed = 0
        act = comm.activity
        if act is not None:
            self.engine.fail_activity(act, reason)
        for req in (comm.send_req, comm.recv_req):
            if req is not None and not req.done and not req.failed:
                self.engine.fail_waitable(req, reason)
                failed += 1
        return failed

    def purge_rank(self, rank: int) -> int:
        """Drop the match-queue entries of a dead rank.

        Every entry queued at it goes (it will never post or receive
        again), and so does every send it posted whose payload has not
        landed: rendezvous sends it never started and eager sends whose
        flow the crash failed (:meth:`fail_flows_of`).  Peers blocked on
        them surface as deadlocked casualties instead of matching
        against a ghost.  Only an eager payload that landed before the
        crash stays deliverable.  Returns the number of purged entries.
        """
        purged = 0
        for queues in (self._pending_recvs, self._pending_sends):
            queue = queues.get(rank)
            if queue:
                purged += len(queue)
                queue.clear()
        for dst_queue in self._pending_sends.values():
            keep = [comm for comm in dst_queue
                    if comm.send_req.src != rank or comm.arrived]
            if len(keep) != len(dst_queue):
                purged += len(dst_queue) - len(keep)
                dst_queue.clear()
                dst_queue.extend(keep)
        return purged

    # ------------------------------------------------------------------
    # Introspection (used by deadlock diagnostics and tests)
    # ------------------------------------------------------------------
    def unmatched_counts(self, by_key: bool = False) -> Dict[str, object]:
        """Unmatched posted sends and receives.

        With ``by_key=False`` (default) returns total counts,
        ``{"sends": n, "recvs": m}``.  With ``by_key=True`` each side is
        broken down by ``(src, dst, tag)`` — wildcards appear as -1 —
        which is what the deadlock report prints so an inconsistent trace
        (e.g. a recv whose matching send was truncated away) is
        attributable to a specific pair in one read.
        """
        if not by_key:
            sends = sum(len(q) for q in self._pending_sends.values())
            recvs = sum(len(q) for q in self._pending_recvs.values())
            return {"sends": sends, "recvs": recvs}
        send_keys: Dict[tuple, int] = {}
        recv_keys: Dict[tuple, int] = {}
        for queue in self._pending_sends.values():
            for comm in queue:
                req = comm.send_req
                key = (req.src, req.dst, req.tag)
                send_keys[key] = send_keys.get(key, 0) + 1
        for queue in self._pending_recvs.values():
            for comm in queue:
                req = comm.recv_req
                key = (req.src, req.dst, req.tag)
                recv_keys[key] = recv_keys.get(key, 0) + 1
        return {"sends": send_keys, "recvs": recv_keys}
