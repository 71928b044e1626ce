"""Collectives as point-to-point schedules.

The runtime and the trace replayer decompose every collective into
point-to-point messages — the paper's kernel simulates collectives "as
sets of point-to-point communications" rather than with monolithic
performance models (§2 discusses why monolithic models are the
*simplification* other simulators settle for; an ablation bench
quantifies the difference).

A collective is data: :func:`schedule` returns one rank's part of it as
``(kind, peer, nbytes, flops)`` rows, decided by ``(rank, size, vol,
vol2, splits)`` alone.  Two interpreters walk the rows in order — the
replayer's rank loop (:meth:`repro.core.replay.TraceReplayer._rank_process`)
and :class:`repro.smpi.api.MpiProcess`, which also carries payloads.
The kinds:

* ``SEND`` — blocking send of ``nbytes`` to ``peer`` (post, then wait).
* ``ISEND`` — post a send of ``nbytes`` to ``peer`` and queue it.
* ``WAIT`` — wait for the oldest queued send (``peer`` names its
  destination).
* ``RECV`` — blocking receive from ``peer`` (``ANY_SOURCE`` allowed);
  the payload replaces the buffer.
* ``REDUCE`` — blocking receive from ``peer``, then ``flops`` of the
  reduction operator (kind ``reduce_op``), then the payload is folded
  into the buffer.

Two algorithms: ``"binomial"`` — MPICH-style binomial trees — and
``"flat"`` — the root talks to every rank directly.  All collectives are
rooted at process 0 in the trace format (§3), but the builders accept
any root for completeness of the MPI runtime.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..simkernel.mailbox import ANY_SOURCE

__all__ = [
    "SEND", "ISEND", "WAIT", "RECV", "REDUCE",
    "BARRIER_TOKEN_BYTES",
    "bcast_plan",
    "reduce_plan",
    "subtree_size",
    "schedule",
]

#: Row kinds (see the module docstring).
SEND, ISEND, WAIT, RECV, REDUCE = range(5)

#: Byte size of the token messages used by barrier synchronisation.
BARRIER_TOKEN_BYTES = 1


def bcast_plan(rank: int, size: int, root: int = 0
               ) -> Tuple[Optional[int], List[int]]:
    """(parent, children) of ``rank`` in the binomial broadcast tree.

    The root has no parent.  Children are returned in sending order
    (highest stride first, as MPICH sends them).
    """
    if size < 1:
        raise ValueError(f"communicator size must be >= 1, got {size}")
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} out of range for size {size}")
    if not 0 <= root < size:
        raise ValueError(f"root {root} out of range for size {size}")
    relative = (rank - root) % size

    parent = None
    mask = 1
    while mask < size:
        if relative & mask:
            parent = ((relative & ~mask) + root) % size
            break
        mask <<= 1
    # ``mask`` now is the first set bit of ``relative`` (or >= size for the
    # root); children are at strides below it.
    mask >>= 1
    children = []
    while mask > 0:
        if relative + mask < size:
            children.append((relative + mask + root) % size)
        mask >>= 1
    return parent, children


def reduce_plan(rank: int, size: int, root: int = 0
                ) -> Tuple[List[int], Optional[int]]:
    """(children-to-receive-from, parent-to-send-to) for binomial reduce.

    The reduce tree is the mirror of the broadcast tree: every rank first
    receives partial results from its broadcast children (lowest stride
    first), then forwards to its broadcast parent.
    """
    parent, children = bcast_plan(rank, size, root)
    return list(reversed(children)), parent


def subtree_size(rank: int, size: int, root: int = 0) -> int:
    """Number of ranks in ``rank``'s subtree of the binomial broadcast
    tree (the rank itself included).  The root's subtree is the whole
    communicator; a leaf's is 1.
    """
    if size < 1:
        raise ValueError(f"communicator size must be >= 1, got {size}")
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} out of range for size {size}")
    if not 0 <= root < size:
        raise ValueError(f"root {root} out of range for size {size}")
    relative = (rank - root) % size
    if relative == 0:
        return size
    # The subtree rooted at ``relative`` spans [relative, relative+mask)
    # where mask is relative's lowest set bit, clipped to the
    # communicator for non-power-of-two sizes.
    mask = relative & -relative
    return min(mask, size - relative)


def _tree_bcast(rank, size, nbytes, root):
    # One child send at a time, each waited: MPICH's binomial bcast is
    # sequential, and posting every child send at once would make them
    # contend on the parent's uplink, breaking the reduce-tree mirror.
    parent, children = bcast_plan(rank, size, root)
    rows = [] if parent is None else [(RECV, parent, 0.0, 0.0)]
    return rows + [(SEND, child, nbytes, 0.0) for child in children]


def _tree_reduce(rank, size, nbytes, flops, root):
    children, parent = reduce_plan(rank, size, root)
    rows = [(REDUCE, child, 0.0, flops) for child in children]
    if parent is not None:
        rows.append((SEND, parent, nbytes, 0.0))
    return rows


def _star_bcast(rank, size, nbytes, root):
    # The root posts every send, then waits them in posting order.
    if rank != root:
        return [(RECV, root, 0.0, 0.0)]
    others = [dst for dst in range(size) if dst != root]
    return ([(ISEND, dst, nbytes, 0.0) for dst in others]
            + [(WAIT, dst, 0.0, 0.0) for dst in others])


def _star_reduce(rank, size, nbytes, flops, root):
    # The root folds contributions in arrival order.
    if rank != root:
        return [(SEND, root, nbytes, 0.0)]
    return [(REDUCE, ANY_SOURCE, 0.0, flops)] * (size - 1)


def _pairwise(rank, size, nbytes_to):
    # MPICH's long-message all-to-all: at step s send to rank + s while
    # receiving from rank - s.  One message per ordered pair, so FIFO
    # matching inside the collective's tag is unambiguous; the own-rank
    # share stays local and costs nothing.
    rows = []
    for step in range(1, size):
        dst = (rank + step) % size
        rows += [(ISEND, dst, nbytes_to[dst], 0.0),
                 (RECV, (rank - step) % size, 0.0, 0.0),
                 (WAIT, dst, 0.0, 0.0)]
    return rows


def schedule(name: str, rank: int, size: int, vol: float,
             vol2: float = 0.0, splits=None, algorithm: str = "binomial",
             root: int = 0) -> List[tuple]:
    """``rank``'s rows of collective ``name`` (a trace keyword) over a
    ``size``-process communicator.

    ``vol`` / ``vol2`` are the action's volumes (``vcomm`` / ``vcomp``),
    ``splits`` the allToAllv row.  Under both algorithms, ``barrier`` is
    a binomial 1-byte reduce then bcast, and the all-to-alls are
    pairwise: flat-tree has no root to flatten them onto.
    """
    if algorithm == "flat":
        bcast, reduce = _star_bcast, _star_reduce
    else:
        bcast, reduce = _tree_bcast, _tree_reduce
    if name == "bcast":
        return bcast(rank, size, vol, root)
    if name == "reduce":
        return reduce(rank, size, vol, vol2, root)
    if name == "allReduce":
        return (reduce(rank, size, vol, vol2, root)
                + bcast(rank, size, vol, root))
    if name == "barrier":
        return (_tree_reduce(rank, size, BARRIER_TOKEN_BYTES, 0.0, root)
                + _tree_bcast(rank, size, BARRIER_TOKEN_BYTES, root))
    if name == "allToAll":
        return _pairwise(rank, size, [vol] * size)
    if name == "allToAllv":
        # The matched receive's volume comes from the sender's own split,
        # so asymmetric matrices replay exactly; a zero split is still an
        # (empty) message, as MPI_Alltoallv posts the full schedule.
        if len(splits) != size:
            raise ValueError(
                f"p{rank}: allToAllv carries {len(splits)} split sizes for "
                f"a {size}-process communicator")
        return _pairwise(rank, size, [float(s) for s in splits])
    if name == "allGather":
        # Gather to the root, then broadcast the ``size * vol`` buffer.
        # Up a binomial tree each rank forwards its whole subtree's
        # contributions at once.
        if algorithm == "flat":
            rows = ([(SEND, root, vol, 0.0)] if rank != root
                    else [(RECV, ANY_SOURCE, 0.0, 0.0)] * (size - 1))
        else:
            children, parent = reduce_plan(rank, size, root)
            rows = [(RECV, child, 0.0, 0.0) for child in children]
            if parent is not None:
                rows.append((SEND, parent,
                             subtree_size(rank, size, root) * vol, 0.0))
        return rows + bcast(rank, size, size * vol, root)
    if name == "reduceScatter":
        # Reduce the full ``vol`` to the root, then scatter ``vol / size``
        # per rank; down a binomial tree each child link carries its
        # subtree's shares.
        rows = reduce(rank, size, vol, vol2, root)
        share = vol / size
        if algorithm == "flat":
            return rows + _star_bcast(rank, size, share, root)
        parent, children = bcast_plan(rank, size, root)
        if parent is not None:
            rows.append((RECV, parent, 0.0, 0.0))
        return rows + [(SEND, child, subtree_size(child, size, root) * share,
                        0.0) for child in children]
    raise ValueError(f"p{rank}: no collective schedule for {name!r}")
