"""``repro-service`` — run the replay-as-a-service campaign server.

::

    repro-service --root /var/lib/repro --port 8642 --max-jobs 4 \\
        --cache-bytes 2000000000 --tenant-weight ml=3 --tenant-weight ci=1

The server owns everything under ``--root``: the SQLite job queue (jobs
and their work units), the multi-tenant artifact store, and one
directory per job.  SIGTERM/SIGINT stop the units running in the
server's own slots and hand their leases back; a restarted server
re-leases them, so ``repro-service`` can be restarted at any time
without losing recorded work.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Dict, List, Optional

from .server import serve

__all__ = ["main_service"]


def _parse_weight(text: str) -> Dict[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=WEIGHT, got {text!r}")
    try:
        weight = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weight in {text!r} is not a number")
    if weight <= 0:
        raise argparse.ArgumentTypeError("weight must be > 0")
    return {name: weight}


def main_service(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Long-running campaign server: persistent job queue, "
                    "weighted fair-share across tenants, shared artifact "
                    "store with LRU eviction.",
    )
    parser.add_argument("--root", required=True,
                        help="service state directory (queue.db, artifacts/, "
                             "jobs/)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--max-jobs", type=int, default=2,
                        help="jobs RUNNING at once (in local dispatch "
                             "each runs as many units at once as its "
                             "spec's 'jobs')")
    parser.add_argument("--cache-bytes", type=int, default=0,
                        help="artifact-store size bound in bytes "
                             "(0 = unbounded)")
    parser.add_argument("--tenant-weight", type=_parse_weight,
                        action="append", default=[], metavar="NAME=W",
                        help="fair-share weight for a tenant (repeatable)")
    parser.add_argument("--tick-s", type=float, default=0.2,
                        help="scheduler tick interval in seconds")
    parser.add_argument("--dispatch", choices=("local", "workers"),
                        default="local",
                        help="'local' also runs work units in the "
                             "server's own slots; 'workers' leaves them to "
                             "repro-worker processes, which may lease in "
                             "either mode (see docs/distributed.md)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-event log lines")
    args = parser.parse_args(argv)

    weights: Dict[str, float] = {}
    for entry in args.tenant_weight:
        weights.update(entry)

    try:
        asyncio.run(serve(
            args.root, host=args.host, port=args.port,
            max_jobs=args.max_jobs, cache_max_bytes=args.cache_bytes,
            tenant_weights=weights or None, tick_s=args.tick_s,
            dispatch=args.dispatch,
            log=None if args.quiet else print,
        ))
    except KeyboardInterrupt:  # pragma: no cover - belt and braces
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_service())
