"""Multi-tenant artifact store: results + staged traces under one roof.

The campaign layer already has two derived-artifact caches: the
content-addressed :class:`~repro.campaign.cache.ResultCache` (scenario
results) and the ``.tic`` sidecars :mod:`repro.core.compile` drops next
to trace files.  For a long-running, many-tenant service both are
promoted into a single *artifact store*::

    <root>/
      results/<k>/<key>.json    # the shared ResultCache (unchanged layout)
      traces/<digest>/...       # staged trace trees, content-addressed,
                                # growing warm .tic sidecars in place

**Staged traces.**  A submitted scenario with ``trace.kind == "dir"``
references some client-side directory.  The supervisor *stages* it: the
tree is copied under its content digest (``digest_tree``, which skips
``.tic`` files, so the address is stable as sidecars appear) and the
scenario is rewritten to replay the staged copy.  Two tenants submitting
byte-identical traces share one staged tree — and therefore one compiled
``.tic`` set: the first replay compiles, everyone after replays warm.

**Eviction.**  ``max_bytes`` bounds the store.  Eviction is LRU over
*use*: result records get their mtime bumped on every cache hit
(:meth:`ResultCache.get`), staged trees on every staging hit; the
least-recently-used entry (record file or whole trace tree) goes first.
Entries named in ``protect`` — traces referenced by live jobs — are
never evicted.

**Concurrency.**  Writers are atomic (temp + ``os.replace`` for records,
temp tree + ``os.rename`` for traces); readers take no locks: a reader
racing a writer sees the old artifact or the new one, never a torn one.
Per-tenant counters kept here are in-process views (the server folds the
authoritative per-tenant totals into the queue DB from each job's
campaign metrics — see :meth:`Supervisor.settle`).
"""

from __future__ import annotations

import io
import os
import shutil
import tarfile
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..campaign.cache import ResultCache, digest_tree, tree_files

__all__ = ["ArtifactStore", "pack_tree_tar", "unpack_tree_tar"]


def pack_tree_tar(root: str) -> bytes:
    """A trace tree as an (uncompressed) tar archive — the wire format of
    the artifact fetch/push endpoints.  Members are exactly the files its
    digest covers (:func:`tree_files`): a ``.tic`` sidecar would arrive
    unverified, so it never ships.  Trace bytes are already dense;
    compression would cost CPU on the single-threaded server for
    little."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for path, rel in tree_files(root):
            tar.add(path, arcname=rel, recursive=False)
    return buf.getvalue()


def _safe_members(tar: tarfile.TarFile) -> Iterator[tarfile.TarInfo]:
    for member in tar.getmembers():
        parts = member.name.split("/")
        if member.name.startswith("/") or ".." in parts:
            raise ValueError(f"unsafe tar member {member.name!r}")
        if not (member.isreg() or member.isdir()):
            raise ValueError(
                f"unsupported tar member type for {member.name!r}")
        yield member


def unpack_tree_tar(data: bytes, dst: str) -> None:
    """Extract an artifact tar under ``dst``, refusing absolute paths,
    ``..`` traversal, and non-file members."""
    os.makedirs(dst, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(data), mode="r:*") as tar:
        members = list(_safe_members(tar))
        try:
            tar.extractall(dst, members=members, filter="data")
        except TypeError:   # Python < 3.12: no extraction filters
            tar.extractall(dst, members=members)


def _tree_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


class ArtifactStore:
    """One directory holding every shareable artifact of the service."""

    def __init__(self, root: str, max_bytes: int = 0) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 (0 = unbounded)")
        self.root = root
        self.max_bytes = max_bytes
        self.results_dir = os.path.join(root, "results")
        self.traces_dir = os.path.join(root, "traces")
        os.makedirs(self.results_dir, exist_ok=True)
        os.makedirs(self.traces_dir, exist_ok=True)
        self.results = ResultCache(self.results_dir)
        #: In-process per-tenant counters: {tenant: {counter: n}}.
        self.counters: Dict[str, Dict[str, int]] = {}
        self.evictions = 0
        self.evicted_bytes = 0

    # -- counters --------------------------------------------------------
    def _count(self, tenant: str, counter: str, n: int = 1) -> None:
        per = self.counters.setdefault(tenant, {
            "result_hits": 0, "result_misses": 0,
            "stage_hits": 0, "stage_misses": 0,
        })
        per[counter] += n

    # -- result records --------------------------------------------------
    def get_result(self, key: str,
                   tenant: str = "default") -> Optional[Dict[str, Any]]:
        record = self.results.get(key)
        self._count(tenant,
                    "result_hits" if record is not None else "result_misses")
        return record

    def put_result(self, key: str, record: Dict[str, Any],
                   tenant: str = "default") -> str:
        path = self.results.put(key, record)
        if self.max_bytes:
            self.evict()
        return path

    # -- staged trace trees ----------------------------------------------
    def trace_path(self, digest: str) -> str:
        return os.path.join(self.traces_dir, digest)

    def stage_trace_dir(self, src: str,
                        tenant: str = "default") -> Tuple[str, bool]:
        """Stage a trace directory by content address.

        Returns ``(staged_path, hit)`` — ``hit`` when a byte-identical
        tree was already staged (by any tenant).  The copy lands under a
        temp name and is published with one ``rename``, so a concurrent
        stager of the same tree loses the race harmlessly.
        """
        digest = digest_tree(src)
        dst = self.trace_path(digest)
        if os.path.isdir(dst):
            os.utime(dst, None)     # LRU recency, same as a cache hit
            self._count(tenant, "stage_hits")
            return dst, True
        tmp = os.path.join(self.traces_dir, f".tmp-{digest}-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(src, tmp)
        try:
            os.rename(tmp, dst)
        except OSError:
            # Lost the publish race: someone else staged it first.
            shutil.rmtree(tmp, ignore_errors=True)
            if not os.path.isdir(dst):
                raise
            self._count(tenant, "stage_hits")
            return dst, True
        self._count(tenant, "stage_misses")
        if self.max_bytes:
            # Never evict the tree we just staged — the caller is about
            # to run a job against it.
            self.evict(protect=(digest,))
        return dst, False

    def export_trace_tar(self, digest: str) -> bytes:
        """The staged tree as a tar archive (the fetch endpoint body).
        Raises ``KeyError`` when the digest is not staged.  Counts as a
        use for LRU purposes."""
        path = self.trace_path(digest)
        if not os.path.isdir(path):
            raise KeyError(f"trace {digest!r} is not staged")
        os.utime(path, None)
        return pack_tree_tar(path)

    def import_trace_tar(self, data: bytes, digest: str,
                         tenant: str = "default") -> Tuple[str, bool]:
        """Accept a pushed trace tar, verify its content address, and
        publish it (the push endpoint).  Returns ``(path, hit)``; raises
        ``ValueError`` when the bytes do not hash to ``digest``."""
        dst = self.trace_path(digest)
        if os.path.isdir(dst):
            os.utime(dst, None)
            self._count(tenant, "stage_hits")
            return dst, True
        tmp = os.path.join(self.traces_dir,
                           f".tmp-push-{digest}-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            unpack_tree_tar(data, tmp)
            actual = digest_tree(tmp)
            if actual != digest:
                raise ValueError(
                    f"pushed artifact hashes to {actual[:12]}, "
                    f"not {digest[:12]} — refusing corrupt bytes")
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        try:
            os.rename(tmp, dst)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if not os.path.isdir(dst):
                raise
            self._count(tenant, "stage_hits")
            return dst, True
        self._count(tenant, "stage_misses")
        return dst, False

    # -- size accounting + LRU eviction ----------------------------------
    def _entries(self) -> List[Dict[str, Any]]:
        """Every evictable entry: result record files and trace trees."""
        entries: List[Dict[str, Any]] = []
        for dirpath, _dirs, files in os.walk(self.results_dir):
            for name in files:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append({"kind": "result", "path": path,
                                "name": name[:-len(".json")],
                                "bytes": stat.st_size,
                                "used_at": stat.st_mtime})
        try:
            names = sorted(os.listdir(self.traces_dir))
        except OSError:
            names = []
        for name in names:
            if name.startswith(".tmp-"):
                continue
            path = os.path.join(self.traces_dir, name)
            if not os.path.isdir(path):
                continue
            try:
                used = os.stat(path).st_mtime
            except OSError:
                continue
            entries.append({"kind": "trace", "path": path, "name": name,
                            "bytes": _tree_bytes(path), "used_at": used})
        return entries

    def usage(self) -> Dict[str, Any]:
        entries = self._entries()
        return {
            "bytes": sum(e["bytes"] for e in entries),
            "max_bytes": self.max_bytes,
            "result_records": sum(1 for e in entries
                                  if e["kind"] == "result"),
            "trace_trees": sum(1 for e in entries if e["kind"] == "trace"),
        }

    def evict(self, protect: Iterable[str] = ()) -> List[Dict[str, Any]]:
        """Drop least-recently-used entries until under ``max_bytes``.

        ``protect`` lists trace digests that must survive (traces staged
        for jobs currently running).  Returns what was evicted.  A
        no-op when the store is unbounded.
        """
        if not self.max_bytes:
            return []
        protected = set(protect)
        entries = self._entries()
        total = sum(e["bytes"] for e in entries)
        evicted: List[Dict[str, Any]] = []
        for entry in sorted(entries, key=lambda e: e["used_at"]):
            if total <= self.max_bytes:
                break
            if entry["kind"] == "trace" and entry["name"] in protected:
                continue
            try:
                if entry["kind"] == "trace":
                    shutil.rmtree(entry["path"])
                else:
                    os.unlink(entry["path"])
            except OSError:
                continue
            total -= entry["bytes"]
            self.evictions += 1
            self.evicted_bytes += entry["bytes"]
            evicted.append({"kind": entry["kind"], "name": entry["name"],
                            "bytes": entry["bytes"],
                            "evicted_at": time.time()})
        return evicted

    def counters_doc(self) -> Dict[str, Any]:
        return {
            "usage": self.usage(),
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "tenants": {name: dict(per)
                        for name, per in sorted(self.counters.items())},
        }
