"""Content-addressed on-disk cache of simulation-cell results.

Artifacts are small JSON documents keyed by the cell's content hash
(:func:`repro.experiments.spec.cell_hash`), sharded into two-character
subdirectories.  Because the key covers *everything* that determines the
result — topology/policy/traffic specs, load, windows, buffers, and the
derived seed — a hit can be replayed verbatim: re-running a figure only
simulates the cells that are actually missing.

Floats survive the JSON round trip exactly (``repr`` serialization), so
cached statistics are bit-identical to freshly simulated ones.

The cache is hardened against on-disk damage: every artifact written by
:meth:`ResultCache.put` carries a payload checksum verified on read, and
an unreadable artifact (truncated JSON, checksum mismatch) is moved to
the ``corrupt/`` quarantine subdirectory and treated as a miss — a
corrupt cell re-simulates instead of crashing the sweep.  Quarantined
*cells* (poison cells the runner gave up on) are recorded as structured
failure artifacts under ``failed/``.  Neither subdirectory counts as
cache contents: ``len()`` and :meth:`clear` see only the two-character
result shards.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.obs import counter, emit
from repro.utils.export import read_json_artifact, write_json_artifact

__all__ = ["ResultCache"]

#: environment override for the default cache location
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class ResultCache:
    """A directory of ``<hash>.json`` cell artifacts."""

    def __init__(self, root):
        self.root = Path(root)

    @classmethod
    def default(cls) -> "ResultCache":
        """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/experiments``."""
        env = os.environ.get(CACHE_DIR_ENV)
        if env:
            return cls(env)
        return cls(Path.home() / ".cache" / "repro" / "experiments")

    @classmethod
    def from_env(cls) -> "ResultCache | None":
        """The opt-in policy: a cache iff ``$REPRO_CACHE_DIR`` is set.

        Benchmarks and examples use this so that results are never
        silently persisted (and later replayed stale) without the
        operator asking for it.
        """
        env = os.environ.get(CACHE_DIR_ENV)
        return cls(env) if env else None

    @property
    def corrupt_dir(self) -> Path:
        """Quarantine directory for unreadable artifacts."""
        return self.root / "corrupt"

    @property
    def failed_dir(self) -> Path:
        """Directory of structured failure artifacts for poison cells."""
        return self.root / "failed"

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> "dict | None":
        """The cached artifact for ``key``, or None on a miss.

        An artifact that exists but cannot be read back (truncated or
        garbled JSON, checksum mismatch) is quarantined to ``corrupt/``
        and reported as a miss, so the cell re-simulates and the next
        write replaces it cleanly.
        """
        path = self.path_for(key)
        doc = read_json_artifact(path)
        if doc is None and path.is_file():
            counter("cache.corrupt").inc()
            emit("cache.corrupt", key=key)
            self.quarantine(key)
        counter("cache.hits" if doc is not None else "cache.misses").inc()
        return doc

    def put(self, key: str, doc: dict) -> Path:
        """Store ``doc`` under ``key``; returns the artifact path.

        Artifacts are written atomically and stamped with a payload
        checksum that :meth:`get` verifies.
        """
        path = write_json_artifact(self.path_for(key), doc, checksum=True)
        # Chaos injection point (tests only): may truncate the artifact
        # just written, simulating a non-atomic writer's crash.  The
        # literal must match repro.experiments.chaos.CHAOS_ENV.
        if os.environ.get("REPRO_CHAOS"):
            from repro.experiments.chaos import active_plan

            plan = active_plan()
            if plan is not None:
                plan.after_artifact_write(path)
        return path

    def quarantine(self, key: str) -> "Path | None":
        """Move ``key``'s artifact to ``corrupt/``; its new path, or None.

        Keeps the damaged bytes for post-mortems instead of deleting
        evidence; a name collision (the same key quarantined twice)
        gains a numeric suffix.
        """
        src = self.path_for(key)
        if not src.is_file():
            return None
        counter("cache.quarantined").inc()
        self.corrupt_dir.mkdir(parents=True, exist_ok=True)
        dest = self.corrupt_dir / src.name
        n = 0
        while dest.exists():
            n += 1
            dest = self.corrupt_dir / f"{src.name}.{n}"
        try:
            os.replace(src, dest)
        except OSError:
            src.unlink(missing_ok=True)
            return None
        return dest

    def put_failure(self, key: str, doc: dict) -> Path:
        """Record a quarantined cell's failure artifact under ``failed/``."""
        return write_json_artifact(
            self.failed_dir / f"{key}.json", doc, checksum=True
        )

    def get_failure(self, key: str) -> "dict | None":
        """The failure artifact for ``key``, or None."""
        return read_json_artifact(self.failed_dir / f"{key}.json")

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        # Only the two-character hex shards hold results; corrupt/ and
        # failed/ quarantine subdirectories never count.
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every result artifact; returns how many were removed.

        Empty shard directories are removed too, and the ``corrupt/`` /
        ``failed/`` quarantine subdirectories are left untouched (they
        are post-mortem evidence, not cache contents).
        """
        removed = 0
        if self.root.is_dir():
            for p in self.root.glob("??/*.json"):
                p.unlink(missing_ok=True)
                removed += 1
            for d in self.root.glob("??"):
                if d.is_dir():
                    try:
                        d.rmdir()
                    except OSError:
                        pass  # stray non-artifact files: leave the shard
        return removed
