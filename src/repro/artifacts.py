"""Content-addressed trial artifact cache (exact memoization + warm-resume).

Every rung promotion in successive halving / HyperBand / BOHB re-trains a
configuration from scratch at a bigger budget, and baseline comparisons
re-evaluate overlapping (config, budget, seed) triples across sessions
with no reuse.  This module removes that redundancy with two tiers built
on one store:

* **exact memoization** — a trial's full outcome (its
  :class:`~repro.core.model_server.TrialEvaluation` plus the trained
  model) is indexed under a blake2b *trial key* derived from everything
  the evaluation consumes bit-wise: workload id, dataset seed, sample
  count, configuration values, budget (epochs + data fraction), trial id
  (model-init and training seeds derive from it), the warm-resume lineage
  fields, and a :func:`backend_fingerprint`.  An identical key
  short-circuits ``evaluate_trial`` and returns the stored evaluation
  bit-identically — safe by construction, so it is always on when a
  store is attached.
* **warm-resume** — alongside the evaluation, a trial executed under
  ``--reuse-checkpoints`` stores its final weights and optimizer state
  (an in-memory ``npz`` blob), so a promoted child trial restores the
  parent's state and trains only the incremental epochs of the grown
  budget.  Opt-in, because resumed training follows a different (shorter)
  SGD trajectory than the paper's retrain-from-scratch semantics.

Storage: rows live in the ``artifacts`` table with
size/hit accounting for ``service gc``.  File-backed databases keep the
payload bytes in a ``<db>.artifacts/`` sidecar directory — written to a
temp file and published with an atomic :func:`os.replace`, so a crash
mid-write never leaves a half-artifact visible — while ``:memory:``
databases inline the payload in the ``blob`` column.

**End-to-end integrity** (``artifacts.checksum``): every ``put`` records
a blake2b checksum of the payload, and every ``get`` verifies it before
handing bytes back.  A mismatch — bit rot, a truncated sidecar file, or the
``artifact.corrupt_blob`` chaos site — **quarantines** the blob (the
sidecar file moves to ``<blob_dir>/quarantine/``, the row is dropped, a
crash-safe ``artifacts.quarantined`` counter is bumped) and the read
reports a miss, so the trial falls back to a deterministic cold run
instead of silently resuming from corrupted state.  ``scrub`` sweeps the
whole store offline: verifying every blob, quarantining mismatches,
dropping rows whose sidecar file is gone, backfilling missing
checksums, and removing orphaned files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
import os
import pickle
import tempfile
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import clock, faults
from .storage import TrialDatabase

logger = logging.getLogger(__name__)

#: Bump when the payload layout changes; part of every trial key so stale
#: entries from an older release can never be returned for a new key.
PAYLOAD_VERSION = 1

#: Suffix of published payload files in the sidecar directory.
BLOB_SUFFIX = ".bin"

#: Subdirectory of the sidecar dir holding quarantined (corrupt) blobs.
QUARANTINE_DIR = "quarantine"


def artifact_checksum(payload: bytes) -> str:
    """Blake2b digest of an artifact payload (the integrity checksum
    stored with every row and carried on federation transfers)."""
    return hashlib.blake2b(payload, digest_size=20).hexdigest()


#: Fault sites that act around a trial, never inside it — a worker or
#: host dies, hangs or raises before training, a frame is lost — so they
#: cannot change a stored bit.  A plan of only these keys trials like no
#: plan: a fleet host under one still serves and reuses the fleet's store.
KEY_NEUTRAL_SITES = ("worker.", "fleet.")


def backend_fingerprint() -> str:
    """Everything process-global that changes training bits.

    The numpy version pins BLAS-adjacent behaviour, and the active fault
    plan's other sites make injected corruption part of the key — a
    faultless run must never be served a ``trainer.nan`` result, and
    vice versa.
    """
    plan = faults.get_plan()
    rules = [] if plan is None else [
        rule.to_spec() for site, rule in sorted(plan.rules.items())
        if not site.startswith(KEY_NEUTRAL_SITES)
    ]
    return json.dumps(
        {
            # The one kernel engine's name when there were two; kept so
            # every stored artifact keeps its key.
            "backend": "fast",
            "numpy": np.__version__,
            "faults": ";".join([f"seed={plan.seed}", *rules])
            if rules else None,
            "payload": PAYLOAD_VERSION,
        },
        sort_keys=True,
    )


def trial_key(task: Any, fingerprint: Optional[str] = None) -> str:
    """Content address of one trial evaluation.

    ``task`` is a :class:`~repro.core.model_server.TrialTask` (duck-typed
    to avoid an import cycle).  ``bracket``/``rung``/``fidelity`` are
    deliberately excluded: they locate the trial inside the scheduler but
    do not alter a single trained bit — the budget they imply is already
    captured by ``epochs``/``data_fraction``.
    """
    if fingerprint is None:
        fingerprint = backend_fingerprint()
    fields = {
        "workload_id": task.workload_id,
        "seed": task.seed,
        "samples": task.samples,
        "values": task.values,
        "epochs": task.epochs,
        "data_fraction": task.data_fraction,
        "trial_id": task.trial_id,
        "reuse": bool(getattr(task, "reuse", False)),
        "parent_key": getattr(task, "parent_key", None),
        "start_epoch": int(getattr(task, "start_epoch", 0)),
        "fingerprint": fingerprint,
    }
    # Traffic-aware sessions key their trials separately; absent traffic
    # is omitted (not None-valued) so every pre-traffic key digest is
    # preserved bit-exactly.
    traffic = getattr(task, "traffic", None)
    if traffic is not None:
        fields["traffic"] = str(traffic)
    payload = json.dumps(
        fields,
        sort_keys=True,
        default=repr,
    )
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=20
    ).hexdigest()


def pack_result(evaluation: Any, model_blob: bytes) -> bytes:
    """The bytes a finished job is completed with: the pickled evaluation
    carrying its pickled model.  :meth:`ArtifactStore.load_result` pickles
    the same object, so a job a worker served from the store holds the
    bytes of the cold run's."""
    return pickle.dumps(
        dataclasses.replace(evaluation, model_blob=model_blob),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


# ---------------------------------------------------------------------------
# Resume-state packing (weights + optimizer state as one npz blob)
# ---------------------------------------------------------------------------

def pack_velocity(velocity: List[np.ndarray]) -> bytes:
    """Serialize SGD momentum buffers into one in-memory ``npz`` blob.

    Only the *optimizer* half of the resume state is packed: the final
    weights already live (bit-identically) inside the stored model
    pickle, so writing them again would double the artifact size and the
    serialization cost for nothing.  Slots are keyed ``v.<position>`` so
    order survives the round trip.
    """
    arrays = {f"v.{index}": value for index, value in enumerate(velocity)}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def unpack_velocity(blob: bytes) -> List[np.ndarray]:
    """Inverse of :func:`pack_velocity`."""
    velocity: Dict[int, np.ndarray] = {}
    with np.load(io.BytesIO(blob)) as archive:
        for key in archive.files:
            if key.startswith("v."):
                velocity[int(key[2:])] = archive[key]
    return [velocity[index] for index in sorted(velocity)]


_INSERT_ROW = (
    "INSERT OR IGNORE INTO artifacts (key, workload, trial_id, epochs, "
    "data_fraction, size_bytes, hits, blob, created_at, checksum) "
    "VALUES (?, ?, ?, ?, ?, ?, 0, ?, ?, ?)"
)


class ArtifactStore:
    """Keyed store of trial payloads over one :class:`TrialDatabase`.

    Payloads are opaque pickled dicts (``evaluation`` / ``model`` /
    ``resume``); the store only manages addressing, persistence, hit
    accounting and pruning.  Safe to open from any number of worker
    processes over the same file — writes are idempotent (first writer
    wins; every writer would produce identical bytes by construction)
    and the row insert is a single statement: autocommitted, or — with
    ``hold_rows`` — held back until :meth:`write_held` writes it inside
    the caller's transaction.
    """

    def __init__(
        self, database: TrialDatabase, blob_dir: Optional[str] = None,
        hold_rows: bool = False,
    ):
        self.database = database
        #: Rows :meth:`put` has not written yet (``None``: it writes each
        #: at once).  A held key reads as absent until they are written.
        self.held_rows: Optional[List[tuple]] = [] if hold_rows else None
        if blob_dir is not None:
            self.blob_dir: Optional[str] = blob_dir
        elif database.path != ":memory:":
            self.blob_dir = database.path + ".artifacts"
        else:
            self.blob_dir = None
        #: Per-process counters (the table's ``hits`` column aggregates
        #: across processes; these track just this store instance).
        self.session_hits = 0
        self.session_misses = 0

    # -- raw payload access --------------------------------------------------
    def _blob_path(self, key: str) -> str:
        assert self.blob_dir is not None
        return os.path.join(self.blob_dir, key + BLOB_SUFFIX)

    def _write_blob(self, key: str, payload: bytes) -> None:
        os.makedirs(self.blob_dir, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            dir=self.blob_dir, prefix=key + ".tmp-"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(temp_path, self._blob_path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def put(
        self,
        key: str,
        payload: bytes,
        workload: str = "",
        trial_id: int = -1,
        epochs: int = 0,
        data_fraction: float = 0.0,
    ) -> None:
        """Publish ``payload`` under ``key`` (no-op if already present)."""
        inline: Optional[bytes] = payload
        if self.blob_dir is not None:
            self._write_blob(key, payload)
            inline = None
        row = (
            key,
            workload,
            int(trial_id),
            int(epochs),
            float(data_fraction),
            len(payload),
            inline,
            clock.now(),
            artifact_checksum(payload),
        )
        if self.held_rows is None:
            self.database.execute(_INSERT_ROW, row)
        else:
            self.held_rows.append(row)

    def write_held(self) -> None:
        """Write the rows :meth:`put` held back (in the caller's open
        transaction, if any)."""
        while self.held_rows:
            self.database.execute(_INSERT_ROW, self.held_rows.pop(0))

    def contains(self, key: str) -> bool:
        """Whether ``key`` has a row (unverified and not hit-counted)."""
        return self.database.execute(
            "SELECT 1 FROM artifacts WHERE key = ?", (key,)
        ).fetchone() is not None

    def get(self, key: str, count_miss: bool = True) -> Optional[bytes]:
        """Payload bytes for ``key``, bumping hit accounting; ``None`` on
        miss (including a row whose sidecar file was pruned underneath —
        the stale row is dropped so the trial is simply recomputed).

        Every read is verified against the row's stored checksum; a
        mismatch quarantines the blob and reports a miss, so corruption
        degrades to a deterministic cold re-run, never a wrong result.
        """
        row = self.database.execute(
            "SELECT blob, checksum FROM artifacts WHERE key = ?", (key,)
        ).fetchone()
        payload: Optional[bytes] = None
        checksum: Optional[str] = None
        if row is not None:
            checksum = row[1]
            if row[0] is not None:
                payload = row[0]
            elif self.blob_dir is not None:
                try:
                    with open(self._blob_path(key), "rb") as handle:
                        payload = handle.read()
                except OSError:
                    self.database.execute(
                        "DELETE FROM artifacts WHERE key = ?", (key,)
                    )
        if payload is not None and faults.should(
            "artifact.corrupt_blob", key=key
        ):
            # Chaos: the bytes coming off the disk are not the bytes that
            # were written.  Checksum verification below must catch it.
            payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
        if (
            payload is not None
            and checksum is not None
            and artifact_checksum(payload) != checksum
        ):
            self.quarantine(key, payload, reason="checksum mismatch on get")
            payload = None
        if payload is None:
            if count_miss:
                self.session_misses += 1
            return None
        self.session_hits += 1
        self.database.execute(
            "UPDATE artifacts SET hits = hits + 1, last_hit_at = ? "
            "WHERE key = ?",
            (clock.now(), key),
        )
        return payload

    # -- integrity ------------------------------------------------------------
    def quarantine(
        self, key: str, payload: Optional[bytes] = None, reason: str = ""
    ) -> None:
        """Pull a corrupt blob out of circulation.

        The row is dropped (so the key reads as a miss and the trial
        cold-runs), the sidecar file — when there is one — moves into
        ``<blob_dir>/quarantine/`` for forensics instead of being
        destroyed, and the crash-safe ``artifacts.quarantined`` counter
        is bumped.
        """
        logger.warning(
            "artifact %s quarantined%s", key,
            f": {reason}" if reason else "",
        )
        self.database.execute(
            "DELETE FROM artifacts WHERE key = ?", (key,)
        )
        if self.blob_dir is not None:
            hold = os.path.join(self.blob_dir, QUARANTINE_DIR)
            try:
                os.makedirs(hold, exist_ok=True)
                os.replace(
                    self._blob_path(key),
                    os.path.join(hold, key + BLOB_SUFFIX),
                )
            except OSError:
                pass  # file already gone; the dropped row is what matters
        self.database.bump_stats({"artifacts.quarantined": 1})

    def scrub(self, repair: bool = True) -> Dict[str, int]:
        """Sweep the whole store: verify every blob end to end.

        * payload present and checksum matches → ``verified``;
        * checksum mismatch → blob quarantined (``quarantined``);
        * row whose sidecar file is gone → row dropped (``missing``);
        * pre-v8 row with no stored checksum → checksum computed and
          backfilled (``repaired``);
        * sidecar files with no row → removed (``orphans_removed``).

        With ``repair=False`` the sweep is a dry run: damage is counted
        and reported but nothing is quarantined, dropped, backfilled, or
        pruned.  Counters are also persisted crash-safely
        (``artifacts.scrubs``, ``artifacts.quarantined``) so ``service
        status --json`` reports them across processes.
        """
        counts = {
            "scanned": 0, "verified": 0, "quarantined": 0,
            "missing": 0, "repaired": 0,
        }
        rows = self.database.execute(
            "SELECT key, blob, checksum FROM artifacts ORDER BY key"
        ).fetchall()
        for key, inline, checksum in rows:
            counts["scanned"] += 1
            payload: Optional[bytes] = inline
            if payload is None and self.blob_dir is not None:
                try:
                    with open(self._blob_path(key), "rb") as handle:
                        payload = handle.read()
                except OSError:
                    payload = None
            if payload is None:
                if repair:
                    self.database.execute(
                        "DELETE FROM artifacts WHERE key = ?", (key,)
                    )
                counts["missing"] += 1
                continue
            digest = artifact_checksum(payload)
            if checksum is None:
                if repair:
                    self.database.execute(
                        "UPDATE artifacts SET checksum = ? WHERE key = ?",
                        (digest, key),
                    )
                counts["repaired"] += 1
                counts["verified"] += 1
            elif digest != checksum:
                if repair:
                    self.quarantine(
                        key, payload, reason="checksum mismatch on scrub"
                    )
                counts["quarantined"] += 1
            else:
                counts["verified"] += 1
        counts["orphans_removed"] = (
            self._prune_orphans() if repair else 0
        )
        self.database.bump_stats({"artifacts.scrubs": 1})
        return counts

    # -- trial-level helpers --------------------------------------------------
    def store_trial(
        self,
        key: str,
        evaluation: Any,
        model: Any,
        resume: Optional[bytes],
        workload: str = "",
        epochs: int = 0,
        data_fraction: float = 0.0,
    ) -> bytes:
        """Package and publish one finished trial; returns the model's
        pickle (what :func:`pack_result` takes for this trial's job).

        ``evaluation`` is stored with ``model_blob`` cleared (the model
        travels as its own pickle so a hit can hand back a live object),
        ``resume`` is the optional :func:`pack_velocity` blob for
        warm-resume children (their weights come from the model pickle).
        """
        model_blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        payload = pickle.dumps(
            {
                "evaluation": dataclasses.replace(evaluation, model_blob=None),
                "model": model_blob,
                "resume": resume,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self.put(
            key,
            payload,
            workload=workload,
            trial_id=int(evaluation.trial_id),
            epochs=int(epochs),
            data_fraction=float(data_fraction),
        )
        return model_blob

    def load_trial(self, key: str) -> Optional[Tuple[Any, Any, Optional[bytes]]]:
        """(evaluation, model, resume blob) for ``key``, or ``None``."""
        payload = self.get(key)
        if payload is None:
            return None
        record = pickle.loads(payload)
        return (
            record["evaluation"],
            pickle.loads(record["model"]),
            record.get("resume"),
        )

    def load_evaluation(self, key: str, count_miss: bool = True) -> Any:
        """The stored evaluation for ``key`` with ``model_blob`` set to the
        stored model pickle — what a worker that trained the model would
        have sent, unpickled — or ``None``.  One verified, hit-counting
        :meth:`get` and one unpickle of the payload; the model stays a
        pickle (:meth:`load_trial` hands back a live one).
        ``count_miss=False``: the miss will be counted by whoever runs
        the trial.  The coordinator merges a memo hit from this object.
        """
        payload = self.get(key, count_miss=count_miss)
        if payload is None:
            return None
        record = pickle.loads(payload)
        return dataclasses.replace(
            record["evaluation"], model_blob=record["model"]
        )

    def load_result(
        self, key: str, count_miss: bool = True
    ) -> Optional[bytes]:
        """:meth:`load_evaluation` packed as a job-result blob — the bytes
        :func:`pack_result` gives the worker that trained the model — for
        a worker that completes its job with them."""
        evaluation = self.load_evaluation(key, count_miss=count_miss)
        if evaluation is None:
            return None
        return pickle.dumps(evaluation, protocol=pickle.HIGHEST_PROTOCOL)

    def resume_state(
        self, key: str
    ) -> Optional[Tuple[Dict[str, np.ndarray], List[np.ndarray]]]:
        """``(weights, velocity)`` resume state for ``key`` (parent
        lookups), or ``None`` when the artifact is gone or was stored
        without resume state (a non-reuse session's memo entry).

        Weights are recovered from the stored model pickle — the model's
        post-training state *is* the resume weights, bit for bit.  Not
        counted as a cache miss when absent: the caller is probing for a
        warm start, not replaying an evaluation.
        """
        payload = self.get(key, count_miss=False)
        if payload is None:
            return None
        record = pickle.loads(payload)
        resume = record.get("resume")
        if resume is None:
            return None
        from .nn.serialize import state_dict

        model = pickle.loads(record["model"])
        return state_dict(model), unpack_velocity(resume)

    # -- accounting / pruning -------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Database-wide cache accounting (all sessions, all processes).

        ``misses`` equals ``entries``: every stored row was written by
        exactly one cache miss (hits never insert), so the pair gives the
        hit/miss split without cross-process counter plumbing.
        """
        row = self.database.execute(
            "SELECT COUNT(*), COALESCE(SUM(size_bytes), 0), "
            "COALESCE(SUM(hits), 0) FROM artifacts"
        ).fetchone()
        return {
            "entries": int(row[0]),
            "bytes": int(row[1]),
            "hits": int(row[2]),
            "misses": int(row[0]),
            "quarantined": int(self.database.stats(
                "artifacts.quarantined"
            ).get("artifacts.quarantined", 0)),
        }

    def gc(
        self,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, int]:
        """Prune the cache: age out cold entries, cap total size, and
        remove orphaned sidecar files (blobs whose row is gone).

        Age uses the last hit when there is one (an entry being reused
        should not expire), else creation time.  The size cap evicts
        least-recently-used entries until under ``max_bytes``.
        """
        doomed: List[str] = []
        if max_age_s is not None:
            cutoff = clock.now() - max_age_s
            doomed.extend(
                row[0]
                for row in self.database.execute(
                    "SELECT key FROM artifacts "
                    "WHERE COALESCE(last_hit_at, created_at) < ?",
                    (cutoff,),
                ).fetchall()
            )
        if max_bytes is not None:
            rows = self.database.execute(
                "SELECT key, size_bytes FROM artifacts "
                "ORDER BY COALESCE(last_hit_at, created_at) ASC"
            ).fetchall()
            total = sum(row[1] for row in rows)
            already = set(doomed)
            for key, size in rows:
                if total <= max_bytes:
                    break
                if key in already:
                    total -= size
                    continue
                doomed.append(key)
                already.add(key)
                total -= size
        bytes_freed = 0
        for key in doomed:
            row = self.database.execute(
                "SELECT size_bytes FROM artifacts WHERE key = ?", (key,)
            ).fetchone()
            if row is not None:
                bytes_freed += int(row[0])
            self.database.execute(
                "DELETE FROM artifacts WHERE key = ?", (key,)
            )
            if self.blob_dir is not None:
                try:
                    os.unlink(self._blob_path(key))
                except OSError:
                    pass
        orphans = self._prune_orphans()
        return {
            "artifacts_deleted": len(doomed),
            "bytes_freed": bytes_freed,
            "orphans_removed": orphans,
        }

    def _prune_orphans(self) -> int:
        """Delete sidecar files with no backing row (crashed writers,
        rows removed by an older release's gc)."""
        if self.blob_dir is None or not os.path.isdir(self.blob_dir):
            return 0
        live = {
            row[0]
            for row in self.database.execute(
                "SELECT key FROM artifacts"
            ).fetchall()
        }
        removed = 0
        for name in os.listdir(self.blob_dir):
            if os.path.isdir(os.path.join(self.blob_dir, name)):
                continue  # the quarantine hold is not an orphan
            key: Optional[str] = None
            if name.endswith(BLOB_SUFFIX):
                key = name[: -len(BLOB_SUFFIX)]
            if key is not None and key in live:
                continue
            # Everything else is an orphan: a .tmp-* from a crashed
            # writer or a published blob whose row was pruned.
            try:
                os.unlink(os.path.join(self.blob_dir, name))
                removed += 1
            except OSError:
                pass
        return removed
