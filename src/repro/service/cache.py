"""Persistent disk-backed decision cache.

Verdicts outlive the process: every decided containment is appended to a
JSONL journal under the cache directory (``~/.cache/repro`` by default, or
``--cache-dir``), and loaded into an in-memory index on startup.  A warm
restart then answers previously decided requests without re-running any
search.

Entry identity is a SHA-256 digest over the pair *(code fingerprint,
decision key)*:

* the **decision key** (:func:`repro.core.containment.decision_key`)
  already covers the canonical queries, the schema's ``content_key``, the
  method, and every budget — so a schema edit or budget change naturally
  misses;
* the **code fingerprint** folds in the cache epoch and the serialization
  format version, so entries written by a semantically different build are
  invisible (bump :data:`CACHE_EPOCH` when decision semantics change).

The journal is append-only and tolerant: corrupt lines (torn writes,
manual edits) and stale-fingerprint entries are skipped and counted, never
fatal.  Duplicate keys keep the *first* entry — decisions are
deterministic, so later duplicates are byte-identical anyway.

Integrity: every line written carries a **CRC32 field** computed over the
rest of the payload (:func:`line_crc`).  Loads re-verify it, so a flipped
bit anywhere in a line — including inside a verdict's countermodel — is
detected before the entry can be indexed, let alone served.  Lines from
older builds without a CRC are still readable (the field is optional on
read, mandatory on write).  Detected corruption (bad JSON *or* bad CRC) is
never just dropped: the offending raw line is appended to
``quarantine.jsonl`` beside the journals with a reason, counted
(``cache_quarantined``/``semcache_quarantined`` on the metrics sink,
``audit.quarantine.*``/``semcache.quarantined`` on the obs registry), and
healed out of the journal by compaction.  The deterministic fault site
``audit.bitflip`` corrupts one byte of a composed line *after* its CRC is
computed — the chaos suite uses it to prove a flipped line is quarantined
on the next load and never reaches a client.

Startup hygiene: a cache dir whose journal paths are symlinks or
non-regular files (a FIFO, a directory, a link planted by another tenant)
is *refused* with a clear :class:`OSError` at construction — mirroring the
stale-socket refusal in :mod:`repro.service.server` — rather than being
silently degraded to memory-only.

Crash consistency: a load that skipped corrupt or stale lines triggers an
automatic **compaction** — the surviving index is rewritten to a temp file
and atomically renamed over the journal (``os.replace``), so a journal
damaged by a crash or an epoch bump heals itself on the next start and a
crash *during* compaction leaves the old journal intact.  A torn tail
(file not ending in a newline) is additionally repaired at the next
append, which starts with a separating newline rather than extending the
partial line.  Append failures (disk full, permissions, injected faults)
degrade the cache to memory-only for that entry instead of failing the
decision.

A second journal, ``semantic.jsonl``, persists the *semantic* layer (the
per-session containment lattices of :mod:`repro.cache.semantic`): each
entry records one decided premise — the left-hand query text plus its
verdict — under a **group digest**, the hash of the decision key with the
left-hand side removed (see
:func:`repro.core.containment.decision_key_parts`).  On a warm restart
the scheduler hydrates a group lazily the first time a request lands in
it, re-parsing the stored query texts and re-verifying stored
countermodels before first use.  The semantic journal shares the exact
journal's contract end to end: the same code fingerprint, the same
corrupt/stale tolerance and auto-compaction, the same torn-tail repair,
and a fault site of its own (``cache.semantic.append``).
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import threading
import zlib
from pathlib import Path
from typing import Optional, Union

from repro.io import FORMAT_VERSION
from repro.obs import REGISTRY
from repro.resilience import FaultInjected, faults
from repro.service.metrics import ServiceMetrics

CACHE_EPOCH = 4
"""Bump to invalidate every persisted verdict after a semantic change."""

JOURNAL_NAME = "decisions.jsonl"

SEMANTIC_JOURNAL_NAME = "semantic.jsonl"

QUARANTINE_NAME = "quarantine.jsonl"


def line_crc(payload: dict) -> int:
    """CRC32 over the canonical JSON encoding of a payload (sans ``crc``)."""
    basis = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return zlib.crc32(basis) & 0xFFFFFFFF


class _ChecksumMismatch(ValueError):
    """A journal line whose CRC32 field disagrees with its payload."""


def _maybe_bitflip(line: str) -> str:
    """The ``audit.bitflip`` fault site: deterministically corrupt one byte
    of a composed journal line *after* its CRC was computed, so the line is
    written bad and must be caught (and quarantined) by the next load."""
    try:
        faults.maybe_fault("audit.bitflip")
    except FaultInjected:
        REGISTRY.inc("audit.bitflip.injected")
        mid = len(line) // 2
        return line[:mid] + chr(ord(line[mid]) ^ 0x01) + line[mid + 1 :]
    return line


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def code_fingerprint() -> str:
    """Identity of the decision semantics baked into this build."""
    basis = ("repro-decision-cache", CACHE_EPOCH, FORMAT_VERSION)
    return hashlib.sha256(repr(basis).encode()).hexdigest()[:16]


def decision_digest(key: tuple, code: Optional[str] = None) -> str:
    """The journal identity of a decision key.

    ``key`` is the nested primitive tuple from
    :func:`repro.core.containment.decision_key`; its ``repr`` is
    deterministic across processes, so the digest is stable.
    """
    code = code if code is not None else code_fingerprint()
    return hashlib.sha256(repr((code, key)).encode()).hexdigest()


def semantic_group_digest(group_key: tuple, code: Optional[str] = None) -> str:
    """The semantic-journal identity of a premise group.

    ``group_key`` is the lhs-free decision key from
    :func:`repro.core.containment.decision_key_parts`; the digest basis is
    tagged so it can never collide with an exact decision digest."""
    code = code if code is not None else code_fingerprint()
    return hashlib.sha256(repr((code, "semantic-group", group_key)).encode()).hexdigest()


class DecisionCache:
    """Append-only JSONL journal + in-memory index of decided verdicts."""

    def __init__(
        self,
        cache_dir: Union[None, str, Path] = None,
        metrics: Optional[ServiceMetrics] = None,
        auto_heal: bool = True,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.journal_path = self.cache_dir / JOURNAL_NAME
        self.semantic_path = self.cache_dir / SEMANTIC_JOURNAL_NAME
        self.quarantine_path = self.cache_dir / QUARANTINE_NAME
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._code = code_fingerprint()
        self._lock = threading.Lock()
        self._index: dict[str, dict] = {}
        self._semantic: dict[str, dict[str, dict]] = {}
        """group digest → (lhs query text → verdict dict)."""
        self.auto_heal = auto_heal
        """Compact a journal that had to skip lines on load.  Read-only
        inspectors (``repro cache stats``/``ls``) pass ``False``."""
        self.corrupt_entries = 0
        self.stale_entries = 0
        self.crc_failures = 0
        self.semantic_corrupt_entries = 0
        self.semantic_stale_entries = 0
        self.semantic_crc_failures = 0
        self._torn_tail = False
        self._semantic_torn_tail = False
        self._refuse_irregular()
        self._load()
        self._load_semantic()

    def _refuse_irregular(self) -> None:
        """Refuse a cache dir whose journal paths are not regular files.

        A symlinked or otherwise special journal (FIFO, directory, device)
        means the directory is not ours to append to — failing loudly here
        beats the old behavior of every append "degrading to memory-only"
        while the operator believes verdicts are being persisted."""
        for path in (self.journal_path, self.semantic_path, self.quarantine_path):
            try:
                mode = path.lstat().st_mode
            except FileNotFoundError:
                continue
            if stat.S_ISREG(mode):
                continue
            kind = "symlink" if stat.S_ISLNK(mode) else "non-regular file"
            raise OSError(
                f"refusing cache dir {self.cache_dir}: {path.name} is a "
                f"{kind}, not a regular journal file (remove it or choose "
                "a different --cache-dir)"
            )

    def _load(self) -> None:
        if not self.journal_path.exists():
            return
        text = self.journal_path.read_text()
        self._torn_tail = bool(text) and not text.endswith("\n")
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                self._verify_crc(entry)
                digest = entry["key"]
                verdict = entry["verdict"]
                code = entry["code"]
                if not isinstance(digest, str) or not isinstance(verdict, dict):
                    raise TypeError("malformed entry")
            except _ChecksumMismatch:
                self.crc_failures += 1
                self._quarantine_line(JOURNAL_NAME, "crc", line)
                continue
            except Exception:
                self.corrupt_entries += 1
                self._quarantine_line(JOURNAL_NAME, "corrupt", line)
                continue
            if code != self._code:
                self.stale_entries += 1
                continue
            self._index.setdefault(digest, verdict)
        self.metrics.count("cache_corrupt_entries", self.corrupt_entries)
        self.metrics.count("cache_stale_entries", self.stale_entries)
        self.metrics.count("cache_crc_failures", self.crc_failures)
        self.metrics.count("cache_loaded_entries", len(self._index))
        if self.auto_heal and (
            self.corrupt_entries or self.stale_entries or self.crc_failures
        ):
            # heal the journal; the skip counters above stay as the record
            # of what this load had to drop
            try:
                self.compact()
            except OSError:
                pass  # a read-only cache dir still works memory-backed

    def _load_semantic(self) -> None:
        if not self.semantic_path.exists():
            return
        text = self.semantic_path.read_text()
        self._semantic_torn_tail = bool(text) and not text.endswith("\n")
        loaded = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                self._verify_crc(entry)
                code = entry["code"]
                group = entry["group"]
                lhs_text = entry["lhs"]
                verdict = entry["verdict"]
                if not (
                    isinstance(group, str)
                    and isinstance(lhs_text, str)
                    and isinstance(verdict, dict)
                ):
                    raise TypeError("malformed semantic entry")
            except _ChecksumMismatch:
                self.semantic_crc_failures += 1
                self._quarantine_line(SEMANTIC_JOURNAL_NAME, "crc", line)
                continue
            except Exception:
                self.semantic_corrupt_entries += 1
                self._quarantine_line(SEMANTIC_JOURNAL_NAME, "corrupt", line)
                continue
            if code != self._code:
                self.semantic_stale_entries += 1
                continue
            bucket = self._semantic.setdefault(group, {})
            if lhs_text not in bucket:
                bucket[lhs_text] = verdict
                loaded += 1
        self.metrics.count("semcache_corrupt_entries", self.semantic_corrupt_entries)
        self.metrics.count("semcache_stale_entries", self.semantic_stale_entries)
        self.metrics.count("semcache_crc_failures", self.semantic_crc_failures)
        self.metrics.count("semcache_loaded_entries", loaded)
        if self.auto_heal and (
            self.semantic_corrupt_entries
            or self.semantic_stale_entries
            or self.semantic_crc_failures
        ):
            try:
                self.compact_semantic()
            except OSError:
                pass

    def compact_semantic(self) -> int:
        """Atomically rewrite the semantic journal from the in-memory
        groups; same crash contract as :meth:`compact`.  Returns the
        number of entries kept."""
        with self._lock:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = self.semantic_path.with_name(SEMANTIC_JOURNAL_NAME + ".tmp")
            kept = 0
            with tmp.open("w") as out:
                for group, bucket in self._semantic.items():
                    for lhs_text, verdict in bucket.items():
                        out.write(self._semantic_line(group, lhs_text, verdict) + "\n")
                        kept += 1
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.semantic_path)
            self._semantic_torn_tail = False
        self.metrics.count("semcache_compactions")
        return kept

    def compact(self) -> int:
        """Atomically rewrite the journal from the in-memory index.

        Drops corrupt, stale, duplicate, and torn entries in one pass: the
        surviving entries are written to a temp file which is fsynced and
        renamed over the journal, so a crash mid-compaction loses nothing.
        Returns the number of entries kept.
        """
        with self._lock:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = self.journal_path.with_name(JOURNAL_NAME + ".tmp")
            with tmp.open("w") as out:
                for digest, verdict in self._index.items():
                    out.write(self._entry_line(digest, verdict) + "\n")
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.journal_path)
            self._torn_tail = False
            kept = len(self._index)
        self.metrics.count("cache_compactions")
        return kept

    @staticmethod
    def _verify_crc(entry: dict) -> None:
        """Pop and check an entry's CRC field.  Entries written before the
        field existed (no ``crc`` key) pass; a present-but-wrong CRC means
        the line was corrupted after composition."""
        crc = entry.pop("crc", None)
        if crc is not None and crc != line_crc(entry):
            raise _ChecksumMismatch("journal line CRC mismatch")

    def _entry_line(self, digest: str, verdict: dict) -> str:
        payload = {"code": self._code, "key": digest, "verdict": verdict}
        payload["crc"] = line_crc(payload)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def _semantic_line(self, group: str, lhs_text: str, verdict: dict) -> str:
        payload = {
            "code": self._code,
            "group": group,
            "lhs": lhs_text,
            "verdict": verdict,
        }
        payload["crc"] = line_crc(payload)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def __len__(self) -> int:
        return len(self._index)

    @property
    def fingerprint(self) -> str:
        """The code fingerprint entries in both journals are bound to."""
        return self._code

    def get(self, key: tuple) -> Optional[dict]:
        """The stored verdict dict for a decision key, if any."""
        digest = decision_digest(key, self._code)
        with self._lock:
            verdict = self._index.get(digest)
        if verdict is None:
            self.metrics.count("cache_misses")
        else:
            self.metrics.count("cache_hits")
        return verdict

    def put(self, key: tuple, verdict: dict) -> None:
        """Index and journal a verdict (no-op for already-stored keys).

        A failed journal append degrades this entry to memory-only —
        callers never see a disk error surface from a decision."""
        digest = decision_digest(key, self._code)
        line = _maybe_bitflip(self._entry_line(digest, verdict))
        with self._lock:
            if digest in self._index:
                return
            self._index[digest] = verdict
            try:
                faults.maybe_fault("cache.append")
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                with self.journal_path.open("a") as journal:
                    if self._torn_tail:
                        # finish the torn line before starting a fresh one
                        journal.write("\n")
                        self._torn_tail = False
                    journal.write(line + "\n")
            except (OSError, FaultInjected):
                self.metrics.count("cache_write_failures")
                return
        self.metrics.count("cache_writes")

    def put_semantic(self, group_digest: str, lhs_text: str, verdict: dict) -> None:
        """Index and journal one semantic premise (no-op for a duplicate
        (group, lhs) pair).  A failed append degrades to memory-only, like
        :meth:`put`."""
        line = _maybe_bitflip(self._semantic_line(group_digest, lhs_text, verdict))
        with self._lock:
            bucket = self._semantic.setdefault(group_digest, {})
            if lhs_text in bucket:
                return
            bucket[lhs_text] = verdict
            try:
                faults.maybe_fault("cache.semantic.append")
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                with self.semantic_path.open("a") as journal:
                    if self._semantic_torn_tail:
                        journal.write("\n")
                        self._semantic_torn_tail = False
                    journal.write(line + "\n")
            except (OSError, FaultInjected):
                self.metrics.count("semcache_write_failures")
                return
        self.metrics.count("semcache_writes")

    # ------------------------------------------------------------- #
    # quarantine

    def _quarantine_line(self, journal: str, reason: str, line: str) -> None:
        """Append one condemned raw line to ``quarantine.jsonl``.

        The quarantine is the forensic record — the journals themselves
        heal by compaction, so without it a corrupted line would vanish
        without a trace.  Quarantine writes are best-effort: a full disk
        must not turn detection into an outage."""
        semantic = journal == SEMANTIC_JOURNAL_NAME
        self.metrics.count("semcache_quarantined" if semantic else "cache_quarantined")
        REGISTRY.inc_many(
            {
                "semcache.quarantined" if semantic else "audit.quarantined": 1,
                f"audit.quarantine.{reason}": 1,
            }
        )
        entry = {"journal": journal, "reason": reason, "line": line}
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            with self.quarantine_path.open("a") as out:
                out.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
        except OSError:
            self.metrics.count("quarantine_write_failures")

    def quarantine_digest(self, digest: str, reason: str) -> bool:
        """Evict one exact entry by journal digest: drop it from the index,
        record it in the quarantine, and compact the journal so a restart
        cannot reload it.  Returns False for an unknown digest."""
        with self._lock:
            verdict = self._index.pop(digest, None)
        if verdict is None:
            return False
        self._quarantine_line(JOURNAL_NAME, reason, self._entry_line(digest, verdict))
        try:
            self.compact()
        except OSError:
            pass
        return True

    def quarantine_entry(self, key: tuple, reason: str) -> bool:
        """Evict the entry for a decision key (the scheduler's audit-failure
        path); see :meth:`quarantine_digest`."""
        return self.quarantine_digest(decision_digest(key, self._code), reason)

    def quarantine_semantic(self, group_digest: str, lhs_text: str, reason: str) -> bool:
        """Evict one semantic premise; the lattice-side twin of
        :meth:`quarantine_entry`."""
        with self._lock:
            bucket = self._semantic.get(group_digest)
            verdict = bucket.pop(lhs_text, None) if bucket else None
            if bucket is not None and not bucket:
                self._semantic.pop(group_digest, None)
        if verdict is None:
            return False
        self._quarantine_line(
            SEMANTIC_JOURNAL_NAME,
            reason,
            self._semantic_line(group_digest, lhs_text, verdict),
        )
        try:
            self.compact_semantic()
        except OSError:
            pass
        return True

    def quarantine_count(self) -> int:
        """Lines currently held in ``quarantine.jsonl``."""
        try:
            text = self.quarantine_path.read_text()
        except OSError:
            return 0
        return sum(1 for line in text.splitlines() if line.strip())

    def scrub_files(self) -> dict:
        """Re-verify both journals on disk, line by line (the scrubber's
        file layer).  Catches corruption that happened *after* load —
        every line must parse, its CRC must match, and nothing else may
        have scribbled on the file.  Bad lines are quarantined and the
        journal is compacted from the (validated) in-memory state."""
        report: dict[str, dict] = {}
        for name, path, compact in (
            (JOURNAL_NAME, self.journal_path, self.compact),
            (SEMANTIC_JOURNAL_NAME, self.semantic_path, self.compact_semantic),
        ):
            checked = bad = stale = 0
            try:
                text = path.read_text()
            except OSError:
                text = ""
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                checked += 1
                try:
                    entry = json.loads(line)
                    self._verify_crc(entry)
                    if entry["code"] != self._code:
                        stale += 1
                except _ChecksumMismatch:
                    bad += 1
                    self._quarantine_line(name, "scrub.crc", line)
                except Exception:
                    bad += 1
                    self._quarantine_line(name, "scrub.corrupt", line)
            if bad:
                try:
                    compact()
                except OSError:
                    pass
            report[name] = {"lines": checked, "quarantined": bad, "stale": stale}
        return report

    def semantic_entries(self, group_digest: str) -> list[tuple[str, dict]]:
        """The persisted ``(lhs text, verdict)`` premises of one group, in
        journal order — the scheduler's lazy-hydration source."""
        with self._lock:
            bucket = self._semantic.get(group_digest)
            return list(bucket.items()) if bucket else []

    def semantic_groups(self) -> dict[str, int]:
        """Group digest → persisted premise count (for inspection)."""
        with self._lock:
            return {group: len(bucket) for group, bucket in self._semantic.items()}

    def entries(self) -> list[tuple[str, dict]]:
        """The exact journal's ``(digest, verdict)`` pairs (for inspection)."""
        with self._lock:
            return list(self._index.items())

    def semantic_stats(self) -> dict[str, int]:
        with self._lock:
            groups = len(self._semantic)
            entries = sum(len(bucket) for bucket in self._semantic.values())
        return {
            "groups": groups,
            "entries": entries,
            "corrupt_entries": self.semantic_corrupt_entries,
            "stale_entries": self.semantic_stale_entries,
            "crc_failures": self.semantic_crc_failures,
            "quarantined": self.metrics.counter("semcache_quarantined"),
            "writes": self.metrics.counter("semcache_writes"),
        }

    def stats(self) -> dict[str, int]:
        with self._lock:
            entries = len(self._index)
        return {
            "entries": entries,
            "corrupt_entries": self.corrupt_entries,
            "stale_entries": self.stale_entries,
            "crc_failures": self.crc_failures,
            "quarantined": self.metrics.counter("cache_quarantined"),
            "quarantine_lines": self.quarantine_count(),
            "hits": self.metrics.counter("cache_hits"),
            "misses": self.metrics.counter("cache_misses"),
            "writes": self.metrics.counter("cache_writes"),
            "semantic": self.semantic_stats(),
        }
