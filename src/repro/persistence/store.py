"""The durable, SQLite-backed provenance store.

:class:`DurableProvenanceStore` is the in-memory
:class:`~repro.provenance.store.ProvenanceStore` with a write-ahead-logged
SQLite file underneath: ``add_run`` stages the run's relational rows,
writes them in one ``BEGIN IMMEDIATE`` transaction, and only then updates
the in-memory secondary indexes — so the database and the indexes can
never disagree, and a writer killed mid-batch leaves no partial run
behind (WAL never exposes uncommitted rows to readers).

Durability follows the LogBase recipe: the *log* (runs and their OPM
rows) is the only authoritative state on disk; the secondary indexes
(task -> runs, payload -> consumers, run -> exit lineage) stay in memory
and are **rebuilt lazily on open** by replaying the stored rows in their
original recording order.  Replaying the exact order makes every rebuilt
structure — the provenance graphs, their memoized digraphs and bitset
closures, the store indexes — bit-identical to a volatile store that saw
the same ``add_run`` sequence, which the equivalence property suite pins
on every query shape.

The exception is the exit-lineage cone, which is expensive enough to be
worth materializing: computed cones are written behind
(``exit_lineage`` rows) so the next open loads them instead of
recomputing.

Since schema v2 the hydrate-on-open path is no longer the only read
path: ``add_run`` also persists the run's reachability labels
(:mod:`repro.graphs.labeling`) in the same transaction, and the cold
accessors (:meth:`DurableProvenanceStore.sql_queries`,
:meth:`~DurableProvenanceStore.cold_run_ids`,
:meth:`~DurableProvenanceStore.load_run_cold`) let the
:class:`~repro.provenance.facade.LineageQueryEngine` answer lineage
queries as SQL range scans without hydrating anything —
:meth:`~DurableProvenanceStore.backfill_labels` migrates pre-v2 stores.

Payloads and params are stored as canonical JSON (the same restriction
the portable OPM JSON export has); a run with a non-JSON payload is
rejected with :class:`~repro.errors.PersistenceError` before anything is
written.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import Any, FrozenSet, List, Optional, Tuple

from repro.errors import PersistenceError, ProvenanceError
from repro.graphs.labeling import label_provenance, spill_to_blob
from repro.options import resolve_options
from repro.persistence import catalog, schema
from repro.persistence.db import journal_mode, open_checked, transaction
from repro.persistence.sqlqueries import SqlLineageQueries
from repro.provenance.execution import WorkflowRun
from repro.provenance.model import Artifact, Invocation, ProvenanceGraph
from repro.provenance.store import ProvenanceStore
from repro.workflow.jsonio import (
    document_task_ids,
    load_spec_document,
    spec_from_dict,
    spec_to_json,
)
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import TaskId


def _canonical(value: Any, what: str) -> str:
    """Canonical JSON text, or a clear error naming the offender.

    Serializability alone is not enough: a value that *changes* across
    the round trip (a tuple reloads as a list, an int dict key as a
    string) would commit fine and then poison every future hydration —
    the reloaded run could never equal the stored one, and an unhashable
    reload crashes the payload indexes.  Reject such values before a
    single row is written.
    """
    try:
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise PersistenceError(
            f"{what} is not JSON-serializable: {exc}") from exc
    if json.loads(text) != value:
        raise PersistenceError(
            f"{what} does not survive a JSON round trip (tuples reload "
            f"as lists, non-string dict keys as strings); store "
            f"JSON-faithful data")
    return text


class DurableProvenanceStore(ProvenanceStore):
    """A :class:`ProvenanceStore` that survives restarts.

    ``spec=None`` loads the workflow pinned in the database's ``meta``
    table; passing a spec against a non-empty database cross-checks the
    task sets the same way ``add_run`` rejects a foreign run.
    ``readonly=True`` opens a WAL reader that can answer every query but
    refuses writes (the per-worker discipline of the analysis service).
    """

    def __init__(self, path: str, spec: Optional[WorkflowSpec] = None,
                 readonly: bool = False, *,
                 timeout_ms: Optional[int] = None,
                 kernel: Optional[str] = None) -> None:
        self.options = resolve_options(db_path=path, timeout_ms=timeout_ms,
                                       kernel=kernel)
        self.path = self.options.db_path
        self.readonly = readonly
        self.kernel = self.options.kernel
        self._conn = open_checked(self.path, readonly=readonly,
                                  timeout_ms=self.options.timeout_ms)
        try:
            spec = self._resolve_spec(spec)
        except BaseException:
            self._conn.close()  # a refused or unreadable open leaks nothing
            raise
        super().__init__(spec)
        self._task_by_str = {str(t): t for t in spec.task_ids()}
        self._hydrated = False
        # test hook (crash-recovery battery): kill the process after the
        # transaction's rows are written but before COMMIT
        self._crash_before_commit = False

    # -- open / close ------------------------------------------------------

    def _resolve_spec(self, spec: Optional[WorkflowSpec]) -> WorkflowSpec:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'workflow_spec'").fetchone()
        if row is None:
            if spec is None:
                raise PersistenceError(
                    f"database {self.path!r} has no workflow pinned; "
                    f"pass a spec to initialize it")
            if self.readonly:
                raise PersistenceError(
                    f"database {self.path!r} has no workflow pinned and "
                    f"the connection is read-only")
            with transaction(self._conn):
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("workflow_spec", spec_to_json(spec)))
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("workflow_name", spec.name))
            return spec
        document = load_spec_document(row[0])
        if spec is None:
            return spec_from_dict(document)
        # a given spec only needs its task ids checked against the pinned
        # document; building the stored spec too would be wasted work
        if (set(map(str, spec.task_ids()))
                != set(map(str, document_task_ids(document)))):
            raise PersistenceError(
                f"database {self.path!r} pins workflow "
                f"{document.get('name', 'workflow')!r}, "
                f"whose tasks differ from the given spec {spec.name!r}")
        return spec

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "DurableProvenanceStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- recording ---------------------------------------------------------

    def add_run(self, run: WorkflowRun) -> None:
        self._ensure_hydrated()
        if self.readonly:
            raise PersistenceError(
                f"store on {self.path!r} is read-only; cannot add run "
                f"{run.run_id!r}")
        # the in-memory validations first — duplicates and foreign runs
        # raise a clear ReproError before a single row is written
        if run.run_id in self._runs:
            raise ProvenanceError(f"run {run.run_id!r} already stored")
        if set(run.spec.task_ids()) != set(self.spec.task_ids()):
            raise ProvenanceError(
                "run belongs to a different workflow than the store's")
        rows = self._stage_rows(run)
        labels = self._stage_labels(run)
        with transaction(self._conn):
            self._write_rows(run.run_id, rows)
            self._write_labels(run.run_id, labels)
            catalog.apply_run(self._conn, run.run_id,
                              [task for task, _artifact, _pos
                               in rows["outputs"]])
            if self._crash_before_commit:
                os._exit(3)
        # disk is committed; mirror into the in-memory indexes (validated
        # above and staged below, so this cannot fail halfway)
        super().add_run(run)

    def _stage_rows(self, run: WorkflowRun) -> dict:
        """Relational form of the run, validated before any write."""
        graph = run.provenance
        invocations, uses, artifacts = [], [], []
        for position, (kind, node_id) in enumerate(
                graph.topological_order()):
            if kind == "invocation":
                invocation = graph.invocation(node_id)
                invocations.append(
                    (node_id, _scalar_str(invocation.task_id),
                     _canonical(dict(invocation.params),
                                f"params of invocation {node_id!r}"),
                     position))
                uses.extend(
                    (node_id, artifact_id, use_position)
                    for use_position, artifact_id
                    in enumerate(graph.used(node_id)))
            else:
                artifact = graph.artifact(node_id)
                try:
                    hash(artifact.payload)
                except TypeError:
                    # an unhashable payload would crash the in-memory
                    # payload indexes *after* the transaction committed
                    raise PersistenceError(
                        f"payload of artifact {node_id!r} is not "
                        f"hashable; payloads key the store's content "
                        f"indexes") from None
                artifacts.append(
                    (node_id, artifact.producer,
                     _canonical(artifact.payload,
                                f"payload of artifact {node_id!r}"),
                     position))
        outputs = [(_scalar_str(task_id), artifact_id, position)
                   for position, (task_id, artifact_id)
                   in enumerate(run.outputs.items())]
        return {"invocations": invocations, "uses": uses,
                "artifacts": artifacts, "outputs": outputs}

    def _stage_labels(self, run: WorkflowRun) -> dict:
        """The run's reachability labels (:mod:`repro.graphs.labeling`)
        in relational form, computed before the transaction opens."""
        labeling = label_provenance(run.provenance, kernel=self.kernel)
        graph = run.provenance
        rows = []
        for label in labeling.labels:
            kind, node_id = label.node
            task_id = (_scalar_str(graph.invocation(node_id).task_id)
                       if kind == "invocation" else None)
            rows.append((label.position, kind, node_id, task_id,
                         label.pre, label.post,
                         spill_to_blob(label.anc_spill),
                         spill_to_blob(label.desc_spill)))
        return {"rows": rows,
                "summary": (len(labeling.labels), labeling.tree_edges,
                            labeling.spill_bits)}

    def _write_labels(self, run_id: str, labels: dict) -> None:
        self._conn.executemany(
            "INSERT INTO opm_labels "
            "(run_id, position, kind, node_id, task_id, pre, post, "
            " anc_spill, desc_spill) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [(run_id, *row) for row in labels["rows"]])
        self._conn.execute(
            "INSERT INTO run_labels "
            "(run_id, nodes, tree_edges, spill_bits, labeled_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (run_id, *labels["summary"],
             datetime.now(timezone.utc).isoformat()))

    def _write_rows(self, run_id: str, rows: dict) -> None:
        conn = self._conn
        position = conn.execute(
            "SELECT COALESCE(MAX(position), -1) + 1 FROM runs").fetchone()[0]
        conn.execute(
            "INSERT INTO runs (run_id, position) VALUES (?, ?)",
            (run_id, position))
        conn.executemany(
            "INSERT INTO invocations "
            "(run_id, invocation_id, task_id, params, position) "
            "VALUES (?, ?, ?, ?, ?)",
            [(run_id, *row) for row in rows["invocations"]])
        conn.executemany(
            "INSERT INTO invocation_uses "
            "(run_id, invocation_id, artifact_id, position) "
            "VALUES (?, ?, ?, ?)",
            [(run_id, *row) for row in rows["uses"]])
        conn.executemany(
            "INSERT INTO artifacts "
            "(run_id, artifact_id, producer, payload, position) "
            "VALUES (?, ?, ?, ?, ?)",
            [(run_id, *row) for row in rows["artifacts"]])
        conn.executemany(
            "INSERT INTO run_outputs "
            "(run_id, task_id, artifact_id, position) VALUES (?, ?, ?, ?)",
            [(run_id, *row) for row in rows["outputs"]])

    # -- hydration ---------------------------------------------------------

    def _ensure_hydrated(self) -> None:
        """Rebuild the in-memory store from the log, once per open.

        Runs are replayed in recording order (positions preserve both the
        run sequence and each graph's OPM node order), so the rebuilt
        graphs, indexes and query results are bit-identical to a volatile
        store that executed the same ``add_run`` sequence.
        """
        if self._hydrated:
            return
        self._hydrated = True  # set first: the replay calls add_run below
        conn = self._conn
        cached: List[str] = []
        for run_id, lineage_cached in conn.execute(
                "SELECT run_id, exit_lineage_cached FROM runs "
                "ORDER BY position"):
            ProvenanceStore.add_run(self, self._load_run(run_id))
            if lineage_cached:
                cached.append(run_id)
        for run_id in cached:
            self._exit_lineage[run_id] = frozenset(
                self._task(task_id) for (task_id,) in conn.execute(
                    "SELECT task_id FROM exit_lineage WHERE run_id = ?",
                    (run_id,)))

    def _load_run(self, run_id: str) -> WorkflowRun:
        conn = self._conn
        events: List[Tuple[int, str, tuple]] = []
        uses = {}
        for invocation_id, artifact_id in conn.execute(
                "SELECT invocation_id, artifact_id FROM invocation_uses "
                "WHERE run_id = ? ORDER BY position", (run_id,)):
            uses.setdefault(invocation_id, []).append(artifact_id)
        for invocation_id, task_id, params, position in conn.execute(
                "SELECT invocation_id, task_id, params, position "
                "FROM invocations WHERE run_id = ?", (run_id,)):
            events.append((position, "invocation",
                           (invocation_id, task_id, params)))
        for artifact_id, producer, payload, position in conn.execute(
                "SELECT artifact_id, producer, payload, position "
                "FROM artifacts WHERE run_id = ?", (run_id,)):
            events.append((position, "artifact",
                           (artifact_id, producer, payload)))
        graph = ProvenanceGraph()
        for _, kind, fields in sorted(events):
            if kind == "invocation":
                invocation_id, task_id, params = fields
                graph.record_invocation(
                    Invocation(invocation_id,
                               task_id=self._task(task_id),
                               params=json.loads(params)),
                    used=uses.get(invocation_id, ()))
            else:
                artifact_id, producer, payload = fields
                graph.record_artifact(
                    Artifact(artifact_id, producer=producer,
                             payload=json.loads(payload)))
        outputs = {self._task(task_id): artifact_id
                   for task_id, artifact_id in conn.execute(
                       "SELECT task_id, artifact_id FROM run_outputs "
                       "WHERE run_id = ? ORDER BY position", (run_id,))}
        return WorkflowRun(spec=self.spec, provenance=graph,
                           outputs=outputs, run_id=run_id)

    def _task(self, task_id: str) -> TaskId:
        return self._task_by_str.get(task_id, task_id)

    # -- derived state -----------------------------------------------------

    def _exit_lineage_of(self, run_id: str) -> FrozenSet[TaskId]:
        computed = run_id not in self._exit_lineage
        cone = super()._exit_lineage_of(run_id)
        if computed and not self.readonly:
            self._persist_cones([(run_id, cone)])
        return cone

    def _persist_cones(self, cones) -> None:
        """Write-behind ``(run_id, cone)`` pairs in one transaction: the
        next open loads them instead of recomputing."""
        with transaction(self._conn):
            self._conn.executemany(
                "INSERT OR IGNORE INTO exit_lineage (run_id, task_id) "
                "VALUES (?, ?)",
                [(run_id, _scalar_str(task_id))
                 for run_id, cone in cones for task_id in cone])
            self._conn.executemany(
                "UPDATE runs SET exit_lineage_cached = 1 "
                "WHERE run_id = ?",
                [(run_id,) for run_id, _ in cones])

    # -- hydration guards on the read API ----------------------------------
    #
    # every public query goes through the in-memory indexes; entry points
    # that touch index state directly trigger the lazy rebuild (the rest
    # reach it through self.run / these)

    def __len__(self) -> int:
        self._ensure_hydrated()
        return super().__len__()

    def run(self, run_id: str) -> WorkflowRun:
        self._ensure_hydrated()
        return super().run(run_id)

    def run_ids(self) -> List[str]:
        self._ensure_hydrated()
        return super().run_ids()

    def runs_producing(self, payload: Any) -> List[tuple]:
        self._ensure_hydrated()
        return super().runs_producing(payload)

    def _runs_of_task(self, task_id: TaskId) -> List[str]:
        self._ensure_hydrated()
        return super()._runs_of_task(task_id)

    def _runs_consuming(self, payload: Any) -> List[str]:
        self._ensure_hydrated()
        return super()._runs_consuming(payload)

    def _runs_with_lineage_through(self, task_id: TaskId) -> List[str]:
        # the index sweep may fill many cones at once; compute them all
        # through the in-memory path, then write behind in ONE
        # transaction instead of one commit per run
        self._ensure_hydrated()
        missing = [run_id for run_id in self._runs
                   if run_id not in self._exit_lineage]
        found = [run_id for run_id in self._runs
                 if task_id in ProvenanceStore._exit_lineage_of(
                     self, run_id)]
        if missing and not self.readonly:
            self._persist_cones([(run_id, self._exit_lineage[run_id])
                                 for run_id in missing])
        return found

    def to_json(self) -> str:
        self._ensure_hydrated()
        return super().to_json()

    # -- cold (label-backed) access ----------------------------------------
    #
    # the LineageQueryEngine façade's SQL path: everything here answers
    # from the database without triggering the full hydration above

    @property
    def is_hydrated(self) -> bool:
        """Whether the in-memory indexes have been rebuilt this open —
        the façade planner's residency check."""
        return self._hydrated

    def sql_queries(self) -> SqlLineageQueries:
        """A label-backed query view over this store's connection."""
        return SqlLineageQueries(self._conn, self.spec)

    def cold_run_ids(self) -> List[str]:
        """Every stored run id in recording order, without hydrating."""
        return [run_id for (run_id,) in self._conn.execute(
            "SELECT run_id FROM runs ORDER BY position")]

    def load_run_cold(self, run_id: str) -> WorkflowRun:
        """Load ONE run from the log without hydrating the store — the
        façade's fallback for unlabeled (pre-v2) runs."""
        if self._conn.execute(
                "SELECT 1 FROM runs WHERE run_id = ?",
                (run_id,)).fetchone() is None:
            raise ProvenanceError(f"unknown run {run_id!r}")
        return self._load_run(run_id)

    def has_labels(self, run_id: str) -> bool:
        return self.sql_queries().has_labels(run_id)

    def label_coverage(self) -> Tuple[int, int]:
        """``(labeled_runs, total_runs)`` on disk."""
        return self.sql_queries().label_coverage()

    def backfill_labels(self, batch: int = 64) -> int:
        """Label every stored run that predates the label tables.

        Runs are loaded cold one at a time and their label rows written
        in transactions of ``batch`` runs, so a 10k-run v1 store is
        migrated with bounded memory.  Returns the number of runs
        labeled.  Idempotent: already-labeled runs are skipped.
        """
        if self.readonly:
            raise PersistenceError(
                "cannot backfill labels on a read-only store")
        missing = [run_id for (run_id,) in self._conn.execute(
            "SELECT r.run_id FROM runs r "
            "LEFT JOIN run_labels l ON l.run_id = r.run_id "
            "WHERE l.run_id IS NULL ORDER BY r.position")]
        labeled = 0
        for start in range(0, len(missing), max(1, batch)):
            chunk = missing[start:start + max(1, batch)]
            staged = [(run_id,
                       self._stage_labels(self._load_run(run_id)))
                      for run_id in chunk]
            with transaction(self._conn):
                for run_id, labels in staged:
                    self._write_labels(run_id, labels)
            labeled += len(chunk)
        return labeled

    # -- maintenance -------------------------------------------------------

    def stats(self) -> dict:
        """Table row counts plus file-level facts (``wolves db stats``)."""
        labeled, total = self.label_coverage()
        info = {
            "path": self.path,
            "schema_version": schema.schema_version(self._conn),
            "journal_mode": journal_mode(self._conn),
            "workflow": None,
            "tables": schema.table_counts(self._conn),
            "labels": {"labeled_runs": labeled, "total_runs": total},
        }
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'workflow_name'").fetchone()
        if row is not None:
            info["workflow"] = row[0]
        return info

    def vacuum(self) -> None:
        """Compact the file: checkpoint the WAL, then ``VACUUM``."""
        if self.readonly:
            raise PersistenceError("cannot vacuum a read-only store")
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._conn.execute("VACUUM")


def _scalar_str(value: Any) -> str:
    return str(value)
