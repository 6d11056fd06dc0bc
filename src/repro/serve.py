"""Sweep-as-a-service: a dependency-free HTTP front end over a shared store.

``repro serve`` turns a campaign store into a small service: clients submit
campaign sweeps over HTTP, poll their progress, and fetch individual cell
records or the Pareto frontier of a finished sweep.  Because the store is
content-hash keyed and simulation is deterministic (bit-identical results
for any job count), a popular configuration grid is **computed once and
served from cache** to every later caller — a second submission of the same
campaign completes with zero cells recomputed, provable from the telemetry
journal.

The server is pure stdlib (:mod:`http.server` + :mod:`threading` +
:mod:`queue`): a :class:`~http.server.ThreadingHTTPServer` answers requests
while a single background worker drains the submission queue, so sweeps run
one at a time against the shared store (the store's idempotent puts make
even overlapping external writers safe; serializing merely keeps the host
sane).  Every request is journaled through the PR 9 telemetry layer as a
``serve_request`` record under the server's session id, next to the
ordinary ``run_start``/``cell``/``run_end`` records of the sweeps it
triggers, and so is every error reply http.server sends on its own (a
malformed request line, a header flood, an unknown method).

Endpoints (all JSON; see ``docs/architecture.md`` for a curl session):

====== =================================== ====================================
Method Path                                Meaning
====== =================================== ====================================
GET    ``/api/v1/health``                  liveness + store URL + cell count
GET    ``/api/v1/store``                   store URL, cell count, manifest
POST   ``/api/v1/campaigns``               submit a sweep (``{"preset": ...}``)
GET    ``/api/v1/campaigns``               list submitted campaigns
GET    ``/api/v1/campaigns/<id>``          poll one campaign's progress
GET    ``/api/v1/campaigns/<id>/frontier`` Pareto frontier of a finished sweep
GET    ``/api/v1/cells/<key>``             one stored cell record, verbatim
====== =================================== ====================================
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.experiments import ExperimentResults
from repro.api import RunOptions
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import PRESET_NAMES, CampaignSpec, campaign_preset
from repro.campaign.store import ResultStore, open_store
from repro.dse.objectives import DEFAULT_OBJECTIVES, objective_values, resolve_objectives
from repro.dse.pareto import ParetoPoint, pareto_frontier
from repro.obs.logs import get_logger
from repro.obs.telemetry import TelemetryJournal
from repro.workloads.registry import validate_workload

__all__ = ["ReproServer", "CampaignJob"]

logger = get_logger(__name__)

#: campaign job states, in lifecycle order
JOB_STATES = ("queued", "running", "done", "failed")

#: largest request body the server reads; submissions are a few hundred bytes
MAX_BODY_BYTES = 1 << 20

#: the fields a campaign submission may carry; any other key is a 400
SUBMISSION_FIELDS = ("preset", "benchmarks", "instructions", "seed", "warmup", "jobs")

#: most instructions per trace a submission may ask for (200x the presets' 5,000)
MAX_INSTRUCTIONS = 1_000_000

#: most worker processes a submission may ask for
MAX_JOBS = os.cpu_count() or 1


class CampaignJob:
    """One submitted sweep: its spec, lifecycle state and frontier."""

    def __init__(self, job_id: str, spec: CampaignSpec, jobs: Optional[int]) -> None:
        self.id = job_id
        self.spec = spec
        self.jobs = jobs
        self.state = "queued"
        self.error: Optional[str] = None
        self.done = 0
        self.total = len(spec.cells())
        self.cells_computed = 0
        self.cells_skipped = 0
        self.run_id: Optional[str] = None
        #: the frontier endpoint's payload, computed once when the sweep
        #: finishes (the job keeps no SimulationResult)
        self.frontier: Optional[dict] = None

    def describe(self) -> dict:
        """The JSON shape every campaign endpoint returns."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "campaign": self.spec.name,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "cells_computed": self.cells_computed,
            "cells_skipped": self.cells_skipped,
        }
        if self.run_id is not None:
            payload["run_id"] = self.run_id
        if self.error is not None:
            payload["error"] = self.error
        if self.state == "done":
            payload["keys"] = sorted(cell.key() for cell in self.spec.cells())
        return payload


class _RequestError(Exception):
    """An HTTP error response: (status, message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ReproServer` and journals them."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # A reply leaves in two writes (headers, then body).  With Nagle's
    # algorithm on, the body waits for the client's delayed ACK, about
    # 40 ms per keep-alive reply; socketserver sets TCP_NODELAY instead.
    disable_nagle_algorithm = True
    # Seconds a connection may sit idle, or stall mid-request, before its
    # handler thread gives up on it (StreamRequestHandler applies it to the
    # socket): idle keep-alive and half-open clients no longer pin a thread.
    timeout = 30

    # BaseHTTPRequestHandler logs to stderr per request by default; the
    # telemetry journal is the operational record, so keep stderr quiet.
    def log_message(self, format: str, *args: object) -> None:
        logger.debug("serve: " + format, *args)

    @property
    def app(self) -> "ReproServer":
        return self.server.app  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """Send one of http.server's own error replies, and journal it.

        http.server answers a bad request line (400), a request line over
        64 KiB (414), a header flood (431) and an unknown method (501)
        itself, before :meth:`_handle` runs.  The method and path of a
        request line that did not parse are journaled as ``-``.
        """
        started = time.time()
        super().send_error(code, message, explain)
        parsed = bool(self.command)
        self.app.journal_request(
            self.command if parsed else "-",
            self.path if parsed else "-",
            code,
            time.time() - started,
        )

    def _handle(self, method: str) -> None:
        started = time.time()
        try:
            status, payload = self.app.dispatch(method, self.path, self._body())
        except _RequestError as error:
            status, payload = error.status, {"error": str(error)}
        except Exception as error:  # never let a bug kill the connection
            logger.exception("serve: unhandled error for %s %s", method, self.path)
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        client_gone = False
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            # The client left (or stopped reading) before its reply: a
            # normal end of the connection, journaled as such rather than a
            # traceback.
            self.close_connection = True
            client_gone = True
        self.app.journal_request(
            method, self.path, status, time.time() - started, client_gone=client_gone
        )

    def _body(self) -> Optional[dict]:
        """The JSON object in the request body, or ``None`` without one.

        The length is checked before anything is read: a negative or
        non-numeric ``Content-Length`` is a 400 and one above
        :data:`MAX_BODY_BYTES` a 413.  Either way the unread body leaves
        the stream out of step, so the connection closes after the reply.
        A body that stalls for :attr:`timeout` seconds before its length is
        read is a 408, and the connection closes too.
        """
        header = (self.headers.get("Content-Length") or "").strip()
        if not header:
            return None
        if not (header.isascii() and header.isdigit()):
            self.close_connection = True
            raise _RequestError(
                400, f"Content-Length must be a non-negative integer, got {header!r}"
            )
        length = int(header)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _RequestError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES} bytes"
            )
        if not length:
            return None
        try:
            raw = self.rfile.read(length)
        except socket.timeout:
            # The body stopped short of its Content-Length.  (socket.timeout
            # is TimeoutError from Python 3.10 on, a separate OSError on 3.9.)
            self.close_connection = True
            raise _RequestError(408, f"request body of {length} bytes timed out")
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _RequestError(400, f"request body is not JSON: {error}")
        if not isinstance(parsed, dict):
            raise _RequestError(400, "request body must be a JSON object")
        return parsed


def _integer(field: str, value: Any, low: int, high: Optional[int] = None) -> int:
    """``value`` if it is an integer in ``low..high``, else a 400 naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _RequestError(400, f"\"{field}\" must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f"{low}..{high}" if high is not None else f">= {low}"
        raise _RequestError(400, f"\"{field}\" must lie in {bounds}, got {value}")
    return value


def _benchmarks(value: Any) -> List[str]:
    """``value`` if it is a non-empty list of known workload names, else a 400."""
    if not isinstance(value, list) or not value:
        raise _RequestError(
            400, f"\"benchmarks\" must be a non-empty list of names, got {value!r}"
        )
    for name in value:
        if not isinstance(name, str):
            raise _RequestError(400, f"\"benchmarks\" entries must be names, got {name!r}")
        try:
            validate_workload(name)
        except KeyError as error:
            raise _RequestError(400, str(error.args[0]) if error.args else str(error))
    return value


class ReproServer:
    """The submit/poll/fetch service over one shared campaign store.

    Parameters
    ----------
    store:
        Store URL (``json:dir`` / ``sqlite:db``), bare directory path, or a
        live :class:`ResultStore` — shared by every sweep this server runs.
    host / port:
        Bind address; ``port=0`` picks a free port (tests read
        :attr:`port` after construction).
    jobs:
        Default worker-process count for submitted sweeps (a submission may
        override it with a ``"jobs"`` field).
    """

    def __init__(
        self,
        store: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = None,
    ) -> None:
        resolved = open_store(store)
        if resolved is None:
            raise ValueError("repro serve needs a store (json:dir or sqlite:db)")
        self.store: ResultStore = resolved
        self.jobs = jobs
        self.journal = TelemetryJournal(self.store.telemetry_path)
        self._lock = threading.Lock()
        self._campaigns: Dict[str, CampaignJob] = {}
        self._order: List[str] = []
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.app = self  # type: ignore[attr-defined]
        self._server_thread: Optional[threading.Thread] = None
        self._worker_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the HTTP listener and the sweep worker (both daemons)."""
        self._server_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._worker_thread = threading.Thread(
            target=self._drain, name="repro-serve-worker", daemon=True
        )
        self._server_thread.start()
        self._worker_thread.start()
        logger.info("serve: listening on %s (store %s)", self.url, self.store.url)

    def shutdown(self) -> None:
        """Stop accepting requests, let the current sweep finish, exit."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._queue.put(None)
        if self._worker_thread is not None:
            self._worker_thread.join()
        if self._server_thread is not None:
            self._server_thread.join()

    def serve_forever(self) -> None:
        """Foreground mode for the CLI: block until KeyboardInterrupt."""
        self.start()
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def journal_request(
        self,
        method: str,
        path: str,
        status: int,
        wall_seconds: float,
        client_gone: bool = False,
    ) -> None:
        """Journal one handled request in the telemetry journal;
        ``client_gone`` marks a reply the client left before receiving."""
        self.journal.serve_request(
            method, path, status, wall_seconds, client_gone=client_gone
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def dispatch(
        self, method: str, path: str, body: Optional[dict]
    ) -> Tuple[int, dict]:
        """Route one request; returns ``(status, JSON payload)``."""
        parts = [part for part in path.split("?")[0].split("/") if part]
        if len(parts) < 2 or parts[0] != "api" or parts[1] != "v1":
            raise _RequestError(404, f"unknown path {path!r}; endpoints live under /api/v1")
        route = parts[2:]
        if route == ["health"] and method == "GET":
            return 200, {"status": "ok", "store": self.store.url, "cells": len(self.store)}
        if route == ["store"] and method == "GET":
            manifest = self.store.manifest()
            return 200, {
                "store": self.store.url,
                "cells": len(self.store),
                "campaign": manifest.get("name") if manifest else None,
            }
        if route == ["campaigns"] and method == "POST":
            return self._submit(body or {})
        if route == ["campaigns"] and method == "GET":
            with self._lock:
                jobs = [self._campaigns[cid].describe() for cid in self._order]
            return 200, {"campaigns": jobs}
        if len(route) == 2 and route[0] == "campaigns" and method == "GET":
            return 200, self._job(route[1]).describe()
        if (
            len(route) == 3
            and route[0] == "campaigns"
            and route[2] == "frontier"
            and method == "GET"
        ):
            return self._frontier(route[1])
        if len(route) == 2 and route[0] == "cells" and method == "GET":
            record = self.store.record(route[1])
            if record is None:
                raise _RequestError(404, f"no stored cell {route[1]!r}")
            return 200, record
        raise _RequestError(404, f"no endpoint for {method} {path}")

    def _job(self, job_id: str) -> CampaignJob:
        with self._lock:
            job = self._campaigns.get(job_id)
        if job is None:
            raise _RequestError(404, f"unknown campaign {job_id!r}")
        return job

    # ------------------------------------------------------------------
    # Submit + worker
    # ------------------------------------------------------------------
    def _submit(self, body: dict) -> Tuple[int, dict]:
        """Validate a submission, then queue it; any bad field is a 400.

        Nothing is queued or recorded until every field has passed.
        """
        unknown = sorted(set(body) - set(SUBMISSION_FIELDS))
        if unknown:
            raise _RequestError(
                400,
                f"unknown submission field(s) {', '.join(map(repr, unknown))}; "
                f"accepted: {', '.join(SUBMISSION_FIELDS)}",
            )
        preset = body.get("preset")
        if not isinstance(preset, str):
            raise _RequestError(
                400, f"submission needs a \"preset\" name (one of {', '.join(PRESET_NAMES)})"
            )
        try:
            spec = campaign_preset(preset)
        except KeyError as error:
            raise _RequestError(400, str(error.args[0]) if error.args else str(error))
        overrides = {}
        if "benchmarks" in body:
            overrides["benchmarks"] = _benchmarks(body["benchmarks"])
        if "instructions" in body:
            overrides["instructions"] = _integer(
                "instructions", body["instructions"], 1, MAX_INSTRUCTIONS
            )
        if "seed" in body:
            overrides["seed"] = _integer("seed", body["seed"], 0)
        if "warmup" in body:
            warmup = body["warmup"]
            if (
                isinstance(warmup, bool)
                or not isinstance(warmup, (int, float))
                or not 0 <= warmup < 1
            ):
                raise _RequestError(
                    400, f"\"warmup\" must be a number in [0, 1), got {warmup!r}"
                )
            overrides["warmup_fraction"] = warmup
        if overrides:
            spec = spec.with_overrides(**overrides)
        jobs = self.jobs
        if "jobs" in body:
            jobs = _integer("jobs", body["jobs"], 1, MAX_JOBS)
        with self._lock:
            job_id = f"c{len(self._order) + 1:04d}"
            job = CampaignJob(job_id, spec, jobs)
            self._campaigns[job_id] = job
            self._order.append(job_id)
        self._queue.put(job_id)
        return 202, job.describe()

    def _drain(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            self._run_job(self._job(job_id))

    def _run_job(self, job: CampaignJob) -> None:
        with self._lock:
            job.state = "running"

        def progress(event: str, cell: object, done: int, total: int) -> None:
            with self._lock:
                job.done = done

        # A dedicated journal per sweep gives each submission its own run_id
        # in the shared journal — the "second submission recomputed nothing"
        # proof reads its run_end and checks cells_computed == 0.
        journal = TelemetryJournal(self.store.telemetry_path)
        executor = ParallelExecutor(
            options=RunOptions(jobs=job.jobs, store=self.store),
            progress=progress,
            journal=journal,
        )
        try:
            frontier = _frontier_payload(job, executor.run(job.spec))
        except Exception as error:
            logger.exception("serve: campaign %s failed", job.id)
            with self._lock:
                job.state = "failed"
                job.error = f"{type(error).__name__}: {error}"
            return
        with self._lock:
            job.run_id = journal.run_id
            job.cells_computed = len(executor.completed_cells)
            job.cells_skipped = len(executor.skipped_cells)
            job.done = job.total
            job.frontier = frontier
            job.state = "done"

    # ------------------------------------------------------------------
    # Frontier
    # ------------------------------------------------------------------
    def _frontier(self, job_id: str) -> Tuple[int, dict]:
        """The stored Pareto frontier of a finished sweep (409 before)."""
        job = self._job(job_id)
        with self._lock:
            state, frontier = job.state, job.frontier
        if state != "done" or frontier is None:
            raise _RequestError(
                409, f"campaign {job_id!r} is {state}; the frontier needs state done"
            )
        return 200, frontier


def _frontier_payload(job: CampaignJob, results: ExperimentResults) -> dict:
    """Pareto frontier of a finished sweep on the runtime/energy plane.

    The first configuration of the campaign is the normalization baseline
    (the campaign presets put the paper's Base1ldst first), so the baseline
    itself sits at ``(1.0, 1.0)``.
    """
    config_names = job.spec.configuration_names()
    objectives = resolve_objectives(DEFAULT_OBJECTIVES)
    baseline_name = config_names[0]
    values = objective_values(results, config_names, baseline_name, objectives)
    points = [ParetoPoint(label=name, values=value) for name, value in zip(config_names, values)]
    frontier = pareto_frontier(points)

    def as_dict(point: ParetoPoint) -> dict:
        return {
            "config": point.label,
            "values": {
                objective.key: point.values[index]
                for index, objective in enumerate(objectives)
            },
        }

    return {
        "id": job.id,
        "campaign": job.spec.name,
        "baseline": baseline_name,
        "objectives": [objective.key for objective in objectives],
        "points": [as_dict(point) for point in points],
        "frontier": [as_dict(point) for point in frontier],
    }
