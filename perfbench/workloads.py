"""One measured pass of a benchmark workload, in a fresh Python process.

``run.py`` starts this file once per pass, so every pass pays interpreter
start-up, imports, trace generation and kernel compilation exactly as a CLI
invocation does::

    PYTHONPATH=src python3 perfbench/workloads.py fig4-sim --seed 0 --jobs 1 \\
        --work DIR [--cpu N] [--trace | --capture | --setup-only]

The pass prints one JSON line: the measured phase window (``ready_ns`` ..
``end_ns`` on the monotonic clock), the CPU seconds spent at its start and
during it (this process, its children and, for serve, the server), work
counts, a digest per result cell for the output check, the simulated model
metrics, peak RSS and, with ``--trace``, the per-layer split.  ``--cpu N``
pins the pass and every process it starts to CPU ``N``.  ``--capture``
records the public executor attributes of an untraced run (pool timing)
without spans; ``--setup-only`` stops where the measured phase would
begin, so a run can sample set-up time cheaply.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402  (the benchmark's own module)

#: fig4-sim: small hot sets (gzip, djpeg) to footprints far beyond L1/TLB
FIG4_SIM_BENCHMARKS = ("gzip", "gcc", "mcf", "swim", "art", "djpeg")
FIG4_SIM_INSTRUCTIONS = 20_000
#: sweep-json: the fig4 preset at this trace length, then resumed RESUME_RUNS times
SWEEP_INSTRUCTIONS = 1_000
RESUME_RUNS = 30
#: serve-mixed: poll think time, read-phase size and per-request timeout
THINK_S = 0.02
READ_REQUESTS = 150
REQUEST_TIMEOUT_S = 10.0
DONE_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 10.0
#: dse-halving: the halving search's work swings 2x with its sampling seed
#: (147-266 cells over seeds 1-6), so it always samples with this one
DSE_SEED = 0
#: the fixed read mix, repeated: 14 cell fetches, 2 status, 2 frontier, list, health
READ_MIX = (
    "cell", "cell", "status", "cell", "cell", "frontier", "cell", "cell", "cell", "list",
    "cell", "cell", "status", "cell", "cell", "frontier", "cell", "cell", "cell", "health",
)


def now_ns() -> int:
    return time.monotonic_ns()


def cpu_seconds(server_pid=None) -> float:
    """CPU seconds of this process, its waited-for children and the server.

    Pool workers are waited for when their pool closes; the server runs
    until the pass ends, so its time is read from ``/proc``.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    if server_pid is not None:
        fields = Path(f"/proc/{server_pid}/stat").read_text().rsplit(")", 1)[1].split()
        # utime, stime, cutime, cstime: fields 14-17 of proc(5)
        total += sum(int(value) for value in fields[11:15]) / os.sysconf("SC_CLK_TCK")
    return total


class SetupDone(Exception):
    """Raised at the start of the measured phase of a ``--setup-only`` pass."""

    def __init__(self, ready: int, cpu: float) -> None:
        super().__init__(ready)
        self.ready = ready
        self.cpu = cpu


def phase_start(args, server_pid=None) -> tuple:
    """``(monotonic ns, CPU seconds)`` at the start of the measured phase;
    it ends a set-up-only pass."""
    cpu = cpu_seconds(server_pid)
    ready = now_ns()
    if args.setup_only:
        raise SetupDone(ready, cpu)
    return ready, cpu


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _total_pj(result: dict) -> float:
    structures = result["energy"]["structures"].values()
    return sum(item["dynamic_pj"] for item in structures) + sum(
        item["leakage_pj"] for item in structures
    )


def model_metrics(cells) -> dict:
    """Simulated metrics over ``(benchmark, config_name, result dict)`` triples.

    Normalised time and total energy are geomeans over benchmarks against
    Base1ldst (0 when the grid has no Fig. 4 configurations); the rates are
    aggregated over every cell.
    """
    by_config = {}
    totals = {"miss": 0.0, "load": 0.0, "known": 0.0, "lookup": 0.0, "merged": 0.0, "access": 0.0}
    for benchmark, config, result in cells:
        by_config.setdefault(config, {})[benchmark] = result
        stats = result["stats"]
        totals["miss"] += stats.get("l1.load_miss", 0.0)
        totals["load"] += stats.get("l1.load", 0.0)
        totals["known"] += stats.get("malec.way_known", 0.0)
        totals["lookup"] += stats.get("malec.way_lookup", 0.0)
        totals["merged"] += stats.get("interface.loads_merged", 0.0)
        totals["access"] += stats.get("interface.load_accesses", 0.0)
    base = by_config.get("Base1ldst", {})

    def normalised(config: str, measure) -> float:
        runs = by_config.get(config, {})
        ratios = [measure(runs[name]) / measure(base[name]) for name in runs if name in base]
        return statistics.geometric_mean(ratios) if ratios else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "model.malec_norm_time": normalised("MALEC", lambda r: r["cycles"]),
        "model.malec_norm_energy": normalised("MALEC", _total_pj),
        "model.base2_norm_time": normalised("Base2ld1st", lambda r: r["cycles"]),
        "model.base2_norm_energy": normalised("Base2ld1st", _total_pj),
        "model.l1_load_miss_rate": ratio(totals["miss"], totals["load"]),
        "model.way_coverage": ratio(totals["known"], totals["lookup"]),
        "model.merged_load_frac": ratio(totals["merged"], totals["merged"] + totals["access"]),
    }


def experiment_cells(spec, results):
    """``{cell key: (benchmark, config, result dict)}`` of a finished sweep."""
    from repro.campaign.store import result_to_dict

    by_benchmark = {run.benchmark: run.results for run in results.runs}
    return {
        cell.key(): (
            cell.benchmark,
            cell.config.name,
            result_to_dict(by_benchmark[cell.benchmark][cell.config.name]),
        )
        for cell in spec.cells()
    }


def summarise_cells(cells: dict) -> dict:
    return {
        "cells": {key: digest(result) for key, (_b, _c, result) in cells.items()},
        "model": model_metrics(cells.values()),
    }


def capture_executors() -> list:
    """Record every finished ParallelExecutor run (no spans, no timing inside)."""
    import repro.campaign.executor as executor_mod

    runs = []
    original = executor_mod.ParallelExecutor.run

    def run(self, spec):
        started = time.time()
        result = original(self, spec)
        runs.append(tracing.executor_run(self, started, time.time()))
        return result

    executor_mod.ParallelExecutor.run = run
    return runs


def file_bytes(*paths) -> float:
    """Total size of the given files and of every file below given directories."""
    total = 0
    for path in map(Path, paths):
        if path.is_file():
            total += path.stat().st_size
        elif path.is_dir():
            total += sum(item.stat().st_size for item in path.rglob("*") if item.is_file())
    return float(total)


def sqlite_files(database: Path) -> list:
    return [database.with_name(database.name + suffix) for suffix in ("", "-wal", "-shm")]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def fig4_sim(args, work: Path) -> dict:
    from repro.campaign import CampaignSpec, ParallelExecutor
    from repro.sim.config import SimulationConfig

    spec = CampaignSpec(
        name="fig4-sim",
        configurations=tuple(SimulationConfig.figure4_suite()),
        benchmarks=FIG4_SIM_BENCHMARKS,
        instructions=FIG4_SIM_INSTRUCTIONS,
        warmup_fraction=0.3,
        seed=args.seed,
    )
    executor = ParallelExecutor(jobs=args.jobs)
    ready, ready_cpu = phase_start(args)
    results = executor.run(spec)
    end = now_ns()
    phase_cpu = cpu_seconds() - ready_cpu
    cells = experiment_cells(spec, results)
    out = {
        "ready_ns": ready,
        "end_ns": end,
        "phase_s": (end - ready) / 1e9,
        "setup_cpu_s": ready_cpu,
        "phase_cpu_s": phase_cpu,
        "compute_cpu_s": phase_cpu,
        "computed": len(executor.completed_cells),
        "instructions": len(executor.completed_cells) * spec.instructions,
        "store_bytes": 0.0,
        "journal_bytes": 0.0,
    }
    out.update(summarise_cells(cells))
    return out


def sweep_json(args, work: Path) -> dict:
    from repro.api import RunOptions
    from repro.campaign import ParallelExecutor, ResultStore, campaign_preset

    store = ResultStore(f"json:{work / 'sweep'}")
    spec = campaign_preset("fig4").with_overrides(
        instructions=SWEEP_INSTRUCTIONS, seed=args.seed
    )
    executor = ParallelExecutor(
        options=RunOptions(jobs=args.jobs, store=store),
        journal=str(store.telemetry_path),
    )
    ready, ready_cpu = phase_start(args)
    results = executor.run(spec)
    computed_cpu = cpu_seconds()
    computed = len(executor.completed_cells)
    resumes, resume_cpu = [], []
    for _ in range(RESUME_RUNS):
        started = cpu_seconds()
        resumed = executor.run(spec)
        resume_cpu.append(cpu_seconds() - started)
        resumes.append((resumed, len(executor.completed_cells), len(executor.skipped_cells)))
    end = now_ns()
    phase_cpu = cpu_seconds() - ready_cpu
    cells = experiment_cells(spec, results)
    # Resumed cells must equal the computed ones (dataclass equality).
    mismatched = 0
    for resumed, recomputed, skipped in resumes:
        mismatched += recomputed + (len(cells) - skipped)
        for fresh, stored in zip(results.runs, resumed.runs):
            mismatched += sum(
                fresh.results[name] != stored.results.get(name) for name in fresh.results
            )
    out = {
        "ready_ns": ready,
        "end_ns": end,
        "phase_s": (end - ready) / 1e9,
        "setup_cpu_s": ready_cpu,
        "phase_cpu_s": phase_cpu,
        "compute_cpu_s": computed_cpu - ready_cpu,
        "computed": computed,
        "instructions": computed * spec.instructions,
        "resume_cpu_s": resume_cpu,
        "resume_cells": [skipped for _r, _c, skipped in resumes],
        "resumed": sum(skipped for _r, _c, skipped in resumes),
        "resume_mismatches": mismatched,
        "store_bytes": file_bytes(work / "sweep" / "cells"),
        "journal_bytes": file_bytes(store.telemetry_path),
    }
    out.update(summarise_cells(cells))
    return out


def dse_halving(args, work: Path) -> dict:
    from repro.campaign import ResultStore
    from repro.dse import run_dse, space_preset

    store = ResultStore(f"sqlite:{work / 'dse.db'}")
    space = space_preset("malec-sensitivity")
    ready, ready_cpu = phase_start(args)
    result = run_dse(space, strategy="halving", jobs=args.jobs, store=store, seed=DSE_SEED)
    end = now_ns()
    phase_cpu = cpu_seconds() - ready_cpu
    records = list(store.records())
    store.close()
    cells = {
        record["key"]: (record["benchmark"], record["config_name"], record["result"])
        for record in records
    }
    out = {
        "ready_ns": ready,
        "end_ns": end,
        "phase_s": (end - ready) / 1e9,
        "setup_cpu_s": ready_cpu,
        "phase_cpu_s": phase_cpu,
        "compute_cpu_s": phase_cpu,
        "computed": result.cells_simulated,
        "instructions": sum(record["instructions"] for record in records),
        "frontier": digest(result.describe()["frontier"]),
        "store_bytes": file_bytes(*sqlite_files(work / "dse.db")),
        "journal_bytes": 0.0,
    }
    out.update(summarise_cells(cells))
    return out


class ServeClient:
    """One keep-alive connection; every request timed and checked for 2xx."""

    def __init__(self, url: str) -> None:
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.connection = http.client.HTTPConnection(host, int(port), timeout=REQUEST_TIMEOUT_S)
        self.attempted = 0
        self.failed = 0
        self.non2xx = 0
        self.errors = []

    def request(self, method: str, path: str, body=None):
        """``(status, payload, start_ns, end_ns)``; status 0 when it raised."""
        self.attempted += 1
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        start = now_ns()
        try:
            self.connection.request(method, path, body=data, headers=headers)
            response = self.connection.getresponse()
            raw = response.read()
            status = response.status
            payload = json.loads(raw) if raw else None
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.connection.close()
            self.failed += 1
            self.errors.append(f"{method} {path}: {type(error).__name__}: {error}")
            return 0, None, start, now_ns()
        end = now_ns()
        if not 200 <= status < 300:
            self.failed += 1
            self.non2xx += 1
            self.errors.append(f"{method} {path}: HTTP {status}")
        return status, payload, start, end

    def check(self, ok: bool, what: str) -> None:
        """Count a failed output check against the request just made."""
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")


def _read_url(process: subprocess.Popen, deadline: float) -> str:
    """The URL from the server's unbuffered ``listening on`` line."""
    buffer = b""
    fd = process.stdout.fileno()
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.1)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffer += chunk
            for line in buffer.decode("utf-8", "replace").splitlines():
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].split()[0]
        elif process.poll() is not None:
            break
    raise RuntimeError(f"server printed no URL: {buffer[-500:]!r}")


def _wait_done(client: ServeClient, job: str, polls: list) -> dict:
    deadline = time.monotonic() + DONE_TIMEOUT_S
    while time.monotonic() < deadline:
        time.sleep(THINK_S)
        status, payload, _s, _e = client.request("GET", f"/api/v1/campaigns/{job}")
        polls.append(1)
        if status == 200 and payload.get("state") in ("done", "failed"):
            return payload
        if status == 0:
            break
    client.check(False, f"campaign {job} not done within {DONE_TIMEOUT_S} s")
    return {}


def serve_mixed(args, work: Path) -> dict:
    golden = None
    if args.seed == 0:
        golden = json.loads((ROOT / "tests" / "golden" / "fig4_mini.json").read_text())["records"]
    spans_path = work / "serve-spans.json"
    store = f"sqlite:{work / 'serve.db'}"
    if args.trace:
        command = [sys.executable, "-u", str(HERE / "serve_launcher.py"), "--spans", str(spans_path)]
    else:
        command = [sys.executable, "-u", "-m", "repro", "serve"]
    command += ["--store", store, "--port", "0", "--jobs", "1"]
    with open(work / "serve.stderr", "wb") as stderr:
        server = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT)
    client = None
    try:
        url = _read_url(server, time.monotonic() + 60.0)
        client = ServeClient(url)
        deadline = time.monotonic() + 30.0
        while client.request("GET", "/api/v1/health")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /api/v1/health")
            time.sleep(0.05)
        client.attempted = client.failed = client.non2xx = 0
        client.errors = []
        out = _serve_phase(args, client, golden, server.pid)
    finally:
        if client is not None:
            client.connection.close()
        stopped = _stop_server(server)
    out.update(stopped)
    out["attempted"] = client.attempted + 1
    out["failed"] = client.failed + (0 if stopped["shutdown_ok"] else 1)
    out["errors"] = client.errors[:20]
    out["non2xx"] = client.non2xx
    journal = work / "serve.db.telemetry.jsonl"
    out["store_bytes"] = file_bytes(*sqlite_files(work / "serve.db"))
    out["journal_bytes"] = file_bytes(journal)
    if args.trace:
        data = json.loads(spans_path.read_text())
        out["layers"] = tracing.layer_metrics(data, out["ready_ns"], out["end_ns"])
        out["layers"].update(serve_layers(out["requests"], data["dispatches"]))
        out["executor"] = data["executor"]
    return out


def serve_layers(requests, dispatches) -> dict:
    """Client latency per route, and server dispatch vs transport per request.

    Each read-phase request is matched with the ``ReproServer.dispatch`` span
    of the same path that lies inside it (one connection, closed loop).
    """
    by_path = {}
    for method, path, start, end in dispatches:
        by_path.setdefault(path, []).append((start, end))
    latency = {}
    dispatch_ms, transport_ms = [], []
    for kind, path, start, end in requests:
        latency.setdefault(kind, []).append((end - start) / 1e6)
        inside = [
            (s, e) for s, e in by_path.get(path, ()) if s >= start and e <= end
        ]
        if inside:
            served = (inside[0][1] - inside[0][0]) / 1e6
            dispatch_ms.append(served)
            transport_ms.append((end - start) / 1e6 - served)

    def p50(values) -> float:
        return statistics.median(values) if values else 0.0

    return {
        "serve.fetch_ms_p50": p50(latency.get("cell", [])),
        "serve.status_ms_p50": p50(latency.get("status", [])),
        "serve.frontier_ms_p50": p50(latency.get("frontier", [])),
        "serve.dispatch_ms_p50": p50(dispatch_ms),
        "serve.transport_ms_p50": p50(transport_ms),
    }


def _stop_server(server: subprocess.Popen) -> dict:
    """SIGINT the server; a hang past the timeout counts as a failure."""
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
    try:
        server.wait(timeout=SHUTDOWN_TIMEOUT_S)
        ok = True
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
        ok = False
    server.stdout.close()
    return {"shutdown_ok": ok and server.returncode in (0, -signal.SIGINT, 130)}


def _serve_phase(args, client: ServeClient, golden, server_pid: int) -> dict:
    submission = {"preset": "fig4-mini", "seed": args.seed}
    polls = []
    ready, ready_cpu = phase_start(args, server_pid)
    status, submitted, _s, _e = client.request("POST", "/api/v1/campaigns", submission)
    job = submitted["id"] if status == 202 else None
    done = _wait_done(client, job, polls) if job else {}
    done_at = now_ns()
    done_cpu = cpu_seconds(server_pid)
    keys = done.get("keys", [])
    client.check(done.get("state") == "done", f"first campaign state {done.get('state')}")
    client.check(done.get("cells_computed") == len(keys) > 0, "first campaign computed every cell")
    if golden is not None:
        client.check(sorted(golden) == keys, "campaign keys match the golden records")

    requests = []
    fetched = {}
    read_start = now_ns()
    for index in range(READ_REQUESTS):
        kind = READ_MIX[index % len(READ_MIX)]
        key = keys[index % len(keys)] if keys else "missing"
        path = {
            "cell": f"/api/v1/cells/{key}",
            "status": f"/api/v1/campaigns/{job}",
            "frontier": f"/api/v1/campaigns/{job}/frontier",
            "list": "/api/v1/campaigns",
            "health": "/api/v1/health",
        }[kind]
        status, payload, start, end = client.request("GET", path)
        requests.append((kind, path, start, end))
        if status != 200:
            continue
        if kind == "cell":
            if golden is not None:
                client.check(payload == golden.get(key), f"cell {key} matches golden")
            else:
                client.check(fetched.setdefault(key, payload) == payload, f"cell {key} stable")
            fetched.setdefault(key, payload)
        elif kind == "status":
            client.check(payload.get("state") == "done", "status reads done")
        elif kind == "frontier":
            client.check(bool(payload.get("frontier")), "frontier is non-empty")
    read_end = now_ns()

    status, again, _s, _e = client.request("POST", "/api/v1/campaigns", submission)
    redone = _wait_done(client, again["id"], polls) if status == 202 else {}
    client.check(redone.get("cells_computed") == 0, "resubmission computed no cell")
    client.check(redone.get("keys") == keys, "resubmission returns the same cells")
    for key in keys:
        status, payload, _s, _e = client.request("GET", f"/api/v1/cells/{key}")
        client.check(status == 200 and payload == fetched.get(key), f"cell {key} after resubmission")
    end = now_ns()
    end_cpu = cpu_seconds(server_pid)

    latencies = [(kind, (stop - start) / 1e6) for kind, _p, start, stop in requests]
    cells = {
        key: (record["benchmark"], record["config_name"], record["result"])
        for key, record in fetched.items()
    }
    out = {
        "ready_ns": ready,
        "end_ns": end,
        "phase_s": (end - ready) / 1e9,
        "submit_to_done_s": (done_at - ready) / 1e9,
        "setup_cpu_s": ready_cpu,
        "phase_cpu_s": end_cpu - ready_cpu,
        "compute_cpu_s": done_cpu - ready_cpu,
        "computed": done.get("cells_computed", 0),
        "instructions": done.get("cells_computed", 0) * 5_000,
        "read_s": (read_end - read_start) / 1e9,
        "latencies": latencies,
        "requests": requests,
        "polls": len(polls),
    }
    out.update(summarise_cells(cells))
    return out


WORKLOADS = {
    "fig4-sim": fig4_sim,
    "sweep-json": sweep_json,
    "serve-mixed": serve_mixed,
    "dse-halving": dse_halving,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--work", required=True)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--capture", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    tracer = None
    captured = None
    in_process = args.workload != "serve-mixed"
    if args.trace and in_process:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif args.capture and in_process:
        captured = capture_executors()
    try:
        out = WORKLOADS[args.workload](args, work)
    except SetupDone as done:
        print(json.dumps({"ready_ns": done.ready, "setup_cpu_s": done.cpu}))
        return 0
    if tracer is not None:
        data = tracing.snapshot(tracer)
        out["layers"] = tracing.layer_metrics(data, out["ready_ns"], out["end_ns"])
    if captured is not None:
        out["executor"] = tracing.executor_metrics(captured)
    out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
