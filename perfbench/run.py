"""The repository benchmark: cold sweeps and the job service, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/``).  Every
pass starts a fresh interpreter, so no process-wide memo is warm unless the
workload warms it.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` repeats untraced passes for about S seconds and reports the
end-to-end metrics (medians over passes).  ``--trace 1`` runs one untraced
pass and two passes with the layer clocks (:mod:`layers`) installed, and
reports the per-layer metrics; the two traced passes must agree exactly on
every work counter.  Workloads, metrics and the layer each metric should
move are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SERVE = HERE / "serve.py"

#: a run ends within this many seconds: work still pending then is killed
#: (sweeps) or not sent (service jobs) and counts as failed
RUN_DEADLINE_S = 165
#: a sweep workload's run makes at least this many passes
MIN_PASSES = 2
#: set-up is timed at least this many times per run (extra bare start-ups)
SETUP_SAMPLES = 5
#: pause between two status polls of one service job
POLL_S = 0.005
#: the first poll waits a seeded random share of this: on a keep-alive
#: connection each reply takes about 45 ms (the server writes headers and
#: body separately and the client's delayed ACK holds the body), so
#: undithered polls would round every latency to that grid
POLL_PHASE_S = 0.05


class PassFailed(RuntimeError):
    """A pass's process failed; all of its operations count as failed."""


#: what a failing pass can raise; the run records it and goes on
PASS_ERRORS = (PassFailed, OSError, ValueError, KeyError, http.client.HTTPException)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # fixed hashing: set iteration order, hence the exact work counters,
    # must not vary between passes
    env["PYTHONHASHSEED"] = "0"
    return env


def tail_latency(values, q: float = 0.90, beyond: int = 10) -> float:
    """Nearest-rank ``q`` percentile, lowered to the highest rank that
    leaves ``beyond`` samples above it, and never below the median: a tail
    estimate from fewer samples than that is a single outlier."""
    ordered = sorted(values)
    rank = min(math.ceil(q * len(ordered)), len(ordered) - beyond)
    return max(ordered[max(rank, 1) - 1], statistics.median(ordered))


# ---------------------------------------------------------------------------
# sweep workloads: one api.sweep call per fresh interpreter
# ---------------------------------------------------------------------------


def _worker(ctx: dict, index: int, grid: dict, extra: list) -> dict:
    """Run ``worker.py`` once; returns its result with ``setup_s`` added."""
    result_path = ctx["work"] / f"pass-{index}.json"
    cmd = [sys.executable, str(WORKER), "--grid", json.dumps(grid), "--result", str(result_path), *extra]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=ctx["env"], cwd=ctx["root"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, ctx["deadline"] - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed("sweep pass ran past the run deadline") from None
    if proc.returncode != 0:
        raise PassFailed(f"sweep pass exited {proc.returncode}: {stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - start
    return result


def sweep_pass(ctx: dict, index: int, traced: bool, grid=None) -> dict:
    grid = grid if grid is not None else wl.sweep_grid(ctx["workload"], ctx["seed"])
    result = _worker(ctx, index, grid, ["--layers"] if traced else [])
    result["wall_s"] = result["sweep_s"]
    result["bad"] = wl.check_rows(ctx["reference"], grid, result["rows"])
    result["attempted"] = len(wl.grid_cells(grid))
    # a sweep user's job is the api.sweep call: one per pass
    result["latencies"] = [result["sweep_s"]]
    result["jobs"] = 1
    result["overhead_s"] = result["sweep_s"] - sum(result["cell_s"].values())
    result["cell_s_max"] = max(result["cell_s"].values(), default=0.0)
    return result


# ---------------------------------------------------------------------------
# service workload: a serve-api subprocess and one closed-loop client
# ---------------------------------------------------------------------------


class Client:
    """One keep-alive HTTP connection to the job server."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str, body=None):
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, json.loads(data.decode("utf-8")) if data else None

    def close(self) -> None:
        self.conn.close()


def _start_server(ctx: dict, data: Path, layers_out) -> subprocess.Popen:
    serve_args = [
        "--port", "0",
        "--data-dir", str(data),
        "--cache-dir", str(data / "cache"),
        "--job-workers", "1",
    ]
    if layers_out is None:
        cmd = [sys.executable, "-m", "repro", "serve-api", *serve_args]
    else:
        cmd = [sys.executable, str(SERVE), "--layers-out", str(layers_out), "--", *serve_args]
    return subprocess.Popen(
        cmd, env=ctx["env"], cwd=ctx["root"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise PassFailed("server VmHWM not readable")


def _wait_healthy(client: Client, deadline: float) -> None:
    while True:
        try:
            status, _ = client.request("GET", "/v1/healthz")
            if status == 200:
                return
        except (ConnectionError, http.client.HTTPException, OSError):
            client.conn.close()
        if time.monotonic() > deadline:
            raise PassFailed("server never became healthy")
        time.sleep(0.01)


def _run_job(client: Client, job: dict, stats: dict, phase: float):
    """POST one job, poll it to its end (first poll after ``phase``
    seconds), GET its rows.

    Returns ``(latency_s, rows)`` or ``(None, None)`` when the job was
    refused or did not end ``done``."""
    posted = time.monotonic()
    status, doc = client.request("POST", "/v1/jobs", job)
    stats["submit_s"].append(time.monotonic() - posted)
    if status == 429:
        stats["rejected"] += 1
        return None, None
    if status != 202:
        return None, None
    job_id = doc["id"]
    stats["accepted"] += 1
    state = doc["state"]
    pause = phase
    while state in ("queued", "running"):
        time.sleep(pause)
        pause = POLL_S
        status, doc = client.request("GET", f"/v1/jobs/{job_id}")
        stats["polls"] += 1
        if status != 200:
            return None, None
        state = doc["state"]
    if state != "done":
        return None, None
    cache = doc.get("cache") or {}
    status, doc = client.request("GET", f"/v1/jobs/{job_id}/rows")
    if status != 200:
        return None, None
    latency = time.monotonic() - posted
    stats["done"].append((job_id, latency, cache))
    return latency, doc["rows"]


def final_elapsed_s(progress_path: Path) -> float:
    """``elapsed_s`` of a job's final progress event: the server's own
    wall time for the job's sweep."""
    for line in reversed(progress_path.read_text(encoding="utf-8").splitlines()):
        event = json.loads(line)
        if event["event"] == "final":
            return event["elapsed_s"]
    raise PassFailed(f"no final progress event in {progress_path}")


@contextlib.contextmanager
def running_server(ctx: dict, data: Path, layers_out=None):
    """A healthy ``serve-api`` process: yields ``(proc, client, setup_s)``
    and stops the server (SIGINT, then kill) on exit."""
    start = time.monotonic()
    proc = _start_server(ctx, data, layers_out)
    client = None
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://([^:/]+):(\d+)/", line)
        if match is None:
            raise PassFailed(f"server did not announce its address: {line!r}")
        client = Client(match.group(1), int(match.group(2)))
        _wait_healthy(client, deadline=min(start + 60, ctx["deadline"]))
        yield proc, client, time.monotonic() - start
    finally:
        if client is not None:
            client.close()
        _stop_server(proc)


def service_pass(ctx: dict, index: int, traced: bool) -> dict:
    data = ctx["work"] / f"svc-{index}"
    layers_out = ctx["work"] / f"svc-{index}-layers.json" if traced else None
    jobs = wl.service_jobs(ctx["seed"])
    rng = random.Random(ctx["seed"])
    with running_server(ctx, data, layers_out) as (proc, client, setup_s):
        stats = {"submit_s": [], "polls": 0, "rejected": 0, "accepted": 0, "done": []}
        latencies, bad, job_rows, lag = [], [], [], 0.0
        loop_start = time.monotonic()
        for job in jobs:
            began = time.monotonic()
            if began > ctx["deadline"]:
                bad.append(job)
                continue
            latency, rows = _run_job(client, job, stats, rng.uniform(0.0, POLL_PHASE_S))
            if latency is None:
                bad.append(job)
                continue
            latencies.append(latency)
            grid = dict(job["grid"], seeds=[0])
            if wl.check_rows(ctx["reference"], grid, rows):
                bad.append(job)
            job_rows.append(rows)
            # client-side time between receiving the rows and the next POST
            lag += time.monotonic() - began - latency
        loop_s = time.monotonic() - loop_start
        peak_rss_mb = _vm_hwm_mb(proc.pid)

    # server-side engine overhead: each job's sweep time (the elapsed_s of
    # its final progress event, written after summary.json and trace.json)
    # minus its cells; HTTP and polling stay in service.submit_s and
    # service.polls_per_job
    cell_s, overhead, cache = [], 0.0, {}
    for job_id, _, job_cache in stats["done"]:
        job_dir = data / "jobs" / job_id
        trace = json.loads((job_dir / "trace.json").read_text(encoding="utf-8"))
        times = list(wl.span_times(trace, "engine.cell").values())
        cell_s.extend(times)
        overhead += final_elapsed_s(job_dir / "progress.jsonl") - sum(times)
        for key, value in job_cache.items():
            if isinstance(value, int):  # counters; hit_rate is recomputed
                cache[key] = cache.get(key, 0) + value
    jobs_dir = data / "jobs"
    return {
        "setup_s": setup_s,
        "wall_s": loop_s,
        "latencies": latencies,
        "jobs": len(latencies),
        "attempted": len(jobs),
        "bad": bad,
        "job_rows": job_rows,
        "job_grids": [job["grid"] for job in jobs],
        "peak_rss_mb": peak_rss_mb,
        "submit_s": stats["submit_s"],
        "polls_per_job": stats["polls"] / max(1, stats["accepted"]),
        "rejected": stats["rejected"],
        "loop_lag_s": lag,
        "cache": cache,
        "cell_s_max": max(cell_s, default=0.0),
        "overhead_s": overhead,
        "artifact_bytes": sum(p.stat().st_size for p in jobs_dir.rglob("*") if p.is_file()),
        "layers": json.loads(layers_out.read_text(encoding="utf-8")) if traced else None,
    }


# ---------------------------------------------------------------------------
# runs and metrics
# ---------------------------------------------------------------------------


def run_pass(ctx: dict, index: int, traced: bool) -> dict:
    if ctx["workload"] == wl.SERVICE:
        return service_pass(ctx, index, traced)
    return sweep_pass(ctx, index, traced)


def timed_passes(ctx: dict, seconds: float) -> list:
    """Untraced passes until the next one would end after ``seconds``; at
    least :data:`MIN_PASSES` of the sweep workloads, whose passes are few."""
    minimum = 1 if ctx["workload"] == wl.SERVICE else MIN_PASSES
    passes, start, longest = [], time.monotonic(), 0.0
    while True:
        began = time.monotonic()
        passes.append(guarded_pass(ctx, len(passes), traced=False))
        longest = max(longest, time.monotonic() - began)
        if len(passes) >= minimum and time.monotonic() - start + longest > seconds:
            return passes


def setup_probe(ctx: dict, index: int) -> float:
    """Seconds from interpreter start until ready, without the workload."""
    if ctx["workload"] == wl.SERVICE:
        with running_server(ctx, ctx["work"] / f"probe-{index}") as (_, _, setup_s):
            return setup_s
    grid = wl.sweep_grid(ctx["workload"], ctx["seed"])
    return _worker(ctx, index, grid, ["--setup-only"])["setup_s"]


def guarded_pass(ctx: dict, index: int, traced: bool) -> dict:
    try:
        return run_pass(ctx, index, traced)
    except PASS_ERRORS as exc:
        print(f"pass {index} failed: {exc}", file=sys.stderr)
        return {"error": str(exc), "attempted": ctx["ops_per_pass"]}


def tally(passes) -> tuple:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["attempted"] if "error" in p else len(p["bad"]) for p in passes)
    return attempted, failed


def end_to_end_metrics(ok: list, setup_samples: list) -> dict:
    latencies = [x for p in ok for x in p["latencies"]]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "sweep_s": (statistics.median(p["wall_s"] for p in ok), "s"),
        "job_s.p50": (statistics.median(latencies), "s"),
        "job_s.p90": (tail_latency(latencies), "s"),
        "jobs_per_s": (statistics.median(p["jobs"] / p["wall_s"] for p in ok), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in ok), "MB"),
    }


#: per-layer self-time metrics and the layer (see layers.py) each reads
BUSY_METRICS = {
    "local.busy_s": "local",
    "fm.busy_s": "fm",
    "lifts.unfold.busy_s": "lifts.unfold",
    "lifts.mix.busy_s": "lifts.mix",
    "ball.busy_s": "ball",
    "iso.busy_s": "iso",
    "walk.busy_s": "walk",
    "adversary.self_s": "adversary",
    "sim.ec_po.busy_s": "sim.ec_po",
    "sim.po_oi.busy_s": "sim.po_oi",
    "sim.oi_id.busy_s": "sim.oi_id",
    "order.busy_s": "order",
    "cover.busy_s": "cover",
}

#: exact work counters reported as metrics (every counter is checked)
COUNT_METRICS = (
    "local.calls", "local.rounds", "local.messages",
    "fm.calls", "fm.edges",
    "lifts.calls", "lifts.nodes_out",
    "ball.calls", "ball.nodes",
    "iso.calls",
    "checked_run.calls",
    "order.compare_calls",
)


def per_layer_metrics(plain: dict, traced: list, attempted: int, failed: int) -> dict:
    """Layer clocks (mean of the traced passes), exact counters, and the
    engine/cache/service figures of the untraced pass."""
    metrics = {
        name: (statistics.mean(t["layers"]["busy"].get(layer, 0.0) for t in traced), "s")
        for name, layer in BUSY_METRICS.items()
    }
    counts = traced[0]["layers"]["counts"]
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNT_METRICS})
    checked = counts.get("checked_run.calls", 0)
    simulated = counts.get("checked_run.simulations", 0)
    cache = plain["cache"]
    lookups = cache.get("lookups", 0)
    submit = plain.get("submit_s")
    metrics.update({
        "checked_run.memo_ratio": (1.0 - simulated / checked if checked else 0.0, "ratio"),
        "engine.cell_s.max": (plain["cell_s_max"], "s"),
        "engine.overhead_s": (plain["overhead_s"], "s"),
        "engine.artifact_bytes": (plain.get("artifact_bytes", 0), "bytes"),
        "cache.lookups": (lookups, "count"),
        "cache.hit_ratio": (cache.get("hits", 0) / lookups if lookups else 0.0, "ratio"),
        "cache.disk_hits": (cache.get("disk_hits", 0), "count"),
        "cache.shared_hits": (cache.get("shared_hits", 0), "count"),
        "cache.plan_hits": (cache.get("plan_hits", 0), "count"),
        "service.submit_s.p50": (statistics.median(submit) if submit else 0.0, "s"),
        "service.polls_per_job": (plain.get("polls_per_job", 0.0), "count"),
        "service.rejected": (plain.get("rejected", 0), "count"),
        "service.loop_lag_s": (plain.get("loop_lag_s", 0.0), "s"),
        "trace.overhead_s": (statistics.mean(t["wall_s"] for t in traced) - plain["wall_s"], "s"),
        "failed_frac": (failed / attempted if attempted else 0.0, "ratio"),
    })
    return metrics


def counter_mismatches(traced: list) -> list:
    """Work counters on which the traced passes disagree."""
    first = traced[0]["layers"]["counts"]
    names = sorted({k for t in traced for k in t["layers"]["counts"]})
    return [n for n in names if any(t["layers"]["counts"].get(n) != first.get(n) for t in traced)]


def workload_checks(ctx: dict, passes: list) -> list:
    """Whole-workload reference checks; returns the problems found."""
    problems = []
    expected = ctx["reference"]["workloads"].get(ctx["workload"])
    for p in passes:
        if "error" in p or expected is None:
            continue
        if wl.rows_checksum(p["rows"]) != expected["rows_sha256"]:
            problems.append("rows checksum differs from the reference")
        if wl.status_counts(p["rows"]) != expected["status_counts"]:
            problems.append(f"status counts {wl.status_counts(p['rows'])} != {expected['status_counts']}")
    return problems


def service_inline_identity(ctx: dict, plain: dict) -> list:
    """Job rows must be byte-identical to an inline sweep of the same cells."""
    deltas = sorted({d for grid in plain["job_grids"] for d in grid["deltas"]})
    union = {"algorithms": ["greedy", "proposal"], "deltas": deltas, "chains": ["ec"], "seeds": [0]}
    inline = sweep_pass(ctx, 99, traced=False, grid=union)
    by_key = {row["key"]: wl.row_bytes(row) for row in inline["rows"]}
    return [
        row["key"]
        for rows in plain["job_rows"]
        for row in rows
        if by_key.get(row["key"]) != wl.row_bytes(row)
    ]


def layer_report(metrics: dict) -> str:
    """The layers ranked by self time, for checking a workload's reason."""
    ranked = sorted(BUSY_METRICS, key=lambda name: -metrics[name][0])
    return "layer self time: " + ", ".join(f"{n}={metrics[n][0]:.3f}s" for n in ranked)


def timed_run(ctx: dict, seconds: float) -> tuple:
    """Untraced passes for about ``seconds``, then bare start-ups until
    set-up has been timed :data:`SETUP_SAMPLES` times."""
    passes = timed_passes(ctx, seconds)
    ok = [p for p in passes if "error" not in p]
    if not ok:
        return passes, {}, ["no pass completed"]
    setup_samples = [p["setup_s"] for p in ok]
    try:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_probe(ctx, 100 + len(setup_samples)))
    except PASS_ERRORS as exc:
        return passes, {}, [f"set-up probe failed: {exc}"]
    return passes, end_to_end_metrics(ok, setup_samples), []


def traced_run(ctx: dict) -> tuple:
    """One untraced and two traced passes: the per-layer metrics, the
    exact-counter check and, on the service, the inline identity check."""
    plain = guarded_pass(ctx, 0, traced=False)
    traced = [guarded_pass(ctx, index, traced=True) for index in (1, 2)]
    passes = [plain, *traced]
    if any("error" in p for p in passes):
        return passes, {}, ["a pass of the traced run failed"]
    problems = []
    mismatched = counter_mismatches(traced)
    if mismatched:
        problems.append(f"work counters differ between traced passes: {mismatched}")
    if ctx["workload"] == wl.SERVICE:
        differing = service_inline_identity(ctx, plain)
        if differing:
            problems.append(f"job rows differ from the inline sweep: {differing[:5]}")
    attempted, failed = tally(passes)
    metrics = per_layer_metrics(plain, traced, attempted, failed)
    print(layer_report(metrics))
    return passes, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    if not wl.REFERENCE.is_file():
        print(f"perfbench: missing {wl.REFERENCE}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    if args.workload == wl.SERVICE:
        ops = wl.SERVICE_JOBS
    else:
        ops = len(wl.grid_cells(wl.sweep_grid(args.workload, args.seed)))
    ctx = {
        "workload": args.workload,
        "seed": args.seed,
        "root": root,
        "work": work,
        "env": child_env(root),
        "reference": wl.load_reference(),
        "ops_per_pass": ops,
        "deadline": time.monotonic() + RUN_DEADLINE_S,
    }
    try:
        if args.trace:
            passes, metrics, problems = traced_run(ctx)
        else:
            passes, metrics, problems = timed_run(ctx, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    if args.workload != wl.SERVICE:
        problems += workload_checks(ctx, passes)
    attempted, failed = tally(passes)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    for index, p in enumerate(passes):
        if "error" not in p:
            print(f"pass {index}: setup_s={p['setup_s']:.4f} sweep_s={p['wall_s']:.4f} jobs={p['jobs']}")
    print(f"passes={len(passes)} attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
