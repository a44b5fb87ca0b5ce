"""The repo's benchmark: simulator, serving path and verifiers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures_cold --seed 1 --seconds 10
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each workload starts its processes under test through ``launch.py``,
measures a fixed amount of work (or a fixed time of closed-loop load),
checks every output, and prints its metrics by name with their unit.
The last line of standard output is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

#: set-ups per run; ``setup_s`` is their median.  Fixed-work set-up is
#: a fraction of a second, the cluster's (boot and cache prefill) about
#: 2 s.
FIXED_SETUPS = 15
CLUSTER_SETUPS = 7

#: closed-loop clients (at most ``nproc`` of the reference machine)
CLIENTS = 2

#: cluster_mixed: never-seen specs and small sweeps per block of 25
#: requests (12 % and 4 %).  An assumed split, not one taken from
#: recorded traffic; each run prints the share of request time it gives
#: each kind.
CLUSTER_MISSES = 3
CLUSTER_SWEEPS = 1

#: served specs re-executed in-process after the timed phase
RECHECK_HITS = 3
RECHECK_MISSES = 3

#: seconds to wait for a server's boot line
BOOT_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "engine.events": "count", "engine.self_s": "s",
    "engine.events_per_s": "1/s",
    "network.messages": "count", "network.bytes": "B",
    "network.contention_cycles": "cycles", "network.post_calls": "count",
    "network.self_s": "s",
    "memsys.calls": "count", "memsys.self_s": "s",
    "protocols.handler_calls": "count", "protocols.self_s": "s",
    "classify.misses": "count", "classify.updates": "count",
    "classify.self_s": "s",
    "runtime.instructions": "count", "runtime.sim_cycles": "cycles",
    "runtime.self_s": "s",
    "campaign.executed": "count", "campaign.cache_hits": "count",
    "campaign.dedupe_ratio": "ratio", "campaign.key_s": "s",
    "campaign.cache_get_s": "s", "campaign.cache_put_s": "s",
    "service.parse_s": "s", "service.validate_s": "s",
    "service.serialize_s": "s", "service.cache_hit_ratio": "ratio",
    "service.queue_wait_s": "s", "service.simulate_s": "s",
    "service.singleflight_joins": "count", "service.rejected": "count",
    "cluster.route_s": "s", "cluster.ring_s": "s", "cluster.plan_s": "s",
    "cluster.retries": "count", "cluster.misrouted": "count",
    "modelcheck.states": "count", "modelcheck.schedules": "count",
    "modelcheck.pruned_ratio": "ratio",
    "modelcheck.canonical_key_s": "s", "modelcheck.snapshot_s": "s",
    "modelcheck.invariants_s": "s",
    "staticcheck.graph_states": "count", "staticcheck.graph_s": "s",
}


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------

class Run:
    """Scratch space, seed and settings of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(WORK, f"run-{os.getpid()}-{workload}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.checks = []              # (name, ok, detail)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def env(self, trace_dir=None) -> dict:
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        return env


def _load_expected() -> dict:
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# ----------------------------------------------------------------------
# process helpers (Linux /proc)
# ----------------------------------------------------------------------

def _children_map() -> dict:
    kids = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        kids.setdefault(int(fields[1]), []).append(int(entry))
    return kids


def process_tree(pid: int) -> list:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, ()))
    return out


def tree_cpu_s(pids) -> float:
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])     # utime + stime
    return total / tick


def tree_peak_rss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def stop(proc: subprocess.Popen, timeout: float = 60.0) -> None:
    """SIGTERM (servers drain and exit 0), then kill whatever is left
    of the process's session."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def read_boot_line(proc: subprocess.Popen) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], BOOT_TIMEOUT_S)
    if not ready:
        raise RuntimeError("server printed no boot line in time")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"server exited during boot (rc={proc.poll()})")
    return json.loads(line)


# ----------------------------------------------------------------------
# fixed-work workloads: figures_cold and verify
# ----------------------------------------------------------------------

def _child(run: Run, role: str, out: str, extra, trace_dir=None) -> dict:
    cmd = [sys.executable, LAUNCH, role, "--seed", str(run.seed),
           "--out", out] + list(extra)
    with open(run.path(f"{role}.log"), "a", encoding="utf-8") as log:
        rc = subprocess.run(cmd, cwd=ROOT, env=run.env(trace_dir),
                            stdout=log, stderr=log, timeout=170).returncode
    if rc != 0:
        with open(run.path(f"{role}.log"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"launch.py {role} exited {rc}:\n{tail}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _setup_s(run: Run, role: str, k: int, extra) -> float:
    """One set-up, from spawn to the first timed op, at the reference
    host speed (calibrated here before the spawn and after the exit)."""
    cal = hostclock.calibrate()
    t_spawn = time.monotonic()
    res = _child(run, role, run.path(f"setup{k}.json"),
                 list(extra) + ["--setup-only"])
    return ((res["t_ready"] - t_spawn)
            * hostclock.factor(cal, hostclock.calibrate()))


def fixed_work(run: Run, role: str) -> dict:
    def cache(name):
        # every timed child fills a cache of its own from empty
        return ["--cache", run.path(name)] if role == "figures" else []
    timed = ["--seconds", str(run.seconds)]
    setups = [_setup_s(run, role, k, cache("cache-setup"))
              for k in range(FIXED_SETUPS)]
    untraced_s_per_op = None
    if run.trace:
        # the same work untraced, back to back with the traced run, for
        # the tracing overhead
        base = _child(run, role, run.path("untraced.json"),
                      cache("cache-untraced") + timed)
        untraced_s_per_op = base["scaled_wall_s"] / base["ops"]
    trace_dir = run.path("trace") if run.trace else None
    res = _child(run, role, run.path("result.json"),
                 cache("cache") + timed, trace_dir)
    ops = res["ops"]
    measured = {
        "setup_samples": setups, "elapsed_s": res["scaled_wall_s"],
        "raw_elapsed_s": res["wall_s"],
        "calibrations": res["calibrations"],
        "untraced_s_per_op": untraced_s_per_op,
        "ops": ops, "cpu_s": res["scaled_cpu_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "latencies_s": res["latencies_s"], "trace_dir": trace_dir,
        "units": len(res["units"]), "free": {}}
    expected = _load_expected().get(run.workload, {})
    if role == "figures":
        measured.update(_check_figures(run, res["units"], expected))
    else:
        measured.update(_check_verify(run, res["units"], expected))
    return measured


def _check_figures(run: Run, units, expected) -> dict:
    failed = 0
    want = expected.get("digests", {})
    for n, unit in enumerate(units):
        bad = sorted(pos for pos, digest in unit["digests"].items()
                     if want.get(pos) != digest)
        bad += sorted(set(want) - set(unit["digests"]))
        failed += len(bad) + unit["failed"]
        run.check(f"unit {n}: every simulated statistic matches the "
                  f"recorded digests ({len(want)} positions)",
                  not bad and unit["failed"] == 0,
                  f"{len(bad)} differ, e.g. {bad[:3]}" if bad else "")
        run.check(f"unit {n}: deterministic counts match the record",
                  unit["counts"] == expected.get("counts"),
                  json.dumps(unit["counts"]))
    return {"failed": failed, "fingerprint": units[0]["counts"],
            "positions": sum(u["counts"]["positions"] for u in units),
            "record": {"digests": units[0]["digests"],
                       "counts": units[0]["counts"]}}


def _check_verify(run: Run, units, expected) -> dict:
    failed = 0
    want = expected.get("results", {})
    for n, unit in enumerate(units):
        counts = {op: {k: v for k, v in r.items() if k != "ok"}
                  for op, r in unit["results"].items()}
        bad = sorted(op for op, r in unit["results"].items()
                     if not r["ok"] or counts[op] != want.get(op))
        failed += len(bad)
        run.check(f"unit {n}: zero violations, every exploration "
                  f"complete, state and schedule counts as recorded",
                  not bad and len(counts) == len(want),
                  f"differ: {bad}" if bad else "")
    first = {op: {k: v for k, v in r.items() if k != "ok"}
             for op, r in units[0]["results"].items()}
    fingerprint = {
        "explorations": len(first),
        "states": sum(r["states"] for r in first.values()),
        "schedules": sum(r.get("schedules", 0) for r in first.values())}
    return {"failed": failed, "fingerprint": fingerprint,
            "positions": 0, "record": {"results": first}}


# ----------------------------------------------------------------------
# the served workload: cluster_mixed
# ----------------------------------------------------------------------

def cluster_work(run: Run) -> dict:
    with hostclock.BothCPUs() as cpus:
        return _cluster_work(run, cpus)


def _cluster_work(run: Run, cpus: hostclock.BothCPUs) -> dict:
    import load

    cached = load.prefill_specs()
    setups = []
    measured = None
    untraced = None
    for k in range(CLUSTER_SETUPS):
        final = k == CLUSTER_SETUPS - 1
        # when tracing, the set-up before the traced one also takes the
        # timed load, untraced, for the tracing overhead
        twin = run.trace and k == CLUSTER_SETUPS - 2
        trace_dir = run.path("trace") if run.trace and final else None
        cmd = [sys.executable, LAUNCH, "cluster", "--shards", "3",
               "--port", "0", "--jobs", "1",
               "--cache-dir", run.path(f"cache{k}"), "--quiet"]
        cal = cpus.calibrate()
        t_spawn = time.monotonic()
        with open(run.path("cluster.log"), "a", encoding="utf-8") as log:
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=run.env(trace_dir),
                stdout=subprocess.PIPE, stderr=log, text=True,
                start_new_session=True)
        try:
            port = read_boot_line(proc)["port"]
            _prefill(run, port, len(cached), k)
            setups.append((time.monotonic() - t_spawn)
                          * hostclock.factor(cal, cpus.calibrate()))
            if final or twin:
                timed = _timed_load(run, proc, port, cached, cpus,
                                    traced=trace_dir is not None)
                if twin:
                    untraced = timed
                else:
                    measured = timed
        finally:
            stop(proc)
    measured["setup_samples"] = setups
    measured["trace_dir"] = trace_dir
    measured["failed"] += _recheck(run, measured.pop("load"))
    if untraced is not None:
        measured["failed"] += untraced["failed"]
        measured["untraced_s_per_op"] = (untraced["elapsed_s"]
                                         / untraced["ops"])
    return measured


def _prefill(run: Run, port: int, count: int, k: int) -> None:
    import load

    status, data = load.call(port, "POST", "/v1/sweep",
                             load.prefill_body())
    events = [json.loads(line) for line in data.splitlines() if line]
    done = [e for e in events if e.get("event") == "done"]
    ok = (status == 200 and done and done[-1]["ok"]
          and done[-1]["count"] == count
          and done[-1]["executed"] == count)
    if not run.check(f"set-up {k}: prefill sweep simulated all "
                     f"{count} specs", ok, f"HTTP {status}"):
        raise RuntimeError(f"prefill failed: {data[-500:]!r}")


def _timed_load(run: Run, proc, port: int, cached, cpus,
                traced: bool) -> dict:
    import load

    mix = load.RequestMix(run.seed, cached, misses=CLUSTER_MISSES,
                          sweeps=CLUSTER_SWEEPS)
    pids = process_tree(proc.pid)
    if traced:
        # the servers are idle now: start their trace window here, so
        # it covers the timed phase and not the set-up
        for pid in pids:
            os.kill(pid, signal.SIGUSR1)
        time.sleep(0.2)
    cpu0 = tree_cpu_s(pids)
    result = load.run_load(port, mix, run.seconds, cpus, clients=CLIENTS)
    pids = process_tree(proc.pid)
    cpu = tree_cpu_s(pids) - cpu0
    rss = tree_peak_rss_mb(pids)
    samples = load.scrape(port)
    for error in result.errors[:5]:
        print(f"  error: {error}", file=sys.stderr)
    run.check(("traced" if traced else "untraced") + " load: every "
              "response has status 200, the key of the request's spec "
              "and record ok, and every prefilled spec is served from "
              "the cache",
              not result.errors, f"{len(result.errors)} failed")
    hits = load.sample_total(samples, "repro_cache_lookups_total",
                             result="hit")
    lookups = load.sample_total(samples, "repro_cache_lookups_total")
    free = {
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.singleflight_joins": load.sample_total(
            samples, "repro_singleflight_dedup_total"),
        "service.rejected": load.sample_total(
            samples, "repro_admission_rejected_total"),
        "cluster.retries": load.sample_total(
            samples, "repro_router_retries_total"),
        "cluster.misrouted": load.sample_total(
            samples, "repro_misrouted_requests_total"),
        "campaign.cache_hits": hits,
        "campaign.executed": load.sample_total(
            samples, "repro_specs_total", status="executed"),
    }
    return {"elapsed_s": result.elapsed_s,
            "raw_elapsed_s": result.raw_elapsed_s,
            "calibrations": result.calibrations,
            "ops": result.attempted, "failed": len(result.errors),
            # the servers' CPU, at the run's mean scale
            "cpu_s": cpu * result.elapsed_s / result.raw_elapsed_s,
            "peak_rss_mb": rss, "latencies_s": result.latencies_s,
            "positions": result.positions, "free": free,
            "by_kind": result.by_kind,
            "latency_by_kind": result.latency_by_kind, "mix": mix,
            "load": result,
            "fingerprint": {"prefilled": len(cached),
                            "prefill_keys": _digest(sorted(
                                s.key for s in cached))}}


def _digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def _recheck(run: Run, result) -> int:
    """Re-execute a seeded sample of the served specs in-process and
    compare them with what the server returned, bit for bit."""
    import load
    from repro.campaign import (
        canonical_json, execute_spec, run_result_to_jsonable,
    )

    rng = random.Random(run.seed)
    served = sorted(result.served)
    cached_keys = {spec.key for spec in load.prefill_specs()}
    hits = [k for k in served if k in cached_keys]
    misses = [k for k in served if k not in cached_keys]
    sample = (rng.sample(hits, min(RECHECK_HITS, len(hits)))
              + rng.sample(misses, min(RECHECK_MISSES, len(misses))))
    bad = 0
    for key in sample:
        local = execute_spec(result.specs[key])
        remote = result.served[key]
        same = (local.ok and canonical_json(
                    run_result_to_jsonable(local.sim))
                == canonical_json(remote["sim"])
                and canonical_json(local.metrics)
                == canonical_json(remote["metrics"]))
        bad += not same
    run.check(f"{len(sample)} sampled served specs re-executed "
              "in-process are bit-identical", bad == 0 and sample,
              f"{bad} differ")
    return bad


# ----------------------------------------------------------------------
# per-layer metrics from the trace files
# ----------------------------------------------------------------------

def read_traces(trace_dir: str):
    acc, counts, spans = {}, {}, []
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            data = json.load(fh)
        for key, (calls, total, self_s) in data["acc"].items():
            slot = acc.setdefault(key, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += total
            slot[2] += self_s
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans.extend((data["pid"],) + tuple(s) for s in data["spans"])
    return acc, counts, spans


def _union_s(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(acc, counts, spans, free, positions) -> dict:
    def calls(name):
        return acc.get(name, [0])[0]

    def total(name):
        return acc.get(name, [0, 0.0])[1]

    def self_of(prefix):
        return sum(v[2] for k, v in acc.items()
                   if k == prefix or k.startswith(prefix + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    # queue wait: admission (run_one entered) to execution start, per
    # spec key within one gateway process
    starts = {}
    for pid, name, t0, _t1, _rid, tag in spans:
        if name == "service.run_one":
            starts.setdefault((pid, tag), t0)
    queue_wait = 0.0
    for pid, name, t0, _t1, _rid, tag in spans:
        if name == "service.execute" and (pid, tag) in starts:
            queue_wait += t0 - starts.pop((pid, tag))
    # route time: router request span minus the union of its upstream
    # calls (sweeps fan out to several shards at once)
    upstream = {}
    for pid, name, t0, t1, rid, _tag in spans:
        if name == "cluster.upstream" and rid is not None:
            upstream.setdefault((pid, rid), []).append((t0, t1))
    route = sum(t1 - t0 - _union_s(upstream.get((pid, rid), ()))
                for pid, name, t0, t1, rid, _tag in spans
                if name == "cluster.request")
    executed = calls("campaign.execute")
    hits = counts.get("campaign.cache_hits", 0)
    serving = calls("service.request") + calls("cluster.request")
    events = counts.get("engine.events", 0)
    sim_s = total("campaign.execute") + total("modelcheck.explore")
    out = {
        "engine.events": events,
        "engine.self_s": self_of("engine"),
        "engine.events_per_s": ratio(events, sim_s),
        "network.messages": counts.get("network.messages", 0),
        "network.bytes": counts.get("network.bytes", 0),
        "network.contention_cycles":
            counts.get("network.contention_cycles", 0),
        "network.post_calls": calls("network.post"),
        "network.self_s": self_of("network"),
        "memsys.calls": sum(v[0] for k, v in acc.items()
                            if k.startswith("memsys.")),
        "memsys.self_s": self_of("memsys"),
        "protocols.handler_calls": calls("protocols.handler"),
        "protocols.self_s": self_of("protocols"),
        "classify.misses": counts.get("classify.misses", 0),
        "classify.updates": counts.get("classify.updates", 0),
        "classify.self_s": self_of("classify"),
        "runtime.instructions": counts.get("runtime.instructions", 0),
        "runtime.sim_cycles": counts.get("runtime.sim_cycles", 0),
        "runtime.self_s": self_of("runtime"),
        "campaign.executed": executed,
        "campaign.cache_hits": hits,
        "campaign.dedupe_ratio": ratio(executed, positions),
        "campaign.key_s": total("campaign.key"),
        "campaign.cache_get_s": total("campaign.cache_get"),
        "campaign.cache_put_s": total("campaign.cache_put"),
        "service.parse_s": total("service.parse"),
        "service.validate_s": self_of("service.validate"),
        "service.serialize_s": self_of("service.serialize"),
        "service.cache_hit_ratio": (ratio(hits, calls("campaign.cache_get"))
                                    if serving else 0.0),
        "service.queue_wait_s": queue_wait,
        "service.simulate_s": total("service.execute"),
        "service.singleflight_joins":
            free.get("service.singleflight_joins", 0),
        "service.rejected": free.get("service.rejected", 0),
        "cluster.route_s": route,
        "cluster.ring_s": total("cluster.ring"),
        "cluster.plan_s": total("cluster.plan"),
        "cluster.retries": free.get("cluster.retries", 0),
        "cluster.misrouted": free.get("cluster.misrouted", 0),
        "modelcheck.states": counts.get("modelcheck.states", 0),
        "modelcheck.schedules": counts.get("modelcheck.schedules", 0),
        "modelcheck.pruned_ratio": ratio(
            counts.get("modelcheck.pruned", 0),
            counts.get("modelcheck.schedules", 0)),
        "modelcheck.canonical_key_s": total("modelcheck.canonical_key"),
        "modelcheck.snapshot_s": (total("modelcheck.snapshot")
                                  + total("modelcheck.restore")),
        "modelcheck.invariants_s": total("modelcheck.invariants"),
        "staticcheck.graph_states":
            counts.get("staticcheck.graph_states", 0),
        "staticcheck.graph_s": total("staticcheck.graph"),
    }
    assert set(out) == set(LAYER_UNITS)
    return out


def trace_checks(run: Run, measured, acc, counts, spans) -> None:
    """Wrapped call counts against the deterministic counts they must
    match or bound, so a bypassed wrapper fails instead of reading 0."""
    def calls(name):
        return acc.get(name, [0])[0]

    simulated = calls("campaign.execute")
    if simulated:
        for counter, count in (("network.post", "network.messages"),
                               ("protocols.handler", "network.messages"),
                               ("classify.record_miss", "classify.misses"),
                               ("runtime._dispatch",
                                "runtime.instructions")):
            run.check(f"trace: {counter} calls == {count}",
                      calls(counter) == counts.get(count, -1),
                      f"{calls(counter)} vs {counts.get(count)}")
        run.check("trace: engine.run calls == simulations",
                  calls("engine.run") == simulated,
                  f"{calls('engine.run')} vs {simulated}")
        run.check("trace: memsys calls seen",
                  any(k.startswith("memsys.") and v[0]
                      for k, v in acc.items()))
    units = measured.get("units", 1)
    if run.workload == "figures_cold":
        run.check("trace: one cache lookup per spec position",
                  calls("campaign.cache_get") == measured["positions"])
        run.check("trace: one campaign per figure",
                  calls("campaign.run") == 9 * units)
    if run.workload == "verify":
        run.check("trace: 30 explorations and 2 spec graphs per sweep",
                  calls("modelcheck.explore") == 30 * units
                  and calls("staticcheck.graph") == 2 * units)
        run.check("trace: invariants checked once per event",
                  calls("modelcheck.invariants")
                  == counts.get("engine.events", -1))
        run.check("trace: a canonical key per visited state",
                  calls("modelcheck.canonical_key")
                  >= counts.get("modelcheck.states", 1) > 0)
    if run.workload == "cluster_mixed":
        edge = "cluster.request"
        run.check("trace: window reset in every server process",
                  "trace.reset_skipped" not in counts)
        # the timed requests and the /metrics scrape
        want = measured["ops"] + 1
        tagged = sum(1 for s in spans if s[1] == edge and s[4] is not None)
        run.check(f"trace: {edge} spans == requests sent",
                  calls(edge) == want and tagged == measured["ops"],
                  f"{calls(edge)} spans ({tagged} tagged) vs {want}")
        run.check("trace: a validation per request",
                  calls("service.validate") >= measured["ops"])
        new = (measured["by_kind"].get("miss", 0)
               + measured["by_kind"].get("sweep", 0))
        run.check("trace: one simulation per never-seen spec",
                  simulated == new or measured["failed"] > 0,
                  f"{simulated} vs {new}")
        run.check("trace: ring lookups and sweep plans seen",
                  calls("cluster.ring") > 0 and calls("cluster.plan") > 0)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def cpu_ticks() -> list:
    """The host's summed CPU tick counters (user ... steal)."""
    with open("/proc/stat", encoding="utf-8") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def steal_share(before, after) -> float:
    """Share of the CPU time this VM wanted that the hypervisor gave to
    others: a noisy neighbour shows here, and it slowed the served
    workloads by 3-4 % per 1 % stolen on the reference machine."""
    user, nice, system, _idle, _iowait, irq, softirq, steal = (
        b - a for a, b in zip(before, after))
    wanted = user + nice + system + irq + softirq + steal
    return steal / wanted if wanted else 0.0


def metadata(run: Run, load_before, ticks_before, measured) -> dict:
    from repro.campaign import code_version

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        commit = "not a git checkout"
    return {"workload": run.workload, "seed": run.seed,
            "seconds": run.seconds, "trace": run.trace,
            "commit": commit, "code_version": code_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(),
            "loadavg_before": load_before,
            "loadavg_after": list(os.getloadavg()),
            "steal_share": steal_share(ticks_before, cpu_ticks()),
            "fingerprint": measured.get("fingerprint", {})}


def end_to_end(measured) -> dict:
    from repro.service.metrics import percentile

    lat = measured["latencies_s"]
    ops = measured["ops"]
    return {
        "setup_s": statistics.median(measured["setup_samples"]),
        "ops_per_s": ops / measured["elapsed_s"],
        "p50_ms": percentile(lat, 50) * 1000.0,
        "p99_ms": percentile(lat, 99) * 1000.0,
        "cpu_ms_per_op": measured["cpu_s"] * 1000.0 / ops,
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def _edge_by_kind(mix, spans) -> dict:
    """Router request span time summed by the kind of the request whose
    id it carries."""
    out = {}
    for _pid, name, t0, t1, rid, _tag in spans:
        if name == "cluster.request" and rid:
            kind = mix.request(int(rid)).kind
            out[kind] = out.get(kind, 0.0) + t1 - t0
    return out


def _shares(seconds_by_kind) -> str:
    total = sum(seconds_by_kind.values())
    return ", ".join(f"{kind} {value / total * 100:.1f} %"
                     for kind, value in sorted(seconds_by_kind.items()))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


WORKLOADS = {
    "figures_cold": lambda run: fixed_work(run, "figures"),
    "cluster_mixed": cluster_work,
    "verify": lambda run: fixed_work(run, "verify"),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record: bool) -> dict:
    run = Run(name, seed, seconds, trace)
    load_before = list(os.getloadavg())
    ticks_before = cpu_ticks()
    try:
        measured = WORKLOADS[name](run)
        if trace:
            acc, counts, spans = read_traces(measured["trace_dir"])
            trace_checks(run, measured, acc, counts, spans)
            if "mix" in measured:
                measured["edge_by_kind"] = _edge_by_kind(measured["mix"],
                                                         spans)
            metrics = layer_metrics(acc, counts, spans, measured["free"],
                                    measured["positions"])
            units = LAYER_UNITS
        else:
            metrics = end_to_end(measured)
            units = E2E_UNITS
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    meta = metadata(run, load_before, ticks_before, measured)
    lat = measured["latencies_s"]
    correct = all(ok for _n, ok, _d in run.checks)
    failed = max(measured["failed"], 0 if correct else 1)
    ops = measured["ops"]

    print(f"== {name}  seed={seed}  trace={int(trace)}")
    for check, ok, detail in run.checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {check}"
              + (f"  ({detail})" if detail and not ok else ""))
    print(f"  ops={ops}  failed={failed}  error_ratio="
          f"{failed / ops if ops else 1.0:.6g}  "
          f"timed={measured['elapsed_s']:.3f} s"
          + (f" at the reference host speed ({measured['raw_elapsed_s']:.3f}"
             f" s measured, {measured['calibrations']} calibrations)"
             if "raw_elapsed_s" in measured else "")
          + f"  setups={[round(s, 4) for s in measured['setup_samples']]}")
    beyond = len(lat) - max(1, math.ceil(0.99 * len(lat))) if lat else 0
    print(f"  latency samples={len(lat)}, {beyond} beyond p99"
          + ("" if beyond >= 10 else
             " (fewer than 10: a fixed-work workload's p50 and p99 are "
             "the time of its whole sweeps)"))
    if measured.get("by_kind"):
        print(f"  requests by kind: {measured['by_kind']}")
        print("  share of request time by kind (client side): "
              + _shares(measured["latency_by_kind"]))
    if measured.get("edge_by_kind"):
        print("  share of router span time by kind (server side): "
              + _shares(measured["edge_by_kind"]))
    for key, value in sorted(measured["free"].items()):
        print(f"  free count {key} = {_fmt(value)}")
    for key in units:
        print(f"  {key} = {_fmt(metrics[key])} {units[key]}")
    if measured.get("untraced_s_per_op"):
        per_op = measured["elapsed_s"] / ops
        base = measured["untraced_s_per_op"]
        print(f"  tracing overhead: {per_op * 1000:.4g} ms/op traced vs "
              f"{base * 1000:.4g} ms/op untraced, same seed, back to back "
              f"({(per_op / base - 1) * 100:+.1f} %)")
    print("  meta " + json.dumps(meta, sort_keys=True))

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "checks": run.checks,
                   "latencies_s": lat}, fh, sort_keys=True)
    if record and "record" in measured:
        expected = _load_expected()
        expected[name] = measured["record"]
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"  recorded expected outputs of {name}")
    return {"correct": correct, "attempted": ops, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


def warm_up() -> None:
    """Byte-compile and read every source file once, so set-up time
    measures imports, not a first-run compile or a cold page cache."""
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)
        for dirpath, _dirs, files in os.walk(tree):
            for fname in files:
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    fh.read()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="timed work per run (fixed-work workloads run "
                        "the whole number of units nearest to it)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--record", action="store_true",
                   help="store this run's checked outputs as the "
                        "expected ones (after a deliberate change to "
                        "simulated results)")
    args = p.parse_args(argv)

    # a terminated run still stops the servers it started (the
    # ``finally`` clauses run on SystemExit)
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    sys.path.insert(0, SRC)
    try:
        import repro.campaign  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {SRC}: "
              f"{exc}", file=sys.stderr)
        return 2
    warm_up()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), args.record)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
