"""Start one process under test, traced when ``PERFBENCH_TRACE_DIR`` is set.

Every process the benchmark measures starts here, so traced and
untraced runs have the same process structure::

    python perfbench/launch.py cluster [cluster flags]
        -> what ``python -m repro.experiments cluster`` runs
    python perfbench/launch.py serve [gateway flags]
        -> what ``python -m repro.experiments serve`` runs: the
           cluster's shards start this way
    python perfbench/launch.py figures --seed N --cache DIR --out FILE
    python perfbench/launch.py verify --seed N --out FILE
        -> the fixed-work workloads, in-process (``--setup-only``
           stops at the first timed op)

When tracing, the layer wrappers of :mod:`layers` are installed before
any repro object exists, and this process's trace is written when it
ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: figure scale of ``figures_cold`` (what ``repro-experiments all
#: --scale 0.01`` runs)
FIGURE_SCALE = 0.01


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


#: one unit's time on the reference machine (2-core Xeon VM): a run
#: does the whole number of units nearest ``--seconds``, fixed by the
#: arguments alone so that traced counts repeat from run to run
FIGURES_UNIT_S = 15.0
VERIFY_UNIT_S = 13.0


def _units(seconds: float, unit_s: float) -> int:
    return max(1, round(seconds / unit_s))


def figures_plan(seed: int):
    """All nine figures' points, in a seed-shuffled figure order."""
    from repro.config import ExperimentScale
    from repro.experiments.figures import FIGURES, figure_points

    order = list(FIGURES)
    random.Random(seed).shuffle(order)
    scale = ExperimentScale.scaled(FIGURE_SCALE)
    return [(fid, figure_points(fid, scale=scale)) for fid in order]


def figure_position_digests(fid: str, points, report) -> dict:
    """``{"<figure>#<index>": digest}`` of every record's simulated
    outcome.  Keys and code version are left out, so a change that
    keeps every simulated statistic keeps every digest."""
    from repro.campaign import (
        canonical_json, config_to_jsonable, run_result_to_jsonable,
    )

    out = {}
    for i, (point, record) in enumerate(zip(points, report.records)):
        text = canonical_json({
            "label": point.label, "x": point.x,
            "workload": point.spec.workload,
            "config": config_to_jsonable(point.spec.config),
            "params": point.spec.params_dict,
            "ok": record.ok, "metrics": record.metrics,
            "sim": (run_result_to_jsonable(record.sim)
                    if record.sim is not None else None)})
        out[f"{fid}#{i}"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


def _add_counts(counts: dict, points, report) -> None:
    """Deterministic tallies of one figure's campaign; simulation
    statistics count each executed spec once."""
    counts["positions"] += len(points)
    counts["executed"] += report.executed
    counts["cached"] += report.cached
    executed = {rec.key: rec.sim for rec in report.records
                if rec.ok and not rec.cached}
    for sim in executed.values():
        counts["events"] += sim.events
        counts["messages"] += sim.network.messages
        counts["misses"] += sim.misses.get("total", 0)
        counts["updates"] += sim.updates.get("total", 0)
        counts["instructions"] += sum(sim.proc_instructions)


def run_figures(args) -> dict:
    """Whole cold sweeps, each into a fresh cache, for about
    ``--seconds`` of timed work (at least one)."""
    from repro.campaign import CampaignRunner, ResultCache

    plan = figures_plan(args.seed)
    runner = CampaignRunner(
        jobs=1, cache=ResultCache(os.path.join(args.cache, "unit0")))
    t_ready = time.monotonic()
    if args.setup_only:
        return {"t_ready": t_ready}
    clock = _clock()
    units, sweeps_s = [], []
    for n in range(_units(args.seconds, FIGURES_UNIT_S)):
        if n:
            runner = CampaignRunner(jobs=1, cache=ResultCache(
                os.path.join(args.cache, f"unit{n}")))
        # fold each figure into digests and counts before the next one
        # runs, so no figure's records outlive it
        unit = {"digests": {}, "failed": 0, "counts": dict.fromkeys(
            ("positions", "executed", "cached", "events", "messages",
             "misses", "updates", "instructions"), 0)}
        sweep0 = clock.scaled_wall_s
        for fid, points in plan:
            clock.resume()
            report = runner.run([pt.spec for pt in points])
            # the checks are not the program's work: leave them out of
            # the timed window and the CPU time
            clock.pause()
            unit["digests"].update(
                figure_position_digests(fid, points, report))
            unit["failed"] += report.failed
            _add_counts(unit["counts"], points, report)
        sweeps_s.append(clock.scaled_wall_s - sweep0)
        units.append(unit)
    return _timing(clock, t_ready, sweeps_s,
                   sum(unit["counts"]["positions"] for unit in units),
                   units)


def _clock():
    """The timed work's clock; a traced run calibrates only between
    figures or verification ops, so no calibration counts in a layer's
    time."""
    from hostclock import SEGMENT_S, HostClock

    traced = bool(os.environ.get("PERFBENCH_TRACE_DIR"))
    return HostClock(segment_s=None if traced else SEGMENT_S)


def _timing(clock, t_ready, sweeps_s, ops, units) -> dict:
    return {"t_ready": t_ready, "wall_s": clock.wall_s,
            "cpu_s": clock.cpu_s, "scaled_wall_s": clock.scaled_wall_s,
            "scaled_cpu_s": clock.scaled_cpu_s,
            "calibrations": len(clock.calibrations),
            "peak_rss_mb": _peak_rss_mb(), "ops": ops,
            "latencies_s": sweeps_s, "units": units}


def verify_plan(seed: int):
    """Every litmus program x protocol, plus the WI and MESI spec
    graphs, in a seed-shuffled order."""
    from repro.modelcheck import MODEL_CHECK_PROTOCOLS, PROGRAMS

    ops = [("explore", name, proto.value)
           for name in PROGRAMS for proto in MODEL_CHECK_PROTOCOLS]
    ops += [("graph", None, "wi"), ("graph", None, "mesi")]
    random.Random(seed).shuffle(ops)
    return ops


def run_verify(args) -> dict:
    """Whole verification sweeps for about ``--seconds`` of timed work
    (at least one)."""
    from repro.config import Protocol
    from repro.modelcheck import explore, get_program
    from repro.staticcheck.graph import check_spec_graph

    plan = verify_plan(args.seed)
    t_ready = time.monotonic()
    if args.setup_only:
        return {"t_ready": t_ready}
    clock = _clock()
    units, sweeps_s = [], []
    for _ in range(_units(args.seconds, VERIFY_UNIT_S)):
        sweep0 = clock.scaled_wall_s
        results = {}
        for kind, name, proto in plan:
            # a calibration at every op boundary as well, so that a
            # traced run, which has no timer, still scales op by op
            clock.resume()
            if kind == "explore":
                res = explore(get_program(name), protocol=Protocol(proto))
                results[f"{name}[{proto}]"] = {
                    "states": res.states, "schedules": res.schedules,
                    "events": res.events, "pruned": res.dedup_hits,
                    "ok": res.violation is None and res.complete}
            else:
                findings, summary = check_spec_graph(proto)
                results[f"graph[{proto}]"] = {
                    "states": sum(run["states"]
                                  for run in summary["runs"]),
                    "ok": (not any(f.severity == "error"
                                   for f in findings)
                           and not any(run["truncated"]
                                       for run in summary["runs"]))}
            clock.pause()
        sweeps_s.append(clock.scaled_wall_s - sweep0)
        units.append({"results": results})
    return _timing(clock, t_ready, sweeps_s, len(plan) * len(units),
                   units)


def _launch_shards_here(supervisor) -> None:
    """Make the supervisor start its shards through this launcher, so
    they are wrapped like every other process under test.  Only the
    interpreter entry changes; the gateway flags stay the supervisor's."""
    spawn = supervisor.spawn_shards

    def spawn_shards(args):
        real_popen = subprocess.Popen

        def popen(cmd, **kw):
            if list(cmd[1:4]) != ["-m", "repro.experiments", "serve"]:
                raise RuntimeError(f"unexpected shard command {cmd!r}")
            return real_popen([cmd[0], os.path.abspath(__file__),
                               "serve"] + list(cmd[4:]), **kw)
        subprocess.Popen = popen
        try:
            return spawn(args)
        finally:
            subprocess.Popen = real_popen
    supervisor.spawn_shards = spawn_shards


def main(argv) -> int:
    role, rest = argv[0], argv[1:]
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    tracer = None
    if trace_dir:
        import layers
        tracer = layers.install(role, trace_dir)
    try:
        if role in ("serve", "cluster"):
            # exactly what ``python -m repro.experiments <role>`` runs
            from repro.experiments.cli import main as cli_main
            if role == "cluster":
                import repro.cluster.supervisor as supervisor
                _launch_shards_here(supervisor)
            return cli_main([role] + rest)
        if role in ("figures", "verify"):
            p = argparse.ArgumentParser(prog=f"launch.py {role}")
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--out", required=True)
            p.add_argument("--cache")
            p.add_argument("--seconds", type=float, default=0.0)
            p.add_argument("--setup-only", action="store_true")
            args = p.parse_args(rest)
            run = run_figures if role == "figures" else run_verify
            _write(args.out, run(args))
            return 0
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
