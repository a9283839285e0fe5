"""The repo benchmark: one command, three workloads, two clocks.

Run from the repository root::

    python3 perfbench/run.py --workload open-steady --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run that reports the per-layer metrics (and what
the tracing cost).  Metric names, units and bounds are the ones listed in
``BENCHMARK.json``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each metric means and which end-to-end
metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# one thread does all the work: a BLAS pool would add threads (and their
# spin-waits to the CPU-time host clock, see ``workloads.host_clock``)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: share of ``--seconds`` a traced run spends on its untraced reference pass
UNTRACED_SHARE = 1 / 3
#: host seconds between two speed probes during the measured rounds
PROBE_EVERY_S = 0.25
#: the speed probe's typical time on the 2-vCPU host the bounds were set
#: on; host-clock metrics are reported at this reference speed
REF_PROBE_S = 0.012


class InputDigestError(RuntimeError):
    """The program's input generator no longer produces the recorded
    inputs, so results are not comparable with earlier runs."""


def _pct(values, q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


#: samples the tail percentile must leave above it
TAIL_BEYOND = 10


def _tail(values) -> float:
    """Mean of the samples at or above the highest percentile the sample
    supports (the largest one with :data:`TAIL_BEYOND` samples above it),
    i.e. of the ``TAIL_BEYOND + 1`` slowest samples."""
    ordered = sorted(values)[-(TAIL_BEYOND + 1):]
    return sum(ordered) / len(ordered) if ordered else 0.0


def _rss_kb() -> float:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1024
    except (OSError, ValueError, IndexError):
        return 0.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def check_reference_digest(cls, scale, recorded: dict) -> str:
    """Digest the reference seed's first-round inputs and compare it with
    the recorded one; raises :class:`InputDigestError` on a difference."""
    w = cls(recorded["reference_seed"], scale)
    got = w.inputs_digest(0).hex()
    want = recorded["inputs"].get(f"{cls.name}/{scale.name}", "none")
    if got != want:
        raise InputDigestError(
            f"{cls.name}: reference-seed input digest {got[:16]} differs from "
            f"the recorded {want[:16]}; the input generator changed"
        )
    return got


def speed_probe() -> float:
    """Host seconds of a fixed piece of interpreter and NumPy work that
    shares no code with the program — a reading of how fast this host
    runs right now, on the host clock the metrics use."""
    from workloads import host_clock

    t0 = host_clock()
    table: dict = {}
    acc = 0
    for i in range(30000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += i % 7
    a = np.arange(4096, dtype=np.float32)
    for _ in range(200):
        np.cumsum(a)
    return host_clock() - t0


def run_rounds(w, state, seconds: float, min_rounds: int, max_rounds=None,
               rounds=None, probes=None):
    """Serve rounds (appending to ``rounds``) until ``seconds`` have
    passed and at least ``min_rounds`` ran, stopping only at a multiple of
    the workload's ``round_block`` (or exactly at ``max_rounds``).  With a
    ``probes`` list, a :func:`speed_probe` runs between rounds every
    :data:`PROBE_EVERY_S`."""
    block = getattr(w, "round_block", 1)
    rounds = [] if rounds is None else rounds
    t0 = last_probe = time.perf_counter()
    while True:
        r = len(rounds)
        if max_rounds is not None and r >= max_rounds:
            break
        if r >= min_rounds and r % block == 0 and time.perf_counter() - t0 >= seconds:
            break
        rounds.append(w.run_round(state, r))
        if probes is not None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = time.perf_counter()
    return rounds


def e2e_metrics(rounds, setups, sim_k: int, sessions, setup_slowdown=1.0) -> dict:
    """End-to-end metrics.  Simulated ones come from the first ``sim_k``
    rounds; each host-clock one is the median over ``sessions`` — the
    ``(start, end, slowdown)`` round ranges that each served a fresh
    set-up — of its value in that session; every round counts for
    correctness.  Host times are divided by the slowdown of their phase
    (``setup_slowdown`` for set-ups, the session's for its rounds): the
    median speed-probe time of that phase over :data:`REF_PROBE_S`, so
    they are given at the reference host speed."""
    sim = rounds[:sim_k]
    lat = [x for r in sim for x in r.sim_lat_ns]
    span = sum(r.sim_span_ns for r in sim)
    ops = sum(r.ops for r in rounds)
    sim_ops = sum(r.ops for r in sim)
    per_session = []
    for start, end, slowdown in sessions:
        host = rounds[start:end]
        calls = [c / slowdown for r in host for c in r.call_s]
        per_session.append((
            # median over rounds: a burst of contention on the shared host
            # moves a few rounds, not the figure
            statistics.median(r.ops / r.host_s for r in host) * slowdown,
            _pct(calls, 0.50) * 1e3,
            _pct(calls, 0.95) * 1e3,
        ))
    # and over sessions: a slow phase of the host moves one session
    host_ops, p50, p95 = (statistics.median(v) for v in zip(*per_session))
    return {
        "setup_s": statistics.median(setups) / setup_slowdown,
        "host_ops_per_s": host_ops,
        "host_flush_ms_p50": p50,
        "host_flush_ms_p95": p95,
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_p50_us": _pct(lat, 0.50) / 1e3,
        "sim_tail_us": _tail(lat) / 1e3,
        "sim_goodput_rps": sum(r.good for r in sim) / span * 1e9,
        "sim_throughput_rps": sum(r.served for r in sim) / span * 1e9,
        "slo_met_ratio": 1.0 - sum(r.slo_missed for r in sim) / sim_ops,
        "sim_gbps": sum(r.io_bytes for r in sim) / sum(r.device_ns for r in sim),
        "oracle_ok_ratio": 1.0 - sum(r.errors for r in rounds) / ops,
    }


def _records(svc, marks):
    return [rec for w, m in zip(svc.workers, marks) for rec in w.stats.launches[m:]]


def layer_metrics(state, marks0, rounds, untraced, tracer) -> dict:
    """Per-layer metrics of one traced pass (see README.md)."""
    import workloads

    def per(names, field_, phase="run", scale=1e6):
        calls = tot = 0.0
        for n in names:
            c, total, self_s = tracer.stat(n, phase)
            calls += c
            tot += total if field_ == "total" else self_s
        return tot / calls * scale if calls else 0.0

    ops = sum(r.ops for r in rounds)
    svc = state.get("svc")
    recs = _records(svc, marks0["launches"]) if svc is not None else []
    launches = len(recs)
    requests = sum(rec.requests for rec in recs)
    m = {}
    _, _, run_self = tracer.stat("shard:TrafficScheduler.run")
    _, _, rt_self = tracer.stat("shard:run_traffic")
    m["shard.offer_us"] = per(["shard:TrafficScheduler.offer"], "self")
    m["shard.run_self_us_per_arrival"] = (run_self + rt_self) / ops * 1e6
    m["shard.flush_self_us"] = per(["shard:PoolScanService.flush"], "self")
    m["shard.submit_us"] = per(
        ["shard:PoolScanService.submit", "shard:PoolScanService.submit_graph"], "total"
    )
    m["shard.rows_per_launch"] = requests / launches if launches else 0.0
    m["shard.batched_fraction"] = (
        sum(rec.requests for rec in recs if rec.kind == "batched") / requests
        if requests else 0.0
    )
    m["shard.launches"] = launches
    m["shard.shed"] = state.get("shed", 0)
    if svc is not None:
        busy = sum(svc.busy_ns) - marks0["busy"]
        span = svc.span_ns - marks0["span"]
        m["shard.member_busy_ratio"] = busy / (len(svc.workers) * span) if span else 0.0
    else:
        m["shard.member_busy_ratio"] = 0.0

    m["serve.member_flush_self_us"] = per(["serve:ScanService.flush"], "self")
    m["serve.drain_us"] = per(["serve:RequestBatcher.drain"], "total")
    numerics = sum(
        tracer.stat(n)[2] for n in ("serve:group_scan_values", "serve:assemble_rows")
    )
    m["serve.numerics_us_per_launch"] = numerics / launches * 1e6 if launches else 0.0
    stats_s = sum(
        self_s for name in tracer.names if name.startswith("serve:ServiceStats.")
        for self_s in [tracer.stat(name)[2]]
    )
    m["serve.stats_us_per_op"] = stats_s / ops * 1e6
    m["serve.plan_get_us"] = per(
        ["serve:PlanCache.get_1d", "serve:PlanCache.get_batched"], "total"
    )
    m["serve.plan_hit_ratio"] = (
        sum(rec.plan_hit for rec in recs) / launches if launches else 0.0
    )
    m["serve.plan_builds"] = sum(
        tracer.stat(n)[0]
        for n in ("core:ScanContext.build_plan", "core:ScanContext.build_batched_plan")
    )
    m["serve.timeline_hit_ratio"] = (
        sum(rec.timeline_hit for rec in recs) / launches if launches else 0.0
    )

    m["core.replay_timing_us"] = per(["core:ScanPlan.replay_timing"], "total")
    m["core.time_ns_us"] = per(["core:ScanPlan.time_ns"], "total")
    m["core.build_plan_ms"] = per(
        ["core:ScanContext.build_plan", "core:ScanContext.build_batched_plan"],
        "total", phase=None, scale=1e3,
    )
    m["core.scan_self_ms"] = per(
        ["core:ScanContext.scan", "core:ScanContext.batched_scan"], "self", scale=1e3
    )

    m["hw.trace_kernel_ms"] = per(["hw:AscendDevice.trace_kernel"], "total", None, 1e3)
    m["hw.replay_ms"] = per(["hw:AscendDevice.replay"], "total", None, 1e3)
    hw_s = tracer.stat("hw:AscendDevice.trace_kernel", None)[1] + tracer.stat(
        "hw:AscendDevice.replay", None
    )[1]
    m["hw.sim_ops_per_host_s"] = tracer.replayed_ops / hw_s if hw_s else 0.0
    engine: dict = {}
    for r in rounds:
        for key, value in r.engine.items():
            engine[key] = engine.get(key, 0.0) + value
    m.update(workloads.engine_metrics(engine))

    kernels = {}
    for r in rounds:
        for name, rec in r.kernels.items():
            acc = kernels.setdefault(name, [0, 0.0, 0.0, 0, 0.0, 0])
            for i, v in enumerate(rec):
                acc[i] += v
    m.update(workloads.kernel_metrics(kernels))

    graph_requests = state.get("graph_requests", 0)
    m["graph.lower_ms"] = per(["graph:GraphRunner.lower[build]"], "total", None, 1e3)
    m["graph.replay_us_per_graph"] = (
        tracer.stat("graph:ScanService._serve_graph")[1] / graph_requests * 1e6
        if graph_requests else 0.0
    )
    runner = svc.workers[0].graph_runner if svc is not None else None
    if runner is not None:
        hits = runner.cache.hits - marks0["graph_hits"]
        misses = runner.cache.misses - marks0["graph_misses"]
        m["graph.plan_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    else:
        m["graph.plan_hit_ratio"] = 0.0
    m["graph.launches_per_graph"] = (
        state.get("graph_launches", 0) / graph_requests if graph_requests else 0.0
    )

    m["tune.warm_s"] = tracer.stat("tune:warm_pool", "setup")[1]
    m["tune.tuned_hit_ratio"] = (
        sum(rec.requests for rec in recs if rec.tuned) / requests if requests else 0.0
    )

    attributed, traced_s = tracer.coverage("run")
    m["trace.coverage"] = attributed / traced_s if traced_s else 0.0
    traced_host = sum(r.host_s for r in rounds)
    untraced_host = sum(r.host_s for r in untraced["rounds"])
    m["trace.overhead_ratio"] = traced_host / untraced_host
    m["mem.rss_growth_kb_per_1k_ops"] = untraced["rss_growth_kb_per_1k_ops"]
    m["error_ratio"] = sum(r.errors for r in rounds) / ops
    return m


def _marks(state) -> dict:
    svc = state.get("svc")
    if svc is None:
        return {}
    runner = svc.workers[0].graph_runner
    return {
        "launches": [len(w.stats.launches) for w in svc.workers],
        "busy": sum(svc.busy_ns),
        "span": svc.span_ns,
        "graph_hits": runner.cache.hits if runner else 0,
        "graph_misses": runner.cache.misses if runner else 0,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, scale=None, *, trace_path=None):
    """Run one workload; returns a result dict (see :func:`main`)."""
    import workloads
    from tracer import Tracer, write_chrome_trace

    scale = scale or workloads.FULL
    cls = workloads.WORKLOADS[workload]
    reference_digest = check_reference_digest(cls, scale, load_digests())
    w = cls(seed, scale)
    sim_k = w.sim_rounds
    out = {"workload": workload, "seed": seed, "trace": int(trace),
           "reference_inputs_digest": reference_digest}
    if not trace:
        # the last ``n_sessions`` set-ups each serve a session of host
        # rounds, timed at the host speed the probes read during it; the
        # last session also serves the simulated rounds and runs on until
        # ``seconds`` have passed since the first
        n_setups = min(w.setup_repeats, scale.max_setup_repeats)
        n_sessions = min(w.sessions, n_setups)
        per_session = -(-w.host_rounds // n_sessions)
        setups, setup_probes, rounds, sessions = [], [], [], []
        state = None
        t_rounds = None
        for i in range(n_setups):
            state = None
            gc.collect()
            t0 = workloads.host_clock()
            state = w.setup()
            setups.append(workloads.host_clock() - t0)
            setup_probes.append(speed_probe())
            if i < n_setups - n_sessions:
                continue
            t_rounds = t_rounds or time.perf_counter()
            start = len(rounds)
            end = min(start + per_session, w.host_rounds)
            probes = [setup_probes[-1]]
            run_rounds(w, state, 0.0, min_rounds=end, max_rounds=end,
                       rounds=rounds, probes=probes)
            sessions.append((start, end, statistics.median(probes) / REF_PROBE_S))
        run_rounds(w, state, seconds - (time.perf_counter() - t_rounds),
                   min_rounds=max(sim_k, w.host_rounds), rounds=rounds)
        setup_slowdown = statistics.median(setup_probes) / REF_PROBE_S
        metrics = e2e_metrics(rounds, setups, sim_k, sessions, setup_slowdown)
        out["setups_s"] = setups
        out["sessions"] = [(a, b) for a, b, _ in sessions]
        out["slowdown"] = (setup_slowdown, [sd for _, _, sd in sessions])
        out["raw_host"] = e2e_metrics(rounds, setups, sim_k,
                                      [(a, b, 1.0) for a, b, _ in sessions])
    else:
        state = w.setup()
        t0 = time.perf_counter()
        untraced_rounds = [w.run_round(state, 0)]
        rss0 = _rss_kb()
        run_rounds(w, state, seconds * UNTRACED_SHARE - (time.perf_counter() - t0),
                   min_rounds=1, rounds=untraced_rounds)
        later_ops = sum(r.ops for r in untraced_rounds[1:])
        growth = (_rss_kb() - rss0) / later_ops * 1e3 if later_ops else 0.0
        untraced = {"rounds": untraced_rounds, "rss_growth_kb_per_1k_ops": growth}
        state = None
        gc.collect()
        tracer = Tracer().install()
        try:
            state = w.setup()
            marks0 = _marks(state)
            w.detail = True  # paper-kernels: collect engine statistics
            tracer.phase = "run"
            rounds = run_rounds(w, state, 0.0, min_rounds=len(untraced_rounds),
                                max_rounds=len(untraced_rounds))
        finally:
            tracer.uninstall()
        metrics = layer_metrics(state, marks0, rounds, untraced, tracer)
        out["layer_self_s"] = tracer.layer_self("run")
        out["traced_s"] = tracer.coverage("run")[1]
        out["spans"] = len(tracer.spans)
        if trace_path is not None:
            sim_traces = [t for r in rounds[:1] for t in r.traces]
            out["trace_events"] = write_chrome_trace(trace_path, tracer, sim_traces)
            out["trace_path"] = str(trace_path)
    # a traced run checks the outputs of both of its passes
    checked = rounds + (untraced["rounds"] if trace else [])
    errors = sum(r.errors for r in checked)
    known = sum(r.known for r in checked)
    out.update(
        correct=errors == known,
        attempted=sum(r.ops for r in checked),
        failed=errors,
        known_defect_failures=known,
        rounds=len(rounds),
        sim_rounds=min(sim_k, len(rounds)),
        host_rounds=min(w.host_rounds, len(rounds)),
        sim_samples=sum(len(r.sim_lat_ns) for r in rounds[:sim_k]),
        metrics=metrics,
        notes=[n for r in checked for n in r.notes],
        inputs_digest=_combine(r.inputs_digest for r in rounds[:sim_k]),
        sim_digest=_combine(r.sim_digest for r in rounds[:sim_k]),
    )
    return out


def _combine(digests) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update(d)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # measure the checkout's own program, never an installed copy
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 3
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import provenance

    spec = load_spec()
    trace_path = None
    if args.trace:
        # one file per workload: the latest traced run's spans
        trace_path = HERE / "out" / f"trace-{args.workload}.json"
        trace_path.parent.mkdir(exist_ok=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      trace_path=trace_path)
    except InputDigestError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    try:
        line = result_line(res, spec)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 5
    prov = provenance.stamp(ROOT, seed=args.seed)
    report(res, prov, line["metrics"])
    provenance.append_trajectory(
        HERE / "trajectory.jsonl",
        {
            "provenance": prov,
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "inputs_digest": res["inputs_digest"],
            "sim_digest": res["sim_digest"],
            "host_slowdown": res.get("slowdown"),
            "host_as_measured": res.get("raw_host"),
            "metrics": {k: v["value"] for k, v in line["metrics"].items()},
        },
    )
    print(json.dumps(line))
    return 0


def result_line(res: dict, spec: dict) -> dict:
    """The JSON result: every metric ``BENCHMARK.json`` lists for this
    mode (end-to-end untraced, per-layer traced), with its unit."""
    names = spec["per_layer"] if res["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    differ = set(units) ^ set(res["metrics"])
    if differ:
        raise ValueError(f"metric set differs from BENCHMARK.json: {sorted(differ)}")
    return {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {
            name: {"value": float(res["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def report(res: dict, prov: dict, metrics: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"perfbench {res['workload']} seed={res['seed']} "
          f"{'traced' if res['trace'] else 'untraced'} run")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    if res["trace"]:
        print(f"rounds: {res['rounds']} untraced, then the same {res['rounds']} traced")
    else:
        sessions = res["sessions"]
        print(f"rounds: {res['rounds']} (host-clock metrics from the first "
              f"{res['host_rounds']}, the median over {len(sessions)} session(s) "
              f"of fresh set-up: rounds " + ", ".join(f"{a}-{b - 1}" for a, b in sessions)
              + f"; simulated metrics from the first "
              f"{res['sim_rounds']}; {res['sim_samples']} simulated latency samples, "
              f"so sim_tail_us is the mean beyond "
              f"p{100 * (1 - TAIL_BEYOND / max(res['sim_samples'], 1)):.2f})")
    print(f"inputs digest {res['inputs_digest'][:16]}  "
          f"simulated-output digest {res['sim_digest'][:16]}  "
          f"reference-seed inputs {res['reference_inputs_digest'][:16]} (matches record)")
    if res["workload"] == "open-steady":
        print("generator lateness: 0 ns (arrivals are offered at their due time "
              "on the simulated clock; latency is measured from that due time)")
    if "setups_s" in res:
        print("setups: " + ", ".join(f"{s:.4f} s" for s in res["setups_s"]))
        raw = res["raw_host"]
        setup_sd, round_sd = res["slowdown"]
        print(f"host speed: median probe {setup_sd * REF_PROBE_S * 1e3:.2f} ms over the "
              f"set-ups, " + "/".join(f"{sd * REF_PROBE_S * 1e3:.2f}" for sd in round_sd)
              + " ms over the rounds of each session, vs the "
              f"reference {REF_PROBE_S * 1e3:.1f} ms; host-clock metrics are given at "
              f"the reference speed; as measured: "
              + ", ".join(f"{k}={raw[k]:.6g}" for k in
                          ("setup_s", "host_ops_per_s", "host_flush_ms_p50", "host_flush_ms_p95")))
    for note in res["notes"][:12]:
        print(f"check: {note}")
    if len(res["notes"]) > 12:
        print(f"check: ... {len(res['notes']) - 12} more")
    print(f"ops attempted {res['attempted']}, failed {res['failed']} "
          f"({res['known_defect_failures']} in known-defect paths)")
    if "layer_self_s" in res:
        traced = res["traced_s"]
        print(f"host self time by layer (traced run, {traced * 1e3:.1f} ms in "
              f"program calls, {res['spans']} spans):")
        for layer, s in sorted(res["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:6s} {s * 1e3:10.2f} ms  {s / traced:6.1%}")
        if "trace_path" in res:
            print(f"chrome trace: {res['trace_path']} ({res['trace_events']} events)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:16.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
