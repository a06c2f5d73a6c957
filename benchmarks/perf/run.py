#!/usr/bin/env python3
"""The two-clock benchmark: virtual time (what the model says) beside host
time (what the simulator costs), end to end and layer by layer.

    python3 benchmarks/perf/run.py                      # all seven workloads
    python3 benchmarks/perf/run.py --workload fio_randrw --seed 3 \\
            --seconds 10 --trace 0                      # one, as the driver runs it
    python3 benchmarks/perf/run.py --out A.json         # keep a result set
    python3 benchmarks/perf/run.py --compare A.json B.json

Metric names, units, directions and bounds live in BENCHMARK.json at the
repository root; README.md beside this file says what they mean.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import HOST_PER_LAYER, compare_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: EXPERIMENTS.md E10 / BENCH_filebench.json, varmail: Lab-All 155.5 kops/s
#: over ext4 102.7 kops/s (the paper's Fig 9(c) ratio as this model has it)
E10_VARMAIL_RATIO = 1.51


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def import_model() -> float:
    """Import ``repro`` and the workloads; returns the seconds it took
    (the part of set-up every fresh process pays)."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"run.py: {src}/repro not found; the benchmark "
                         "runs the simulator from the repository's sources")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    t0 = time.perf_counter()
    import workloads  # noqa: F401 - pulls in every repro package used
    from repro.sim.check import reset_global_counters  # noqa: F401
    from repro.sim.profile import calibrate  # noqa: F401
    return time.perf_counter() - t0


def _one_rep(wl, seed: int, size: int, telemetry: bool, profiler=None):
    from repro.sim.check import reset_global_counters

    reset_global_counters()
    gc.collect()
    return wl.rep(seed, size, telemetry, profiler)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, import_s: float = 0.0) -> dict:
    """Warm-up + timed reps (+ rep P and rep S when ``trace``)."""
    import measure
    from repro.sim.profile import calibrate
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    size = wl.quick_size if quick else wl.size
    env_block = measure.environment(calibrate)
    kids_rss0 = measure.children_rss_kib()

    _one_rep(wl, seed, size, wl.telemetry)  # warm-up: caches, first fork
    if quick:
        min_reps, budget = 2, 0.0
    elif trace:
        min_reps, budget = 3, seconds / 2
    else:
        min_reps, budget = wl.min_reps, seconds
    reps = []
    t_end = time.perf_counter() + budget
    while len(reps) < min_reps or time.perf_counter() < t_end:
        reps.append(_one_rep(wl, seed, size, wl.telemetry))
    rss = measure.peak_rss_mib(kids_rss0)

    last = reps[-1]
    problems = [p for r in reps for p in r.problems]
    if len({r.fingerprint() for r in reps}) != 1:
        problems.append("virtual results differ between reps of one seed")
    ops = last.attempted - last.failed
    if ops <= 0:
        raise SystemExit(f"{name}: no operation completed")
    wall = statistics.median(r.section.wall_s for r in reps)
    cpu = statistics.median(r.section.cpu_s for r in reps)
    build = statistics.median(r.section.build_s for r in reps)
    virtual_s = last.virtual_ns / 1e9
    values = {
        "host_ops_per_s": ops / wall,
        "host_cpu_us_per_op": cpu / ops * 1e6,
        "host_peak_rss_mib": rss,
        "setup_s": import_s + build,
        "sim_kops_per_s": ops / virtual_s / 1e3,
        "sim_p50_us": last.lat_p50_ns / 1e3,
        "sim_p99_us": last.lat_p99_ns / 1e3,
        "sim_good_frac": last.good / last.attempted,
    }
    spreads = {
        "host_ops_per_s": measure.spread([r.section.wall_s for r in reps]),
        "host_cpu_us_per_op": measure.spread([r.section.cpu_s for r in reps]),
        "setup_s": measure.spread([import_s + r.section.build_s for r in reps]),
    }
    result = {
        "workload": name, "seed": seed, "loop": wl.loop, "size": size,
        "reps": len(reps), "lat_samples": last.lat_n,
        "attempted": last.attempted, "failed": last.failed,
        "completed": ops, "fingerprint": last.fingerprint(),
        "import_s": import_s, "build_s": build, "wall_s": wall,
        "end_to_end": values, "spread": spreads,
    }
    if trace:
        result["per_layer"], notes = _traced(wl, seed, size, reps, wall, ops)
        result["trace_notes"] = notes
        problems += notes.pop("problems")
    env_block["calibrate_ops_per_s_after"] = calibrate()
    result["env"] = env_block
    result["problems"] = problems
    result["correct"] = not problems
    return result


def _traced(wl, seed, size, reps, wall, ops):
    """Per-layer numbers: exact counters of the last timed rep, then rep P
    under cProfile and rep S with telemetry flipped - neither is ever
    mixed into the timed reps."""
    import measure

    last = reps[-1]
    out = dict(last.counters)
    events = last.host["events"]
    out["sim.events_per_host_s"] = events / wall
    out["sim.virtual_ms"] = last.virtual_ns / 1e6
    for key in ("par.shard_cpu_max_s", "par.shard_cpu_sum_s",
                "par.sync_overhead_s"):
        if key in last.host:
            out[key] = statistics.median(r.host[key] for r in reps)
    problems = []

    prof = cProfile.Profile()
    rep_p = _one_rep(wl, seed, size, wl.telemetry, prof)
    totals = measure.layer_self_seconds(prof)
    for child in rep_p.child_profiles:
        for layer, secs in child.items():
            totals[layer] += secs
    for layer, secs in totals.items():
        # a layer the workload never enters is left out, not reported as 0
        if secs > 0.0:
            out[f"{layer}.self_us_per_op"] = secs / ops * 1e6
    out["trace.overhead_frac"] = rep_p.section.wall_s / wall - 1
    # every process of rep P is profiled from (about) the start of the
    # timed call to its end, so self times should add up to the process-
    # seconds spent; cluster shards include their build, hence "about"
    nproc = 1 + len(rep_p.child_profiles)
    coverage = sum(totals.values()) / (rep_p.section.wall_s * nproc)
    if rep_p.fingerprint() != last.fingerprint():
        problems.append("rep P changed the virtual results")
    notes = {"rep_p_wall_s": rep_p.section.wall_s, "rep_p_processes": nproc,
             "rep_p_self_time_coverage": coverage, "problems": problems}

    phases = last.phases
    if wl.rep_s:
        rep_s = _one_rep(wl, seed, size, not wl.telemetry)
        on, off = ((wall, rep_s.section.wall_s) if wl.telemetry
                   else (rep_s.section.wall_s, wall))
        out["obs.overhead_frac"] = on / off - 1
        notes["rep_s_wall_s"] = rep_s.section.wall_s
        phases = phases or rep_s.phases
        if rep_s.fingerprint() != last.fingerprint():
            problems.append("rep S changed the virtual results")
    if phases is not None:
        out["obs.spans_closed"] = phases["closed_total"]
        for phase, row in phases["phases"].items():
            out[f"obs.phase_{phase}_us"] = row["mean_ns"] / 1e3
        if phases["open_left"]:
            problems.append(f"{phases['open_left']} telemetry spans never closed")
    return out, notes


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def report(result: dict, spec: dict) -> str:
    lines = [
        f"== {result['workload']}  seed={result['seed']}  {result['loop']} loop  "
        f"{result['reps']} timed reps of {result['wall_s']:.3f}s  "
        f"attempted={result['attempted']} failed={result['failed']}  "
        f"latency samples={result['lat_samples']}"
    ]
    if result["loop"] == "open":
        lines.append("   arrivals are scheduled in virtual time: generator "
                     "lateness is 0 by construction")
    for m in spec["end_to_end"]:
        v = result["end_to_end"][m["name"]]
        sp = result["spread"].get(m["name"])
        tail = f"  rep spread {sp * 100:.1f}%" if sp is not None else ""
        lines.append(f"   {m['name']:<28}{v:>16.4f} {m['unit']:<11}"
                     f"({m['better']} is better, bound {m['bound'] * 100:g}%){tail}")
    if "per_layer" in result:
        for m in spec["per_layer"]:
            v = result["per_layer"].get(m["name"])
            shown = "n/a" if v is None else f"{v:.4f}"
            lines.append(f"   {m['name']:<28}{shown:>16} {m['unit']}")
        n = result["trace_notes"]
        lines.append(
            f"   rep P: {n['rep_p_wall_s']:.3f}s in {n['rep_p_processes']} "
            f"process(es); layer self times cover "
            f"{n['rep_p_self_time_coverage'] * 100:.1f}% of it"
            + (f"; rep S: {n['rep_s_wall_s']:.3f}s" if "rep_s_wall_s" in n else ""))
    env = result["env"]
    lines.append(
        f"   env: python {env['python']} {env['machine']} nproc={env['nproc']} "
        f"affinity={env['affinity']} calibrate "
        f"{env['calibrate_ops_per_s_before']:.0f} -> "
        f"{env['calibrate_ops_per_s_after']:.0f} ops/s")
    for p in result["problems"]:
        lines.append(f"   FAILED CHECK: {p}")
    return "\n".join(lines)


def contract_line(result: dict, spec: dict, trace: bool) -> str:
    """The last line of a single-workload run, as the driver reads it.
    With --trace 1 it carries every per-layer name; a layer that does not
    run on this workload reads 0 there (and n/a in the table above)."""
    if trace:
        metrics = {m["name"]: {"value": result["per_layer"].get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# ----------------------------------------------------------------------
# all workloads, each in a fresh process
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    detail = [ln for ln in proc.stdout.splitlines() if ln.startswith("DETAIL ")]
    if not detail:
        raise SystemExit(f"{name}: no result (exit {proc.returncode})\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(detail[-1][len("DETAIL "):])


def run_all(seed: int, seconds: float, quick: bool, spec: dict,
            out_path: str | None) -> int:
    results = {}
    for w in spec["workloads"]:
        name = w["name"]
        timed = _child(name, seed, seconds, False, quick)
        traced = _child(name, seed, seconds, True, quick)
        timed["per_layer"] = traced["per_layer"]
        timed["trace_notes"] = traced["trace_notes"]
        timed["problems"] += [p for p in traced["problems"]
                              if p not in timed["problems"]]
        if traced["fingerprint"] != timed["fingerprint"]:
            timed["problems"].append(
                "timed and traced runs of one seed disagree on virtual results")
        results[name] = timed

    s1, s2 = results["cluster_kvs_s1"], results["cluster_kvs_s2"]
    for key in [k for k in s1["end_to_end"] if k.startswith("sim_")]:
        if s1["end_to_end"][key] != s2["end_to_end"][key]:
            s2["problems"].append(f"{key} differs between shards=1 and shards=2")
    for key in [k for k in s1["per_layer"] if k.startswith("cluster.")
                and not k.endswith(HOST_PER_LAYER)]:
        if s1["per_layer"][key] != s2["per_layer"].get(key):
            s2["problems"].append(f"{key} differs between shards=1 and shards=2")

    for r in results.values():
        r["correct"] = not r["problems"]
        print(report(r, spec))
    ratio = (results["varmail_lab"]["end_to_end"]["sim_kops_per_s"]
             / results["varmail_ext4"]["end_to_end"]["sim_kops_per_s"])
    print(f"model validation: sim_kops_per_s varmail_lab / varmail_ext4 = "
          f"{ratio:.3f} (E10, Fig 9(c) as reproduced: {E10_VARMAIL_RATIO})")
    bad = [n for n, r in results.items() if not r["correct"]]
    print("all output checks passed" if not bad
          else f"FAILED workloads: {', '.join(bad)}")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump({"seed": seed, "seconds": seconds, "quick": quick,
                       "workloads": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process (default: all, "
                             "each in a fresh process, timed then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the timed reps of one workload go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: few timed reps, then rep P and rep S; the "
                             "last line carries the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, 2 timed reps (self-check only)")
    parser.add_argument("--out", metavar="PATH",
                        help="with no --workload: write the result set as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result sets against the bounds")
    args = parser.parse_args(argv)

    if args.compare:
        return compare_files(args.compare[0], args.compare[1], spec)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.quick, spec, args.out)

    import_s = import_model()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick, import_s)
    print(report(result, spec))
    print("DETAIL " + json.dumps(result, sort_keys=True))
    print(contract_line(result, spec, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
