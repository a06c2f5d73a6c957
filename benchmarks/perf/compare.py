"""``run.py --compare A.json B.json``: is B worse than A?

For every (end-to-end metric, workload) pair: the relative change of B
against A, signed so that positive means worse, judged against the
metric's bound in BENCHMARK.json.

- ``sim_*`` metrics and the exact per-layer counters are virtual: for one
  seed they must be equal to the last digit, so any difference is flagged
  (``DIFFERS``), however small - a simulator-only change must leave every
  simulated statistic identical.
- host metrics are ``ok`` within the bound and ``WORSE`` beyond it; where
  the rep-to-rep spread of either side is wider than the bound the pair is
  ``unresolved``, not unchanged.

Exit status 1 if anything is WORSE or DIFFERS.
"""

from __future__ import annotations

import json

#: per-layer values that come off host clocks (everything else per-layer
#: is a count made by the program, which repeats exactly)
HOST_PER_LAYER = ("self_us_per_op", "overhead_frac", "events_per_host_s",
                  "shard_cpu_max_s", "shard_cpu_sum_s", "sync_overhead_s")


def _worse_by(a: float, b: float, better: str) -> float:
    """Relative change from a to b, positive when b is worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    lines = []
    failed = False
    if a.get("seed") != b.get("seed"):
        lines.append(f"note: seeds differ ({a.get('seed')} vs {b.get('seed')}); "
                     "virtual metrics are only comparable for equal seeds")
    for w in spec["workloads"]:
        name = w["name"]
        ra, rb = a["workloads"].get(name), b["workloads"].get(name)
        if ra is None or rb is None:
            lines.append(f"{name}: missing from {'A' if ra is None else 'B'}")
            failed = True
            continue
        lines.append(f"== {name}")
        for m in spec["end_to_end"]:
            key = m["name"]
            va, vb = ra["end_to_end"][key], rb["end_to_end"][key]
            worse = _worse_by(va, vb, m["better"]) + 0.0  # no "-0.00%"
            if key.startswith("sim_"):
                verdict = "ok (identical)" if va == vb else "DIFFERS"
            else:
                noise = max(ra["spread"].get(key, 0.0), rb["spread"].get(key, 0.0))
                if noise > m["bound"]:
                    verdict = f"unresolved (rep spread {noise * 100:.1f}% > bound)"
                elif worse > m["bound"]:
                    verdict = "WORSE"
                else:
                    verdict = "ok"
            failed |= verdict in ("WORSE", "DIFFERS")
            lines.append(f"   {key:<22}{va:>16.4f} -> {vb:>16.4f} {m['unit']:<11}"
                         f"{worse * 100:>+8.2f}% worse  (bound {m['bound'] * 100:g}%)"
                         f"  {verdict}")
        pa, pb = ra.get("per_layer", {}), rb.get("per_layer", {})
        for key in sorted(set(pa) | set(pb)):
            if key.endswith(HOST_PER_LAYER):
                continue
            if pa.get(key) != pb.get(key):
                lines.append(f"   {key:<28} {pa.get(key)} -> {pb.get(key)}  DIFFERS")
                failed = True
    lines.append("B is worse than A or differs where it must not" if failed
                 else "B is no worse than A on every pair that could be resolved")
    return lines, failed


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        lines, failed = compare(json.load(fa), json.load(fb), spec)
    print("\n".join(lines))
    return 1 if failed else 0
