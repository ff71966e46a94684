#!/usr/bin/env python3
"""The repository benchmark: Figure 6 cold/warm and contention sweeps.

    python3 perfbench/run.py --workload fig06_cold --seed 42 --seconds 30 --trace 0

Builds perfbench/ (qb_perfbench plus the library modules under src/) into
.bench_build/perfbench/ (or $CARGO_TARGET_DIR/perfbench/), runs one
workload, checks every verdict against perfbench/expected.json and prints
human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a separate traced run plus a replay in the -DQB_ATTRIB=ON
build). Exit status is 0 only when every check passed.

    python3 perfbench/run.py --record

re-records perfbench/expected.json (verdict digests, event counts) for
every simulation seed; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig06_cold", "fig06_warm", "contention_cold")
FAMILY = {"fig06_cold": "fig06", "fig06_warm": "fig06",
          "contention_cold": "contention"}

# --seed n simulates with seed 42 + ((n - 42) mod 8); expected.json holds
# the recorded outputs of those eight seeds, and 42 is the paper's.
BASE_SIM_SEED = 42
SIM_SEEDS = 8

# Published outputs at the paper seed, checked again by --record so a
# re-recording cannot silently bless a changed program. They move only
# when the event algebra changes on purpose (say so in CHANGES.md).
PAPER_SEED_FACTS = {
    "fig06": {"table_md5": "b125d82bd46e8a5b51cdab3523a54086",
              "events": 221044157},
    "contention": {"events": 95723975},
}

CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sim_seed(seed):
    return BASE_SIM_SEED + (seed - BASE_SIM_SEED) % SIM_SEEDS


def workers():
    return max(1, min(4, os.cpu_count() or 1))


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(attrib):
    """Configure (once) and build one qb_perfbench tree; returns the binary."""
    tree = build_root() / ("attrib" if attrib else "release")
    if not any((tree / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(tree),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DQB_ATTRIB=" + ("ON" if attrib else "OFF")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=child_env())
    subprocess.run(["cmake", "--build", str(tree), "-j", str(workers())],
                   check=True, stdout=sys.stderr, env=child_env())
    return tree / "qb_perfbench"


def child_env():
    """The environment of every child: no QB_* (qb_perfbench also clears
    them itself) and compiler temporaries kept inside the build tree."""
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("QB_")}
    env["TMPDIR"] = str(tmp)
    return env


def drive(binary, mode, run_dir, **opts):
    cmd = [str(binary), mode, "--dir", str(run_dir)]
    for k, v in opts.items():
        cmd += ["--" + k.replace("_", "-"), str(v)]
    out = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                         timeout=CHILD_TIMEOUT_S, check=True, text=True)
    return json.loads(out.stdout)


def load_json(name):
    with open(HERE / name) as f:
        return json.load(f)


def check_benchmark_json(catalog):
    """BENCHMARK.json's metric lists must match metrics.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    with open(path) as f:
        bench = json.load(f)
    for section in ("end_to_end", "per_layer"):
        mine = [(m["name"], m["unit"], m["better"]) for m in catalog[section]]
        theirs = [(m["name"], m["unit"], m["better"]) for m in bench[section]]
        if mine != theirs:
            raise SystemExit(f"BENCHMARK.json {section} disagrees with "
                             "perfbench/metrics.json")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads disagree with run.py")


def percentile(xs, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# ---------------------------------------------------------------------
# Correctness

def check_sweep(res, exp, warm, problems, label):
    """Compare one sweep's counters and verdicts with the recording.

    Returns (cells attempted, cells failed). A wrong work count fails
    every cell of the sweep; otherwise a cell fails when its report
    digest differs.
    """
    st = res["stats"]
    n = len(exp["cells"])
    want = {"cells": n,
            "trials": 0 if warm else exp["trials"],
            "events": 0 if warm else exp["events"],
            "cache_hits": exp["unique_pairs"] if warm else 0,
            "cache_misses": 0 if warm else exp["unique_pairs"],
            "unique_pairs": exp["unique_pairs"],
            "unique_scenarios": exp["unique_scenarios"]}
    bad = {k: (st[k], v) for k, v in want.items() if st[k] != v}
    if bad:
        problems.append(f"{label}: counts differ (got, want): {bad}")
        return n, n
    if "table_md5" in exp:
        md5 = hashlib.md5(res["table"].encode()).hexdigest()
        if md5 != exp["table_md5"]:
            problems.append(f"{label}: verdict table md5 {md5} != "
                            f"{exp['table_md5']}")
            return n, n
    wrong = [k for k, d in res["cells"].items() if exp["cells"].get(k) != d]
    if set(res["cells"]) != set(exp["cells"]):
        wrong = list(exp["cells"])
    if wrong:
        problems.append(f"{label}: {len(wrong)} cell digest(s) differ, "
                        f"e.g. {wrong[0]}")
    return n, len(wrong)


def print_build(b):
    onoff = {True: "ON", False: "OFF"}
    print(f"build: {b['build_type']}, QB_ATTRIB={onoff[b['qb_attrib']]}, "
          f"QB_NO_SIMD={onoff[b['qb_no_simd']]}, nproc={b['nproc']}")


def check_sweeps(sweeps, exp, problems):
    """check_sweep over (label, result, warm) triples; summed counts."""
    attempted = failed = 0
    for label, res, warm in sweeps:
        a, f = check_sweep(res, exp, warm, problems, label)
        attempted += a
        failed += f
    return attempted, failed


# ---------------------------------------------------------------------
# Timed run: end-to-end metrics

def fill_cache(binary, run_dir, seed):
    """Warm workloads' set-up: a cold fig06 sweep into the private cache,
    in its own process. Returns its output and its wall time."""
    t0 = time.monotonic()
    out = drive(binary, "sweep", run_dir, workload="fig06_cold",
                sim_seed=seed, workers=workers())
    return out, time.monotonic() - t0


def timed(args, binary, run_dir, expected):
    fam = FAMILY[args.workload]
    warm = args.workload.endswith("_warm")
    fill, fill_s = (fill_cache(binary, run_dir, sim_seed(args.seed))
                    if warm else (None, 0.0))
    out = drive(binary, "timed", run_dir, workload=args.workload,
                sim_seed=sim_seed(args.seed), seconds=args.seconds,
                workers=workers())
    problems = []
    reps = out["reps"]
    attempted, failed = check_sweeps(
        ([("fill", fill, False)] if warm else []) +
        [(f"rep {i}", r, warm) for i, r in enumerate(reps)],
        expected[fam], problems)
    setups = out["setup_samples_s"] + [r["setup_s"] for r in reps]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": fill_s + statistics.median(setups),
    }
    print(f"perfbench {args.workload}: seed {args.seed} (simulation seed "
          f"{sim_seed(args.seed)}), {len(reps)} repetition(s), "
          f"{reps[0]['stats']['threads']} workers")
    print_build(out["build"])
    return attempted, failed, problems, metrics


# ---------------------------------------------------------------------
# Traced run: per-layer metrics

def attrib_metrics(att):
    """ns per event (trial scopes) and ns per evaluate (eval scopes)."""
    root = att["trials"]["trial"]["cycles"]
    ns_per_cycle = att["trial_wall_s"] * 1e9 / root
    events = att["events"]

    def per_event(*scopes):
        cyc = sum(att["trials"][s]["excl_cycles"] for s in scopes)
        return cyc * ns_per_cycle / events

    def per_eval(scope):
        return att["eval"][scope]["excl_cycles"] * ns_per_cycle / att["eval_calls"]

    return {
        "attrib.engine_run_ns_per_event": per_event("engine.run"),
        "attrib.engine_wheel_ns_per_event": per_event("engine.wheel"),
        "attrib.engine_heap_ns_per_event": per_event("engine.heap"),
        "attrib.engine_schedule_ns_per_event": per_event("engine.schedule"),
        "attrib.link_ns_per_event": per_event("link"),
        "attrib.sender_ack_ns_per_event": per_event(
            "sender.ack", "sender.ack_range", "sender.ack_merge"),
        "attrib.sender_loss_ns_per_event": per_event("sender.loss"),
        "attrib.sender_send_ns_per_event": per_event("sender.send"),
        "attrib.sender_pacer_ns_per_event": per_event("sender.pacer"),
        "attrib.sender_compact_ns_per_event": per_event("sender.compact"),
        "attrib.receiver_ns_per_event": per_event("receiver"),
        "attrib.cca_on_ack_ns_per_event": per_event("cca.on_ack"),
        "attrib.cca_on_loss_ns_per_event": per_event("cca.on_loss"),
        "attrib.cca_on_sent_ns_per_event": per_event("cca.on_sent"),
        "attrib.coverage": att["coverage"],
        "attrib.eval_kmeans_ns": per_eval("eval.kmeans"),
        "attrib.eval_kmeans_assign_ns": per_eval("eval.kmeans_assign"),
        "attrib.eval_pe_ns": per_eval("eval.pe"),
        "attrib.eval_contain_ns": per_eval("eval.contain"),
    }


def traced(args, binary, run_dir, expected):
    fam = FAMILY[args.workload]
    warm = args.workload.endswith("_warm")
    seed = sim_seed(args.seed)
    fill = fill_cache(binary, run_dir, seed)[0] if warm else None
    out = drive(binary, "traced", run_dir, workload=args.workload,
                sim_seed=seed, workers=workers())
    problems = []
    attempted, failed = check_sweeps(
        ([("fill", fill, False)] if warm else []) +
        [("traced sweep", out["traced"], warm)], expected[fam], problems)

    # Replay equivalence: verdicts and event counts must be the sweep's.
    rep = out["replay"]
    recorded_cells = {**expected["fig06"]["cells"],
                      **expected["contention"]["cells"]}
    recorded_tasks = {**expected["fig06"]["tasks"],
                      **expected["contention"]["tasks"]}
    with open(out["traced"]["manifest"]) as f:
        manifest = json.load(f)
    live_tasks = {t["fingerprint"]: t["events"]
                  for t in manifest["pairs"] + manifest["scenarios"]
                  if not t.get("cached", False)}
    for key, digest in rep["cells"].items():
        attempted += 1
        live = out["traced"]["cells"].get(key)
        if digest != recorded_cells.get(key) or (live and digest != live):
            failed += 1
            problems.append(f"replay: cell {key} differs from the sweep")
    for fp, events in rep["tasks"].items():
        attempted += 1
        want = live_tasks.get(fp, recorded_tasks.get(fp))
        if events != recorded_tasks.get(fp) or events != want:
            problems.append(f"replay: task {fp} ran {events} events, "
                            f"the sweep {want}")
            failed += 1

    att = drive(build(attrib=True), "attrib", run_dir, sim_seed=seed)

    with open(out["traced"]["profile"]) as f:
        spans = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]

    def span_ms(cat):
        return [e["dur"] / 1e3 for e in spans if e.get("cat") == cat]

    trial_ms, eval_ms = span_ms("trial"), span_ms("eval")
    st = out["traced"]["stats"]
    tot = rep["totals"]
    probes = st["cache_hits"] + st["cache_misses"]
    ev = rep["eval"]
    run_trial_on = sum(rep["run_trial_ms"])
    m = {
        "runner.thread_utilization": st["thread_utilization"],
        "runner.idle_s": st["threads"] * st["wall_sec"] - st["busy_sec"],
        "runner.trials_simulated": st["trials"],
        "runner.trial_s": sum(trial_ms) / 1e3,
        "runner.trial_p50_ms": statistics.median(trial_ms) if trial_ms else 0.0,
        "runner.trial_p95_ms": percentile(trial_ms, 0.95),
        "runner.finalize_s": sum(span_ms("finalize")) / 1e3,
        "runner.eval_s": sum(eval_ms) / 1e3,
        "runner.eval_p50_ms": statistics.median(eval_ms) if eval_ms else 0.0,
        "runner.eval_p75_ms": percentile(eval_ms, 0.75),
        "cache.hit_frac": st["cache_hits"] / probes if probes else 0.0,
        "cache.load_ms": statistics.median(rep["load_ms"]),
        "cache.store_ms": statistics.median(rep["store_ms"]),
        "cache.entry_kb": rep["cache_entry_kb"],
        "harness.run_trial_p50_ms": statistics.median(rep["run_trial_ms"]),
        "harness.run_trial_p95_ms": percentile(rep["run_trial_ms"], 0.95),
    }
    for k, xs in rep["run_scenario_ms"].items():
        m[f"harness.run_scenario_ms.k{k}"] = statistics.median(xs)
    m.update({
        "harness.ns_per_event": rep["trial_ms_sum"] * 1e6 / tot["events"],
        "harness.aggregate_ms": statistics.median(rep["aggregate_ms"]),
        "harness.peak_concurrent": tot["peak_concurrent"],
        "netsim.events_per_trial": tot["events"] / tot["trials"],
        "netsim.heap_peak": tot["heap_peak"],
        "netsim.wheel_peak": tot["wheel_peak"],
        "netsim.queue_hwm_kb": tot["queue_hwm_bytes"] / 1024,
        "netsim.drops_per_trial": tot["drops"] / tot["trials"],
        "netsim.utilization": tot["utilization_sum"] / tot["trials"],
        "transport.packets_sent": tot["packets_sent"] / tot["trials"],
        "transport.retx_frac": tot["retransmissions"] / tot["packets_sent"],
        "obs.invariants_share": 1 - sum(rep["run_trial_noinv_ms"]) / run_trial_on,
        "conformance.iou_curve_ms": statistics.median(ev["iou_curve_ms"]),
        "conformance.build_pe_fixed_k_ms": statistics.median(ev["build_pe_fixed_k_ms"]),
        "conformance.build_pe_old_ms": statistics.median(ev["build_pe_old_ms"]),
        "conformance.conformance_ms": statistics.median(ev["conformance_ms"]),
        "conformance.best_translation_ms": statistics.median(ev["best_translation_ms"]),
        "conformance.points_per_pe": statistics.mean(ev["points_per_pe"]),
        "trace.overhead_frac": out["traced"]["wall_s"] / out["untraced_wall_s"] - 1,
    })
    m.update(attrib_metrics(att))
    print(f"perfbench {args.workload} traced: seed {args.seed} (simulation "
          f"seed {seed}), {st['threads']} workers, attribution timer "
          f"{att['timer']}")
    print_build(out["build"])
    return attempted, failed, problems, m


# ---------------------------------------------------------------------
# Recording expected.json

def record(binary, run_dir):
    seeds = {}
    for s in range(BASE_SIM_SEED, BASE_SIM_SEED + SIM_SEEDS):
        seeds[str(s)] = {}
        for wl in ("fig06_cold", "contention_cold"):
            fam = FAMILY[wl]
            log(f"record: simulation seed {s}, {wl}")
            out = drive(binary, "sweep", run_dir / wl, workload=wl,
                        sim_seed=s, workers=workers())
            with open(out["manifest"]) as f:
                manifest = json.load(f)
            st = out["stats"]
            rec = {"trials": st["trials"], "events": st["events"],
                   "unique_pairs": st["unique_pairs"],
                   "unique_scenarios": st["unique_scenarios"],
                   "cells": out["cells"],
                   "tasks": {t["fingerprint"]: t["events"]
                             for t in manifest["pairs"] + manifest["scenarios"]}}
            if "table" in out:
                rec["table_md5"] = hashlib.md5(out["table"].encode()).hexdigest()
            if s == BASE_SIM_SEED:
                for k, v in PAPER_SEED_FACTS[fam].items():
                    if rec[k] != v:
                        raise SystemExit(f"record: {wl} {k} is {rec[k]}, "
                                         f"the published value is {v}")
            seeds[str(s)][fam] = rec
    doc = {"schema": "quicbench.perfbench.expected/v1",
           "note": "Recorded by `python3 perfbench/run.py --record`: per simulation seed, "
                   "each cold sweep's work counts, the digest of every ConformanceReport, "
                   "the fig06 verdict-table md5 and the simulator events of every task.",
           "seeds": seeds}
    with open(HERE / "expected.json", "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    log("record: wrote perfbench/expected.json")


# ---------------------------------------------------------------------

def main():
    try:
        return run()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1


def run():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=BASE_SIM_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="re-record perfbench/expected.json and exit")
    args = p.parse_args()
    if not args.record and args.workload is None:
        p.error("--workload is required")

    catalog = load_json("metrics.json")
    check_benchmark_json(catalog)
    binary = build(attrib=False)
    run_dir = build_root() / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        if args.record:
            record(binary, run_dir)
            return 0
        expected = load_json("expected.json")["seeds"][str(sim_seed(args.seed))]
        if args.trace:
            attempted, failed, problems, metrics = traced(
                args, binary, run_dir, expected)
            section = "per_layer"
        else:
            attempted, failed, problems, metrics = timed(
                args, binary, run_dir, expected)
            section = "end_to_end"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in catalog[section]}
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        problems.append(f"metric set mismatch: missing {sorted(missing)}, "
                        f"extra {sorted(extra)}")
    values = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items() if name in metrics}
    for name, v in values.items():
        print(f"  {name:<36} {v['value']:.6g} {v['unit']}")
    print(f"  {'failed_frac':<36} {failed / attempted:.6g} "
          f"({failed} of {attempted} checked)")
    for msg in problems:
        log("perfbench: " + msg)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
