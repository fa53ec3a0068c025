#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the simulator sources
it includes) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs perfbench_scenarios and, for --trace 1, the
perfbench_layers microbenchmarks, checks the outputs, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. Metric definitions: perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"

# Host-speed probe (Probe in scenarios.cpp): thread-CPU seconds of one
# slice on the quiet 4-vCPU Xeon the benchmark was sized on, run inside a
# leg (cold: the leg has evicted the probe's tables) or between set-up
# timings. End-to-end host times are reported as they would read on that
# host.
PROBE_SLICE_QUIET_S = 0.0016
SETUP_PROBE_SLICE_QUIET_S = 0.0012
# On that host, leg time grows as the slice time to this power: across
# legs of all three workloads the log-log slope was 2.1-2.4 at a
# correlation of 0.95, the simulator being more sensitive than the probe
# to what other tenants do to the core.
PROBE_EXPONENT = 2.0
# --trace 0 splits --seconds over this many processes, run one after the
# other. One process's repetitions can agree within a few percent while
# the next process, at the same probe speed, reads 30% higher (something
# fixed at process start: memory layout or placement), so a single
# process's luck would set the whole run's figures.
PROCESSES = 4


def fail(why):
    """Infrastructure failure: no result line, nonzero exit."""
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(2)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(SOURCE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--parallel", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def run_json(cmd):
    """Run @cmd; its stdout is one JSON document."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"{Path(cmd[0]).name} exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"{Path(cmd[0]).name} printed no JSON: {e}")


def leg_failures(legs, reference):
    """Legs that failed a check: threw, ran short, or changed digest."""
    bad = 0
    for leg in legs:
        want = reference[leg["policy"]]
        why = leg["error"] if not leg["ok"] else (
            f"digest {leg['digest']} != {want}" if leg["digest"] != want
            else None)
        if why:
            print(f"perfbench: FAIL {leg['policy']} leg: {why}",
                  file=sys.stderr)
            bad += 1
    return bad


def simulated(legs):
    """Deterministic modelled results of one repetition's legs."""
    by = {leg["policy"]: leg for leg in legs}
    base, ptm = by["buddy"], by["ptemagnet"]
    return {
        "ptemagnet_speedup": base["victim_cycles"] / ptm["victim_cycles"],
        "cycles_per_op": ptm["victim_cycles"] / ptm["victim_ops"],
        "walk_cycles_per_op": ptm["walk_cycles"] / ptm["victim_ops"],
    }


def on_quiet_host(seconds, slice_s, quiet_slice_s):
    """@seconds of host time rescaled to the quiet host, by the mean time of
    the probe slices interleaved with it."""
    return seconds * (quiet_slice_s / slice_s) ** PROBE_EXPONENT


def leg_on_quiet_host(leg):
    if leg["probe_slices"] == 0:
        fail(f"no probe slice ran inside the {leg['policy']} leg")
    return on_quiet_host(leg["cpu_s"] - leg["probe_s"],
                         leg["probe_s"] / leg["probe_slices"],
                         PROBE_SLICE_QUIET_S)


def end_to_end(outs):
    reps = [rep for out in outs for rep in out["reps"]]
    legs = [leg for rep in reps for leg in rep["legs"]]
    reference = {leg["policy"]: leg["digest"] for leg in reps[0]["legs"]}
    failed = leg_failures(legs, reference)
    if failed:
        return False, len(legs), failed, {}
    # Every repetition, in every process, simulates the same ops (the
    # digests say so); its host time, rescaled by the probe slices run
    # inside it, is the program's own cost plus noise, and the median over
    # the repetitions of all processes is steady.
    run, setup = [], []
    for rep in reps:
        probe = rep["setup_probe_s"]
        setup += [on_quiet_host(s, (probe[k] + probe[k + 1]) / 2,
                                SETUP_PROBE_SLICE_QUIET_S)
                  for k, s in enumerate(rep["setup_s"])]
        run.append(sum(leg_on_quiet_host(leg) for leg in rep["legs"]))
    run_s = statistics.median(run)
    setup_s = statistics.median(setup)
    ops = sum(leg["total_ops"] for leg in reps[0]["legs"])
    metrics = {
        "sim_ops_per_s": ops / (run_s - setup_s),
        "run_s": run_s,
        "setup_s": setup_s,
        # The probe's tables stay resident for the whole run.
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] - out["probe_mb"]
                                         for out in outs),
    }
    metrics.update(simulated(reps[0]["legs"]))
    return True, len(legs), 0, metrics


def layer_costs(build_dir):
    """ns per call of each microbenchmark, and how many failed."""
    out = run_json([str(build_dir / "perfbench_layers"),
                    "--benchmark_format=json"])
    ns, failed = {}, 0
    for b in out["benchmarks"]:
        name = b["name"].split("/")[0]
        if b.get("error_occurred"):
            print(f"perfbench: FAIL {name}: {b.get('error_message')}",
                  file=sys.stderr)
            failed += 1
            continue
        ns[name] = 1e9 / b["items_per_second"]
    return ns, len(out["benchmarks"]), failed


def reconcile(counts, ns, table):
    """Predicted host seconds of the measured phase: event count x ns per
    call, for the layers that together execute every simulated op."""
    walk = ns[f"pt.{table}_walk_ns"]
    total = sum(ops * ns.get(f"workload.next_batch_ns_per_op.{gen}", 0.0)
                for gen, ops in counts["ops_by_generator"].items())
    total += counts["tlb_l1_hits"] * ns["tlb.lookup_hit_ns"]
    total += counts["tlb_l1_misses"] * ns["tlb.lookup_miss_ns"]
    total += counts["walks"] * (ns["tlb.insert_ns"] + walk)
    total += counts["host_walks"] * walk
    total += counts["cache_l1"] * ns["cache.access_l1hit_ns"]
    total += counts["cache_other"] * ns["cache.access_mem_ns"]
    total += counts["guest_faults"] * ns["vm.handle_fault_ns"]
    total += counts["host_faults"] * ns["host.handle_fault_ns"]
    return total * 1e-9


def per_layer(out, build_dir):
    reps = out["reps"]
    legs = [leg for rep in reps for leg in rep["untraced"] + rep["traced"]]
    # Traced legs must reproduce run_scenario bit for bit.
    reference = {leg["policy"]: leg["digest"] for leg in reps[0]["untraced"]}
    failed = leg_failures(legs, reference)
    ns, benches, bench_failed = layer_costs(build_dir)
    attempted = len(legs) + benches
    failed += bench_failed
    if failed:
        return False, attempted, failed, {}

    def median(key):
        return statistics.median(rep[key] for rep in reps)

    def cpu(rep, side):
        return sum(leg["cpu_s"] for leg in rep[side])

    chunks = [ms for rep in reps for ms in rep["chunk_ms"]]
    q = statistics.quantiles(chunks, n=100, method="inclusive")
    measure_s = median("measure_s")
    metrics = dict(out["counts"])
    metrics.update({
        "sim.setup_s": median("setup_s"),
        "sim.warmup_s": median("warmup_s"),
        "sim.init_s": median("init_s"),
        "sim.measure_s": measure_s,
        "sim.collect_s": median("collect_s"),
        "sim.chunk_ms.p50": q[49],
        "sim.chunk_ms.p99": q[98],
        "sim.chunk_ms.samples": len(chunks),
        "sim.layer_sum_frac":
            reconcile(out["phase_counts"], ns, out["table"]) / measure_s,
        "sim.trace_overhead_frac":
            statistics.median(cpu(rep, "traced") for rep in reps) /
            statistics.median(cpu(rep, "untraced") for rep in reps) - 1.0,
        # The paper's execution-time improvement, in percent.
        "sim.gain_pct": 100.0 * (1.0 - 1.0 / simulated(
            reps[0]["untraced"])["ptemagnet_speedup"]),
    })
    metrics.update(ns)
    return True, attempted, 0, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = build()

    def scenarios(seconds):
        return run_json([str(build_dir / "perfbench_scenarios"),
                         "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(seconds),
                         "--trace", str(args.trace)])

    if args.trace:
        correct, attempted, failed, values = per_layer(
            scenarios(args.seconds), build_dir)
    else:
        correct, attempted, failed, values = end_to_end(
            [scenarios(args.seconds / PROCESSES) for _ in range(PROCESSES)])

    metrics = {}
    if correct:
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            fail("metrics not computed: " + ", ".join(missing))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
