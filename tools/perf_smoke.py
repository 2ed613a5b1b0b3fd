#!/usr/bin/env python3
"""Perf smoke test: the trace layer must be observably free.

Runs one small figure campaign twice — once plain, once with
`--trace` — and asserts:

  1. the figure output is byte-identical with and without tracing
     (recording must not perturb the simulation),
  2. the traced run's runs/sec is within a (generous) noise bound of
     the untraced run's (the layer's overhead claim from DESIGN.md
     §11: one pointer test per feedback delivery when off, one
     push_back per delivery when on),
  3. the emitted file is schema-valid Chrome trace JSON in which every
     span satisfies write_cycle + loop_delay == consume_cycle and all
     three of the paper's loops appear,
  4. each campaign's kernel self-profile reconciles: its components'
     host seconds sum to at most the workers' summed busy time (the
     profile splits the timed Simulator::run() calls, which run
     inside the cells).

CI runs this as the perf-smoke job and uploads the trace as an
artifact; locally:

    python3 tools/perf_smoke.py --bench build/bench/fig8_dra_speedup

A second mode, `--baseline`, benchmarks the sparse event-driven
kernel against the dense reference kernel (DESIGN.md §14): it runs
the same figure campaign under both kernels (the dense one selected
via LOOPSIM_DENSE_KERNEL=1), asserts the figure output is
byte-identical between them, and writes BENCH_kernel.json with both
kernels' median runs/sec with its quartiles, ops/sec (measured plus
warmup ops per run), p50 campaign wall time, and the core's scan
fraction and kernel counters (read from the timed runs' own tick
profiles, which must reconcile as above), and the host context the
numbers were measured on. The
sparse kernel must not be slower than --min-kernel-ratio times the
dense kernel measured in the same job — a same-machine comparison,
so CI noise cancels out of the ratio:

    python3 tools/perf_smoke.py --baseline \\
        --bench build/bench/fig5_pipeline_config --ops 8000

Exit status: 0 on success, 1 on any failed assertion, 2 on usage or
subprocess errors.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

LOOP_KINDS = ("branch-loop", "load-loop", "operand-loop")

# Below this many repeats the medians are dominated by scheduler
# noise on a shared CI host; the baseline still runs, but the report
# flags itself as statistically weak.
REPEATS_FLOOR = 5


def round_floats(value, digits=3):
    """Round every float in a JSON-ish structure to a stable number
    of decimals, so committed benchmark files do not churn on raw
    float repr noise (53022.159999999996 vs 53022.16)."""
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {k: round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [round_floats(v, digits) for v in value]
    return value


def host_context():
    """Host metadata embedded in baseline reports: a committed
    BENCH_kernel.json is meaningless without knowing what machine
    produced it."""
    ctx = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpu_model": None,
        "cpu_mhz": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if ctx["cpu_model"] is None and line.startswith("model name"):
                ctx["cpu_model"] = line.split(":", 1)[1].strip()
            elif ctx["cpu_mhz"] is None and line.startswith("cpu MHz"):
                ctx["cpu_mhz"] = float(line.split(":", 1)[1].strip())
            if ctx["cpu_model"] is not None and ctx["cpu_mhz"] is not None:
                break
    except OSError:
        pass
    return ctx


def run_bench(bench, ops, jobs, bench_json, extra_args, extra_env=None):
    cmd = [str(bench), str(ops), "--jobs", str(jobs)] + extra_args
    env = dict(os.environ)
    env["LOOPSIM_BENCH_JSON"] = str(bench_json)
    env.pop("LOOPSIM_TRACE", None)
    env.pop("LOOPSIM_DENSE_KERNEL", None)
    if extra_env:
        env.update(extra_env)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True,
                              text=True, check=True)
    except OSError as err:
        print(f"perf_smoke: cannot run {cmd[0]}: {err}",
              file=sys.stderr)
        sys.exit(2)
    except subprocess.CalledProcessError as err:
        print(f"perf_smoke: {' '.join(cmd)} exited {err.returncode}\n"
              f"{err.stderr}", file=sys.stderr)
        sys.exit(2)
    return proc.stdout


def last_entry(bench_json):
    entries = json.loads(Path(bench_json).read_text())
    if not isinstance(entries, list) or not entries:
        print(f"perf_smoke: no campaign entries in {bench_json}",
              file=sys.stderr)
        sys.exit(1)
    return entries[-1]


def check_trace(path, failures):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        failures.append(f"trace file {path} is not valid JSON: {err}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        failures.append("trace has no traceEvents array")
        return
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        failures.append("trace contains no loop-event spans")
        return
    seen_kinds = set()
    for e in spans:
        args = e.get("args", {})
        write = args.get("write_cycle")
        delay = args.get("loop_delay")
        consume = args.get("consume_cycle")
        if write is None or delay is None or consume is None:
            failures.append(f"span missing loop geometry: {e}")
            break
        if write + delay != consume:
            failures.append(
                f"dishonest stamp: write {write} + delay {delay} != "
                f"consume {consume} in {e.get('name')}")
            break
        if e.get("ts") != write or e.get("dur") != delay:
            failures.append(
                f"span ts/dur disagree with args in {e.get('name')}")
            break
        seen_kinds.add(e.get("cat"))
    missing = [k for k in LOOP_KINDS if k not in seen_kinds]
    if missing:
        failures.append(
            f"trace is missing loop kind(s): {', '.join(missing)} "
            f"(saw {sorted(seen_kinds)})")
    print(f"perf_smoke: trace OK — {len(spans)} spans across "
          f"{sorted(seen_kinds)}")


def core_profile(entry, label, failures):
    """The campaign entry's core tick-profile row, after checking that
    the profile reconciles with the workers' busy time; None (with a
    failure recorded) when there is no core row."""
    rows = entry.get("tick_profile", [])
    profiled = sum(row.get("seconds", 0.0) for row in rows)
    busy = sum(w.get("busy_s", 0.0) for w in entry.get("workers", []))
    # The telemetry prints six significant digits.
    if profiled > busy * (1 + 1e-5):
        failures.append(
            f"{label}: tick profile claims {profiled:.4f} s of kernel "
            f"time, more than the workers' {busy:.4f} s busy time")
    for row in rows:
        if row.get("component") == "core" and row.get("ticks"):
            return row
    failures.append(f"{label}: the campaign recorded no core tick "
                    f"profile")
    return None


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quartiles(values):
    """(first, third) quartile, interpolated between order statistics
    (statistics.quantiles' inclusive method); one value is its own
    quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def measure_kernel(args, label, extra_env, failures, tmp):
    """Run the campaign --repeats times under one kernel; return the
    (stdout, medians-dict) pair. Any campaign failure is fatal."""
    outputs = []
    walls, rps = [], []
    runs = 0
    warmup_ops = 0
    core_rows = []
    for rep in range(args.repeats):
        bench_json = Path(tmp) / f"{label}_{rep}.json"
        out = run_bench(args.bench, args.ops, args.jobs, bench_json,
                        [], extra_env)
        entry = last_entry(bench_json)
        if entry.get("failures", 0):
            failures.append(
                f"{label} kernel: campaign reported "
                f"{entry['failures']} failed run(s)")
        outputs.append(out)
        walls.append(entry.get("campaign_wall_s", 0.0))
        rps.append(entry.get("runs_per_s", 0.0))
        runs = entry.get("runs", 0)
        warmup_ops = entry.get("warmup_ops", 0)
        core_rows.append(
            core_profile(entry, f"{label} kernel, repeat {rep}",
                         failures))
    if len(set(outputs)) != 1:
        failures.append(
            f"{label} kernel: figure output varies across repeats — "
            f"the campaign is not deterministic")
    core = core_rows[0]
    med_rps = median(rps)
    q1_rps, q3_rps = quartiles(rps)
    # Each run simulates its warmup as well as its measured ops.
    return outputs[0], {
        "runs": runs,
        "warmup_ops": warmup_ops,
        "runs_per_s": med_rps,
        "runs_per_s_q1": q1_rps,
        "runs_per_s_q3": q3_rps,
        "ops_per_s": med_rps * (args.ops + warmup_ops),
        "p50_wall_s": median(walls),
        "core_ticks": core["ticks"] if core else None,
        "scan_fraction": (core.get("scan_ticks", 0) / core["ticks"]
                          if core else None),
        "core_counters": core.get("counters") if core else None,
    }


def run_baseline(args):
    """--baseline: dense vs sparse kernel on the same figure campaign.

    Byte-identical figures are the correctness bar (the differential
    suite `ctest -L kernel` checks the per-profile statistics; this
    checks the shipped figure end to end), and the sparse kernel's
    median runs/sec must be at least --min-kernel-ratio of the dense
    kernel's, measured back to back on the same machine.
    """
    failures = []
    if args.repeats < REPEATS_FLOOR:
        print(f"perf_smoke: WARNING — only {args.repeats} repeat(s) "
              f"per kernel; medians below {REPEATS_FLOOR} repeats are "
              f"noise-dominated on shared hosts, treat the ratio as "
              f"indicative only", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        dense_out, dense = measure_kernel(
            args, "dense", {"LOOPSIM_DENSE_KERNEL": "1"}, failures, tmp)
        sparse_out, sparse = measure_kernel(
            args, "sparse", None, failures, tmp)

    if dense_out != sparse_out:
        failures.append(
            "figure output differs between the dense and sparse "
            "kernels — the event-driven kernel diverged")

    speedup = (sparse["runs_per_s"] / dense["runs_per_s"]
               if dense["runs_per_s"] > 0 else 0.0)
    def rate(k):
        return (f"{k['runs_per_s']:.2f} runs/s "
                f"(IQR {k['runs_per_s_q1']:.2f}–{k['runs_per_s_q3']:.2f}, "
                f"p50 wall {k['p50_wall_s']:.2f}s)")

    print(f"perf_smoke: dense {rate(dense)}, sparse {rate(sparse)}, "
          f"speedup {speedup:.3f}x")
    if dense["runs_per_s"] <= 0.0 or sparse["runs_per_s"] <= 0.0:
        failures.append("campaign telemetry reported zero runs/sec")
    elif speedup < args.min_kernel_ratio:
        failures.append(
            f"sparse kernel regressed: {sparse['runs_per_s']:.2f} < "
            f"{args.min_kernel_ratio} * {dense['runs_per_s']:.2f} "
            f"runs/s (speedup {speedup:.3f}x)")
    counters = sparse["core_counters"]
    if counters and dense["core_ticks"]:
        # DESIGN.md §14's tick-floor figures, from the sparse core.
        ticks = sparse["core_ticks"]
        calls = counters.get("issue.calls", 0) or 1
        print(f"perf_smoke: sparse core ticks "
              f"{ticks / dense['core_ticks']:.1%} of dense; wake "
              f"clauses event {counters['wake.event'] / ticks:.1%}, "
              f"iq {counters['wake.iq'] / ticks:.1%}; wakes at now+1 "
              f"{counters['gap.1'] / ticks:.1%}; issue pass "
              f"{counters['issue.evals'] / calls:.2f} evals/call, "
              f"barren {counters['issue.barren'] / calls:.1%}")
    if (sparse["scan_fraction"] is not None and
            dense["scan_fraction"] is not None):
        print(f"perf_smoke: core scan fraction — "
              f"dense {dense['scan_fraction']:.4f}, "
              f"sparse {sparse['scan_fraction']:.4f}")
        if sparse["scan_fraction"] > args.max_scan_fraction:
            failures.append(
                f"sparse kernel fell back to full IQ scans on "
                f"{sparse['scan_fraction']:.1%} of core ticks "
                f"(limit {args.max_scan_fraction:.1%}) — the "
                f"incremental ready tracking is not carrying the "
                f"issue stage")

    report = {
        "bench": args.bench.name,
        "ops": args.ops,
        "jobs": args.jobs,
        "repeats": args.repeats,
        "repeats_floor": REPEATS_FLOOR,
        "host": host_context(),
        "dense": dense,
        "sparse": sparse,
        "sparse_speedup": speedup,
        "figures_identical": dense_out == sparse_out,
    }
    args.out.write_text(
        json.dumps(round_floats(report), indent=2) + "\n")
    print(f"perf_smoke: wrote {args.out}")

    if failures:
        for f in failures:
            print(f"perf_smoke FAILED: {f}", file=sys.stderr)
        return 1
    print("perf_smoke baseline OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="trace-layer perf smoke test")
    parser.add_argument(
        "--baseline", action="store_true",
        help="benchmark the sparse kernel against the dense reference "
             "kernel instead of the trace-layer check, and write "
             "BENCH_kernel.json")
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="baseline mode: campaign repeats per kernel (medians "
             "are reported)")
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_kernel.json"),
        help="baseline mode: where the kernel comparison is written")
    parser.add_argument(
        "--min-kernel-ratio", type=float, default=0.85,
        help="baseline mode: sparse runs/sec must be at least this "
             "fraction of dense runs/sec (same-machine comparison)")
    parser.add_argument(
        "--max-scan-fraction", type=float, default=0.2,
        help="baseline mode: at most this fraction of the sparse "
             "kernel's core ticks may run the full O(IQ) reference "
             "scan (the incremental path reports 0; the bound "
             "catches a silent fallback)")
    parser.add_argument(
        "--bench", type=Path,
        default=Path("build/bench/fig8_dra_speedup"),
        help="figure binary to drive (default: fig8)")
    parser.add_argument(
        "--ops", type=int, default=3000,
        help="correct-path ops per run (small: this is a smoke test)")
    parser.add_argument(
        "--jobs", type=int, default=2, help="campaign worker count")
    parser.add_argument(
        "--trace-out", type=Path, default=Path("perf_smoke_trace.json"),
        help="where the traced run writes its trace")
    parser.add_argument(
        "--min-ratio", type=float, default=0.5,
        help="traced runs/sec must be at least this fraction of "
             "untraced (generous: CI machines are noisy)")
    args = parser.parse_args(argv)

    if not args.bench.exists():
        print(f"perf_smoke: no such bench binary: {args.bench} "
              f"(build the project first)", file=sys.stderr)
        return 2

    if args.baseline:
        return run_baseline(args)

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        plain_json = Path(tmp) / "plain.json"
        traced_json = Path(tmp) / "traced.json"

        plain_out = run_bench(args.bench, args.ops, args.jobs,
                              plain_json, [])
        traced_out = run_bench(args.bench, args.ops, args.jobs,
                               traced_json,
                               ["--trace", str(args.trace_out)])

        if plain_out != traced_out:
            failures.append(
                "figure output differs with tracing enabled — "
                "recording perturbed the simulation")

        plain = last_entry(plain_json)
        traced = last_entry(traced_json)
        for name, entry in (("untraced", plain), ("traced", traced)):
            if entry.get("failures", 0):
                failures.append(
                    f"campaign reported {entry['failures']} failed "
                    f"run(s) in {entry.get('bench')}")
            core_profile(entry, f"{name} campaign", failures)
        plain_rps = plain.get("runs_per_s", 0.0)
        traced_rps = traced.get("runs_per_s", 0.0)
        print(f"perf_smoke: untraced {plain_rps:.2f} runs/s, "
              f"traced {traced_rps:.2f} runs/s")
        if plain_rps <= 0.0 or traced_rps <= 0.0:
            failures.append("campaign telemetry reported zero runs/sec")
        elif traced_rps < args.min_ratio * plain_rps:
            failures.append(
                f"tracing slowed the campaign beyond noise: "
                f"{traced_rps:.2f} < {args.min_ratio} * "
                f"{plain_rps:.2f} runs/s")

        check_trace(args.trace_out, failures)

    if failures:
        for f in failures:
            print(f"perf_smoke FAILED: {f}", file=sys.stderr)
        return 1
    print("perf_smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
