#!/usr/bin/env python3
"""Micro-benchmark gates for the layers under the capture -> label path.

    python3 bench/gates.py    (no flags, no environment)

Builds the release preset, runs the micro_* binaries in three
interleaved whole-suite passes and `mocemg_cli kernel-info --json`,
applies the gate table below and appends one line to record.jsonl:
{commit, date, host: {cpus_online, kernel-info}, benchmarks: {name:
{ns_per_op, cv}}, gates: {name: {value, stable, ok}}}. The line is
appended even when a gate fails; the exit status is then 1.
"""
import datetime
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RECORD = BENCH_DIR / "record.jsonl"
SUITE = ("micro_pipeline", "micro_db", "micro_distance", "micro_fcm",
         "micro_svd", "micro_parallel", "micro_incremental",
         "micro_serving", "micro_kernels")
# Whole-suite passes rather than --benchmark_repetitions: host load
# drifts on a minutes scale, so back-to-back repetitions agree with each
# other inside one load wave. Samples spread across the suite see the
# drift, and their cv says whether a number can be trusted.
PASSES = 3
MIN_TIME = "0.1"  # the bundled google-benchmark takes plain seconds
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

CV_STABLE = 0.10      # only samples (or ratios) this steady are gated
MAX_SLOWDOWN = 1.20   # ns/op against baseline(): the last passing run
# The fp32 kernel families pair with their f64 twin at the same
# {dim, mode}; every other paired family pairs its trailing /0 mode
# (baseline) with /1.
F64_TWIN = {"BM_L2F32OneToMany": "BM_L2OneToMany",
            "BM_L2DotF32OneToMany": "BM_L2DotF64OneToMany"}
FP32_KERNELS = tuple(F64_TWIN)


def collect(docs):
    """Per-pass ns/op samples {name: [ns, ...]} from benchmark JSON docs.
    A benchmark's own ->MinTime(s) adds "/min_time:s" to its name; the
    suffix is dropped so the row keeps its mode last and its record
    name."""
    samples = {}
    for doc in docs:
        for run in doc["benchmarks"]:
            ns = run["real_time"] * UNIT_NS[run["time_unit"]]
            name = re.sub(r"/min_time:[0-9.]+$", "", run["name"])
            samples.setdefault(name, []).append(ns)
    return samples


def cv(values):
    mean = statistics.fmean(values)
    return statistics.pstdev(values) / mean if mean > 0 else 0.0


def summarize(samples):
    return {name: {"ns_per_op": round(statistics.median(v), 1),
                   "cv": round(cv(v), 3)}
            for name, v in sorted(samples.items())}


def pair(base, new):
    """Median of the per-pass base/new ratios; > 1 means `new` is faster.

    Both sides ran in the same pass of the same binary seconds apart,
    so each per-pass quotient cancels the host load of that pass."""
    ratios = [b / n for b, n in zip(base, new)]
    return {"value": statistics.median(ratios), "min": min(ratios),
            "max": max(ratios), "stable": cv(ratios) <= CV_STABLE}


def pairs_of(samples, family):
    """{row: pair} for one family; a row is the name without its mode,
    except for the fp32 kernels, whose rows keep the mode (1 is the
    runtime-dispatched backend)."""
    out = {}
    for name, new in samples.items():
        if not name.startswith(family + "/"):
            continue
        if family in F64_TWIN:
            row, base = name, samples.get(F64_TWIN[family] + name[len(family):])
        else:
            row, mode = name.rsplit("/", 1)
            base = samples.get(row + "/0") if mode == "1" else None
        if base and len(base) == len(new):
            out[row] = pair(base, new)
    return out


def gate(value, stable, ok):
    if isinstance(value, float):
        value = round(value, 3)
    return {"value": value, "stable": stable, "ok": ok}


def each(ok):
    """Gate every row on its own."""
    return lambda name, pairs: {
        row: gate(p["value"], p["stable"], ok(p)) for row, p in pairs.items()}


def best(ok):
    """Gate the best trustworthy row: stable, or a win in every pass.
    With no trustworthy row the claim is too noisy to judge."""
    def check(name, pairs):
        wins = [p["value"] for p in pairs.values()
                if p["stable"] or p["min"] >= 1.0]
        value = max(wins, default=None)
        return {name: gate(value, value is not None,
                           value is None or ok(value))}
    return check


def at_least(bound):
    """A stable ratio must reach `bound`; a noisy one is not gated."""
    return lambda p: not p["stable"] or p["value"] >= bound


def no_loss(p):
    """A loss is a ratio below 1 in every pass, or a stable one."""
    return not (p["max"] < 1.0 or (p["stable"] and p["value"] < 1.0))


ALL = lambda args: True
DISPATCHED = lambda args: args[-1] == 1  # fp32 kernel rows end in the mode

# The gate table. Rows: name, families paired, which rows (by integer
# args) it covers, the check, and whether it applies only on a SIMD
# host: on a 1-CPU or scalar-only host those ratios are recorded, not
# gated. `each` names its gates by row, `best` by the table name.
GATES = (
    # plain / robustness-armed-but-idle serving: the armed path may cost
    # at most 5 %.
    ("BM_ServedKnnRobust", ("BM_ServedKnnRobust",), ALL,
     each(at_least(0.95)), False),
    # stale-index serving / ApplyUpdate + shard-aware cache revalidation.
    ("BM_ServedKnnMutate", ("BM_ServedKnnMutate",), ALL, each(no_loss), False),
    # f64 / fp32 kernel: half the bytes per row must buy 1.4x somewhere
    # in the dim sweep, and no dispatched pair may lose.
    ("fp32_kernel", FP32_KERNELS, DISPATCHED, each(no_loss), True),
    ("fp32_kernel_claim", FP32_KERNELS, DISPATCHED,
     best(lambda v: v >= 1.4), True),
    # f64 exact scan / fp32 mirror + certified refine, end to end: a win
    # somewhere, and no loss at the bandwidth-bound dims.
    ("BM_IndexedKnnF32", ("BM_IndexedKnnF32",), lambda a: a[0] >= 64,
     each(no_loss), True),
    ("fp32_end_to_end_claim", ("BM_IndexedKnnF32",), ALL,
     best(lambda v: v > 1.0), True),
    # per-query loop / one query-block call: batching never costs, and
    # a block of >= 16 queries at dim >= 30 buys 1.3x.
    ("BM_BatchedKnn", ("BM_BatchedKnn",), ALL, each(no_loss), True),
    ("batched_claim", ("BM_BatchedKnn",), lambda a: a[0] >= 16 and a[1] >= 30,
     best(lambda v: v >= 1.3), True),
)


def simd_host(host):
    """A backend other than scalar is active and >= 2 CPUs are online."""
    return (host["kernel-info"].get("active", "scalar") != "scalar" and
            host["cpus_online"] >= 2)


def baseline(entries, host):
    """The latest entry from a host with the same cpus_online and active
    backend whose gates all passed, or None. A failed run never becomes
    the baseline, so a regression fails every run until it is fixed."""
    for e in reversed(entries):
        if (e["host"]["cpus_online"] == host["cpus_online"] and
                e["host"]["kernel-info"].get("active") ==
                host["kernel-info"].get("active") and
                all(g["ok"] for g in e["gates"].values())):
            return e
    return None


def evaluate(samples, host, entries, kernel_exit=0):
    """Gates {name: {value, stable, ok}} for one run against the record."""
    kernel = host["kernel-info"]
    gates = {"kernel_info.exit": gate(kernel_exit, True, kernel_exit == 0)}
    for field in ("equivalence_ok", "op_coverage_ok"):
        gates["kernel_info." + field] = gate(
            kernel.get(field), True, kernel.get(field) is True)
    for name, families, rows, check, simd_only in GATES:
        pairs = {row: p for family in families
                 for row, p in pairs_of(samples, family).items()
                 if rows([int(a) for a in row.split("/")[1:]])}
        for gname, g in check(name, pairs).items():
            g["ok"] = g["ok"] or (simd_only and not simd_host(host))
            gates[gname] = g
    previous = baseline(entries, host)
    if previous:
        now = summarize(samples)
        for name, old in previous["benchmarks"].items():
            if name not in now:
                gates["regression/" + name] = gate(None, False, False)
                continue
            slowdown = now[name]["ns_per_op"] / old["ns_per_op"]
            stable = now[name]["cv"] <= CV_STABLE
            gates["regression/" + name] = gate(
                slowdown, stable, not stable or slowdown <= MAX_SLOWDOWN)
    return gates


def run(cmd):
    return subprocess.run(cmd, cwd=REPO, check=True, text=True,
                          stdout=subprocess.PIPE).stdout


def main():
    run(["cmake", "--preset", "release"])
    run(["cmake", "--build", "--preset", "release", "-j",
         str(os.cpu_count()), "--target", *SUITE, "mocemg_cli"])
    docs = []
    for i in range(PASSES):
        for binary in SUITE:
            print(f"== pass {i + 1}: {binary} ==", file=sys.stderr, flush=True)
            docs.append(json.loads(run(
                [f"build/bench/{binary}", "--benchmark_format=json",
                 f"--benchmark_min_time={MIN_TIME}"])))
    info = subprocess.run(["build/tools/mocemg_cli", "kernel-info", "--json"],
                          cwd=REPO, text=True, stdout=subprocess.PIPE)
    host = {"cpus_online": len(os.sched_getaffinity(0)),
            "kernel-info": json.loads(info.stdout or "{}")}
    entries = ([json.loads(line) for line in RECORD.read_text().splitlines()]
               if RECORD.exists() else [])
    samples = collect(docs)
    gates = evaluate(samples, host, entries, info.returncode)
    # Earlier runs edit record.jsonl, so it does not make a tree dirty.
    dirty = run(["git", "status", "--porcelain", "--", ".",
                 ":!bench/record.jsonl"]).strip()
    commit = run(["git", "rev-parse", "--short", "HEAD"]).strip()
    entry = {"commit": commit + ("-dirty" if dirty else ""),
             "date": datetime.datetime.now(datetime.timezone.utc)
             .isoformat(timespec="seconds"),
             "host": host, "benchmarks": summarize(samples), "gates": gates}
    with RECORD.open("a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")

    for name, g in gates.items():
        if not g["ok"] or not name.startswith("regression/"):
            print(f"{'ok  ' if g['ok'] else 'FAIL'} {name:34s} {g['value']}"
                  f"{'' if g['stable'] else '  (noisy)'}")
    failed = [n for n, g in gates.items() if not g["ok"]]
    base = baseline(entries, host)
    print(f"SIMD host: {simd_host(host)}; {len(failed)} of {len(gates)} gates "
          f"failed ({sum(n.startswith('regression/') for n in gates)} "
          f"regression gates against "
          f"{base['date'] if base else 'no passing same-host run'}); "
          f"appended to {RECORD}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
