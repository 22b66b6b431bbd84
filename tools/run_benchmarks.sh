#!/usr/bin/env bash
# Build the release tree, run the microbenchmark suite, and merge the
# results into BENCH_pr2.json / BENCH_pr3.json / BENCH_pr4.json /
# BENCH_pr5.json / BENCH_pr6.json / BENCH_pr7.json at the repo root.
# The pr5 file additionally embeds a "serving" section measured by
# `mocemg_cli serve-bench --json` (QPS and p50/p99 latency for
# per-request exact scan, per-request index, and the batched
# QueryServer at 1/2/8 evaluation threads). The pr6 file holds the
# robustness-overhead pair (BM_ServedKnnRobust): mode 0 is the PR 5
# serving path, mode 1 the same path with deadlines + watermark armed
# but never firing; the run FAILS if the armed path is more than 5%
# slower on a stable measurement. The pr7 file holds the sharded
# scatter-gather families: the BM_ShardedKnn shard-count sweep, the
# single-vs-sharded serving pair, the mutate-while-serving pair
# (whose stable win — shard-aware cache revalidation — IS gated), and
# a second serve-bench run at --shards 4 --pipeline 2. Pipeline-
# overlap ratios are annotated, not gated, when cpus_online is too
# low to overlap anything. The pr8 file holds the scalar-vs-dispatched
# SIMD kernel pairs. The pr9 file
# holds the certified fp32 exact-tier families: cross-family
# fp32-vs-f64 kernel ratios (the dispatched rows carry a gated 1.4x
# claim on SIMD hosts; recorded-only on 1-cpu or scalar hosts), the
# end-to-end BM_IndexedKnnF32 pair, and a third serve-bench run at
# --exact-precision f32 whose rows carry the refine-rate counters.
# The pr10 file holds the query-block batched families
# (BM_BatchedKnn): a per-query NearestNeighbors loop paired against
# one BatchNearestNeighbors query-block call over the identical
# single-thread index, plus the serve-bench per-tier throughput and
# micro-batch-size histograms. On SIMD hosts (dispatched backend,
# >1 CPU) the batch >= 16 / dim >= 30 pairs carry a gated 1.3x
# claim and a stable or directional loss on ANY pair fails the run;
# 1-cpu or scalar-only hosts record ungated.
#
# Usage: tools/run_benchmarks.sh [--update] [--quick]
#
#   (no flag)  run and COMPARE against the committed BENCH_pr2.json,
#              BENCH_pr3.json, BENCH_pr4.json, BENCH_pr5.json, and
#              BENCH_pr6.json: exits non-zero if any benchmark regressed
#              by more than 20% (ns/op) or the robustness layer costs
#              more than 5% on the non-degraded serving path, and prints
#              the serial-vs-pre-PR table the <=5% serial-regression
#              criterion is judged on.
#   --update   additionally rewrite BENCH_pr2.json / BENCH_pr3.json /
#              BENCH_pr4.json / BENCH_pr5.json / BENCH_pr6.json with
#              this run's numbers (the pre_pr section is carried
#              forward).
#   --quick    smoke mode for CI: a single pass with reduced measurement
#              time, printing medians only — no regression gate, no
#              serial table, never writes. Proves the suite builds and
#              runs without paying full measurement cost (the per-binary
#              equivalent is `ctest -L bench-smoke`).
#
# The pre_pr baselines were measured at the commit before the parallel
# substrate landed, same harness, same flags; they are embedded in
# BENCH_pr2.json so the comparison travels with the repo. To re-measure
# them instead of carrying them forward, point MOCEMG_BENCH_PREPR_DIR
# at a bench/ directory built from the pre-PR commit (e.g. a git
# worktree); its binaries then run inside the same passes as the
# current ones, so both sides see the same host load and the ratios
# are meaningful even on a noisy shared machine.
set -euo pipefail

update=0
quick=0
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    --quick) quick=1 ;;
    *)
      echo "usage: $0 [--update] [--quick]" >&2
      exit 2
      ;;
  esac
done
if [[ "$update" == 1 && "$quick" == 1 ]]; then
  echo "--quick never writes; drop one of --update/--quick" >&2
  exit 2
fi

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

suite="micro_pipeline micro_db micro_distance micro_fcm micro_svd \
micro_parallel micro_incremental micro_serving micro_kernels"

cmake --preset release >/dev/null
# shellcheck disable=SC2086
cmake --build --preset release -j "$(nproc)" --target $suite mocemg_cli \
  >/dev/null

out="build/bench_json"
mkdir -p "$out"
rm -f "$out"/*.json
# NOTE: the bundled google-benchmark predates duration suffixes — the
# flag takes a plain number of seconds, not "0.2s".
#
# Three passes over the whole suite, not --benchmark_repetitions: host
# load drifts on a minutes scale, so back-to-back repetitions agree
# with each other while the whole run sits inside one load wave.
# Spreading the samples across the suite duration lets the median (and
# the cv used to decide gating) see that drift.
prepr_dir="${MOCEMG_BENCH_PREPR_DIR:-}"
passes="1 2 3"
min_time=0.1
if [[ "$quick" == 1 ]]; then
  passes="1"
  min_time=0.01
fi
for i in $passes; do
  for b in $suite; do
    echo "== pass $i: $b ==" >&2
    "./build/bench/$b" \
      --benchmark_format=json \
      --benchmark_min_time="$min_time" \
      >"$out/${b}_pass$i.json"
    if [[ -n "$prepr_dir" && -x "$prepr_dir/$b" ]]; then
      echo "== pass $i: $b (pre-PR) ==" >&2
      "$prepr_dir/$b" \
        --benchmark_format=json \
        --benchmark_min_time="$min_time" \
        >"$out/${b}_prepr_pass$i.json"
    fi
  done
done

# One serve-bench run per invocation: its headline ratio
# (qps_vs_exact_scan) is measured within the one process, so it is
# already self-paired against host load the way the /0-vs-/1 families
# are. Quick mode shrinks the synthetic load to smoke-test scale.
serve_args=(--json)
if [[ "$quick" == 1 ]]; then
  serve_args+=(--records 2000 --queries 64 --unique 16)
fi
echo "== serve-bench ==" >&2
./build/tools/mocemg_cli serve-bench "${serve_args[@]}" \
  >"$out/serving.json"
echo "== serve-bench (sharded) ==" >&2
./build/tools/mocemg_cli serve-bench "${serve_args[@]}" \
  --shards 4 --pipeline 2 \
  >"$out/serving_sharded.json"
# PR 9: the same serve-bench load through the certified fp32 exact
# tier. Its JSON rows carry f32_scans / f32_refined / f32_refine_rate;
# answers are verified bit-identical in-process before any number is
# emitted.
echo "== serve-bench (fp32 exact tier) ==" >&2
./build/tools/mocemg_cli serve-bench "${serve_args[@]}" \
  --exact-precision f32 \
  >"$out/serving_f32.json"

# PR 8 host metadata + A/B sections. kernel-info doubles as the
# bit-exactness gate: it exits 1 if any usable SIMD backend diverges
# from the scalar reference on this CPU.
echo "== kernel-info ==" >&2
./build/tools/mocemg_cli kernel-info --json >"$out/kernel_info.json"

MOCEMG_BENCH_UPDATE="$update" MOCEMG_BENCH_QUICK="$quick" \
  python3 - "$out" <<'PYEOF'
import json, os, statistics, sys

out_dir = sys.argv[1]
update = os.environ.get("MOCEMG_BENCH_UPDATE") == "1"
quick = os.environ.get("MOCEMG_BENCH_QUICK") == "1"
bench_path = "BENCH_pr2.json"
bench3_path = "BENCH_pr3.json"
bench4_path = "BENCH_pr4.json"
bench5_path = "BENCH_pr5.json"
bench6_path = "BENCH_pr6.json"
bench7_path = "BENCH_pr7.json"
bench8_path = "BENCH_pr8.json"
bench9_path = "BENCH_pr9.json"
bench10_path = "BENCH_pr10.json"

# micro_incremental families live in BENCH_pr3.json, not BENCH_pr2.json:
# the pr2 file keeps its original scope (parallel substrate + serial
# allocation diet) so its gate history stays comparable. The distance-
# kernel families (micro_distance, paired scalar-vs-kernel, plus the
# micro_db dimension sweep) live in BENCH_pr4.json for the same reason.
PR3_PREFIXES = ("BM_BatchFeaturization", "BM_StreamingPushFrame",
                "BM_ExactWindowSvd", "BM_GramEigensolve")
PR4_PREFIXES = ("BM_KnnScan", "BM_IndexedScan", "BM_FcmEstep",
                "BM_IndexedKnnDim")
# The serving families pair mode 0 (per-request loop) against mode 1
# (batched QueryServer) and live in BENCH_pr5.json together with the
# serve-bench "serving" section.
PR5_PREFIXES = ("BM_ServedKnn",)
# The robustness-overhead pair (PR 6) measures the §12 machinery —
# deadline stamping, expiry sweeps, the watermark check — armed but
# never firing, against the plain PR 5 serving path. NOTE:
# "BM_ServedKnnRobust" also matches the "BM_ServedKnn" PR5 prefix, so
# PR6 names are carved out of the PR5 buckets explicitly below.
PR6_PREFIXES = ("BM_ServedKnnRobust",)
# The sharded scatter-gather families (PR 7): the shard-count fan-out
# sweep, single-vs-sharded serving, and the mutate-while-serving pair.
# The two BM_ServedKnn* names also match the PR5 prefix and are carved
# out of its buckets below, like PR6.
PR7_PREFIXES = ("BM_ShardedKnn", "BM_ServedKnnSharded",
                "BM_ServedKnnMutate")
# The SIMD-dispatch families (PR 8) pair mode 0 (the scalar reference
# table called directly — the previous auto-vectorized build) against
# mode 1 (the runtime-dispatched widest backend). The double family
# depends on how well the auto-vectorizer already did and is annotated
# only.
PR8_PREFIXES = ("BM_L2OneToMany",)
# The fp32 exact-tier families (PR 9). The kernel families carry the
# usual {dim, mode} scalar-vs-dispatched pairing; the fp32-vs-f64
# ratio is computed ACROSS families at mode 1 (dispatched) — each
# pass ran both families seconds apart, so the quotient still cancels
# host load. BM_IndexedKnnF32 pairs mode 0 (f64 exact scan) against
# mode 1 (fp32 mirror scan + certified double refine) end to end.
# NOTE: "BM_L2OneToMany" (PR 8) is a proper prefix of none of these;
# keep it that way — the buckets are prefix-matched.
PR9_PREFIXES = ("BM_L2F32OneToMany", "BM_L2DotF32OneToMany",
                "BM_L2DotF64OneToMany", "BM_IndexedKnnF32")
# The query-block batched family (PR 10) pairs mode 0 (a per-query
# NearestNeighbors loop) against mode 1 (one BatchNearestNeighbors
# call) at each {batch, dim}; the name is BM_BatchedKnn/<batch>/<dim>
# with the mode as the trailing arg like every other pair. The prefix
# collides with no other bucket.
PR10_PREFIXES = ("BM_BatchedKnn",)

# ns/op at the parent of this PR (release build, same harness,
# median of 3 runs interleaved with post-change runs on the same host
# so load drift cancels). Used to seed the pre_pr section on first
# --update; afterwards the committed file's own pre_pr section is
# authoritative and carried forward.
SEED_PRE_PR = {
    "BM_WindowFeatureExtraction/50": 280943.0,
    "BM_WindowFeatureExtraction/100": 183090.0,
    "BM_WindowFeatureExtraction/200": 105067.0,
    "BM_LinearKnn/100": 1735.0,
    "BM_LinearKnn/1000": 18264.0,
    "BM_LinearKnn/10000": 296616.0,
    "BM_IndexedKnn/100": 1589.0,
    "BM_IndexedKnn/1000": 7902.0,
    "BM_IndexedKnn/10000": 29520.0,
    "BM_IndexBuild/1000": 22316546.0,
    "BM_FcmFit/500/6": 6649992.0,
    "BM_FcmFit/500/40": 39204138.0,
    "BM_FcmFit/2000/15": 61931321.0,
    "BM_FcmFit/2000/40": 152343816.0,
    "BM_MembershipEval/6": 300.0,
    "BM_MembershipEval/15": 622.0,
    "BM_MembershipEval/40": 1583.0,
    "BM_ConditionRecording": 272971.0,
}

# Post-PR serial counterparts of the pre-PR benchmarks (thread-arg
# benches pin max_threads=1; names without a thread arg are unchanged).
SERIAL_NAME_MAP = {
    "BM_WindowFeatureExtraction/50": "BM_WindowFeatureExtraction/50/1",
    "BM_WindowFeatureExtraction/100": "BM_WindowFeatureExtraction/100/1",
    "BM_WindowFeatureExtraction/200": "BM_WindowFeatureExtraction/200/1",
}

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# A measurement is only trustworthy when its time-spread samples
# agree: on a shared host, scheduling noise alone can move a benchmark
# by 30%+. The cv (stddev/mean) across passes decides what is gated.
CV_STABLE = 0.10

serving = None
serving_path = os.path.join(out_dir, "serving.json")
if os.path.exists(serving_path):
    with open(serving_path) as f:
        serving = json.load(f)
serving_sharded = None
serving_sharded_path = os.path.join(out_dir, "serving_sharded.json")
if os.path.exists(serving_sharded_path):
    with open(serving_sharded_path) as f:
        serving_sharded = json.load(f)
serving_f32 = None
serving_f32_path = os.path.join(out_dir, "serving_f32.json")
if os.path.exists(serving_f32_path):
    with open(serving_f32_path) as f:
        serving_f32 = json.load(f)
kernel_info = None
kernel_info_path = os.path.join(out_dir, "kernel_info.json")
if os.path.exists(kernel_info_path):
    with open(kernel_info_path) as f:
        kernel_info = json.load(f)

samples = {}
items = {}
pre_samples = {}
for fname in sorted(os.listdir(out_dir)):
    if not fname.endswith(".json") or fname == "serving.json":
        continue
    is_prepr = "_prepr_" in fname
    with open(os.path.join(out_dir, fname)) as f:
        doc = json.load(f)
    for b in doc.get("benchmarks", []):
        name = b["name"]
        ns = b["real_time"] * UNIT_NS[b.get("time_unit", "ns")]
        if is_prepr:
            pre_samples.setdefault(name, []).append(ns)
            continue
        samples.setdefault(name, []).append(ns)
        if "items_per_second" in b:
            items.setdefault(name, []).append(b["items_per_second"])

results = {}
for name, vals in samples.items():
    med = statistics.median(vals)
    mean = statistics.fmean(vals)
    cv = statistics.pstdev(vals) / mean if mean > 0 else 0.0
    entry = {"ns_per_op": round(med, 1), "cv": round(cv, 3)}
    if name in items:
        entry["items_per_second"] = round(
            statistics.median(items[name]), 1)
    # Thread-arg convention: the trailing arg of the parallel-aware
    # benches is max_threads (0 = hardware budget).
    parts = name.split("/")
    threaded = name.startswith("BM_Parallel") or \
        name.startswith("BM_ClassifyBatch") or \
        name.startswith("BM_WindowFeatureExtraction")
    if threaded and len(parts) > 1:
        entry["threads"] = int(parts[-1])
    results[name] = entry

# speedup_vs_1t for every threaded bench family.
for name, entry in results.items():
    if "threads" not in entry or entry["threads"] == 1:
        continue
    base = "/".join(name.split("/")[:-1]) + "/1"
    if base in results:
        entry["speedup_vs_1t"] = round(
            results[base]["ns_per_op"] / entry["ns_per_op"], 3)

# --- paired mode-0-vs-mode-1 speedups (BENCH_pr3/pr4.json) ---
#
# The two modes of each family ran inside the same binary seconds
# apart, so the per-pass ratio baseline/optimized cancels pass-level
# host load; the reported speedup is the median of those paired
# ratios. PR3 pairs exact vs incremental featurization; PR4 pairs the
# seed scalar/AoS paths vs the distance-kernel paths.
def paired_speedups(prefixes, base_key, new_key):
    pair_groups = {}
    for name, vals in samples.items():
        if not name.startswith(prefixes):
            continue
        parts = name.split("/")
        if parts[-1] not in ("0", "1"):
            continue
        pair_groups.setdefault("/".join(parts[:-1]), {})[parts[-1]] = vals
    out = {}
    for base, modes in sorted(pair_groups.items()):
        baseline, new = modes.get("0"), modes.get("1")
        if not baseline or not new or len(baseline) != len(new):
            continue
        ratios = [b / v for b, v in zip(baseline, new)]
        mean = statistics.fmean(ratios)
        # min/max over the per-pass ratios: a magnitude claim needs a
        # small cv, but a win/no-win claim only needs every pass to
        # land on the same side of 1.0 — gates below use min_ratio for
        # that directional test.
        out[base] = {
            base_key: round(statistics.median(baseline), 1),
            new_key: round(statistics.median(new), 1),
            "speedup": round(statistics.median(ratios), 3),
            "min_ratio": round(min(ratios), 3),
            "max_ratio": round(max(ratios), 3),
            "cv": round(statistics.pstdev(ratios) / mean if mean > 0
                        else 0.0, 3),
        }
    return out

def print_speedups(title, speedup_map, base_key, new_key):
    if not speedup_map:
        return
    print(title)
    for base, s in speedup_map.items():
        print(f"  {base:38s} {s[base_key]:12.0f} -> "
              f"{s[new_key]:12.0f}  x{s['speedup']:.2f}")

speedups = paired_speedups(PR3_PREFIXES, "exact_ns_per_op",
                           "incremental_ns_per_op")
print_speedups("exact vs incremental (paired per-pass ratios; "
               "speedup > 1 means incremental is faster):",
               speedups, "exact_ns_per_op", "incremental_ns_per_op")
speedups4 = paired_speedups(PR4_PREFIXES, "scalar_ns_per_op",
                            "kernel_ns_per_op")
print_speedups("scalar vs distance-kernel (paired per-pass ratios; "
               "speedup > 1 means the kernel path is faster):",
               speedups4, "scalar_ns_per_op", "kernel_ns_per_op")
speedups5 = paired_speedups(PR5_PREFIXES, "baseline_ns_per_op",
                            "optimized_ns_per_op")
speedups6 = {k: v for k, v in speedups5.items()
             if k.startswith(PR6_PREFIXES)}
speedups7 = {k: v for k, v in speedups5.items()
             if k.startswith(PR7_PREFIXES)}
speedups5 = {k: v for k, v in speedups5.items()
             if not k.startswith(PR6_PREFIXES + PR7_PREFIXES)}
print_speedups("per-request vs served (paired per-pass ratios; "
               "speedup > 1 means the served path is faster):",
               speedups5, "baseline_ns_per_op", "optimized_ns_per_op")
print_speedups("plain vs robustness-armed serving (paired per-pass "
               "ratios; speedup < 1 means the armed path is slower — "
               "must stay above 0.95):",
               speedups6, "baseline_ns_per_op", "optimized_ns_per_op")
print_speedups("single-index vs sharded serving (paired per-pass "
               "ratios; BM_ServedKnnMutate > 1 is the shard-aware "
               "cache-revalidation win and is gated; "
               "BM_ServedKnnSharded measures fan-out + pipeline and "
               "is annotated only on low-cpu hosts):",
               speedups7, "baseline_ns_per_op", "optimized_ns_per_op")
speedups8 = paired_speedups(PR8_PREFIXES, "scalar_ns_per_op",
                            "dispatched_ns_per_op")
print_speedups("scalar table vs dispatched SIMD backend (paired "
               "per-pass ratios; speedup > 1 means the dispatched "
               "backend is faster; outputs are bit-identical):",
               speedups8, "scalar_ns_per_op", "dispatched_ns_per_op")

# --- fp32 exact-tier pairings (BENCH_pr9.json) ---
#
# Two pairings. (a) Cross-family, same {dim, mode}: the f64 family
# over its fp32 mirror family. Both families ran inside the same pass
# of the same binary seconds apart, so the per-pass quotient cancels
# host load exactly like the mode pairs do. (b) BM_IndexedKnnF32 is a
# plain mode pair: mode 0 answers through the f64 scan, mode 1 through
# the fp32 mirror + certified refine — identical bit-for-bit answers,
# so the ratio is pure wall-clock.
def cross_family_speedups(base_prefix, new_prefix):
    out = {}
    for name, vals in sorted(samples.items()):
        if not name.startswith(new_prefix + "/"):
            continue
        base_vals = samples.get(base_prefix + name[len(new_prefix):])
        if not base_vals or len(base_vals) != len(vals):
            continue
        ratios = [b / v for b, v in zip(base_vals, vals)]
        mean = statistics.fmean(ratios)
        out[name] = {
            "f64_ns_per_op": round(statistics.median(base_vals), 1),
            "f32_ns_per_op": round(statistics.median(vals), 1),
            "speedup": round(statistics.median(ratios), 3),
            "min_ratio": round(min(ratios), 3),
            "max_ratio": round(max(ratios), 3),
            "cv": round(statistics.pstdev(ratios) / mean if mean > 0
                        else 0.0, 3),
        }
    return out

f32_kernel_pairs = {}
f32_kernel_pairs.update(
    cross_family_speedups("BM_L2OneToMany", "BM_L2F32OneToMany"))
f32_kernel_pairs.update(
    cross_family_speedups("BM_L2DotF64OneToMany", "BM_L2DotF32OneToMany"))
if f32_kernel_pairs:
    print("f64 vs fp32 kernel (cross-family paired per-pass ratios; "
          "speedup > 1 means the fp32 kernel is faster; /1 rows are "
          "the dispatched backend and carry the 1.4x claim):")
    for base, s in f32_kernel_pairs.items():
        print(f"  {base:38s} {s['f64_ns_per_op']:12.0f} -> "
              f"{s['f32_ns_per_op']:12.0f}  x{s['speedup']:.2f}")
speedups9 = paired_speedups(("BM_IndexedKnnF32",), "f64_ns_per_op",
                            "f32_ns_per_op")
print_speedups("f64 vs fp32 exact tier, end-to-end indexed kNN "
               "(paired per-pass ratios; answers are bit-identical):",
               speedups9, "f64_ns_per_op", "f32_ns_per_op")
speedups9_dispatch = paired_speedups(
    ("BM_L2F32OneToMany", "BM_L2DotF32OneToMany", "BM_L2DotF64OneToMany"),
    "scalar_ns_per_op", "dispatched_ns_per_op")
speedups10 = paired_speedups(PR10_PREFIXES, "per_query_ns_per_op",
                             "batched_ns_per_op")
print_speedups("per-query loop vs query-block batched scan (paired "
               "per-pass ratios; answers are bit-identical; speedup "
               "> 1 means the many-to-many block engine is faster):",
               speedups10, "per_query_ns_per_op", "batched_ns_per_op")
if kernel_info:
    print(f"kernel dispatch: active={kernel_info.get('active')} "
          f"usable={kernel_info.get('usable')} "
          f"equivalence_ok={kernel_info.get('equivalence_ok')}")
if serving:
    print("serving (mocemg_cli serve-bench, "
          f"{serving['records']}x{serving['dim']}):")
    print(f"  exact scan/request  {serving['exact_scan']['qps']:10.0f}"
          " qps")
    print(f"  index/request       {serving['indexed']['qps']:10.0f}"
          " qps")
    for row in serving.get("served", []):
        print(f"  served ({row['threads']} threads)   "
              f"{row['qps']:10.0f} qps  "
              f"x{row['qps_vs_exact_scan']:.2f} vs scan  "
              f"p50 {row['p50_us']:.0f}us p99 {row['p99_us']:.0f}us")
if serving_sharded:
    print(f"sharded serving (serve-bench --shards "
          f"{serving_sharded.get('shards')} --pipeline "
          f"{serving_sharded.get('pipeline')}):")
    for row in serving_sharded.get("served", []):
        print(f"  served ({row['threads']} threads)   "
              f"{row['qps']:10.0f} qps  "
              f"x{row['qps_vs_exact_scan']:.2f} vs scan  "
              f"p50 {row['p50_us']:.0f}us p99 {row['p99_us']:.0f}us")
if serving_f32:
    print("fp32 exact-tier serving (serve-bench --exact-precision "
          "f32; answers bit-identical to the f64 scan):")
    for row in serving_f32.get("served", []):
        rate = row.get("f32_refine_rate", 0.0)
        print(f"  served ({row['threads']} threads)   "
              f"{row['qps']:10.0f} qps  "
              f"x{row['qps_vs_exact_scan']:.2f} vs scan  "
              f"refine rate {rate:.4f}")

if quick:
    print("\nquick mode: single-pass medians (no gate, nothing "
          "written):")
    for name in sorted(results):
        print(f"  {name:46s} {results[name]['ns_per_op']:14.1f} ns/op")
    sys.exit(0)

committed = None
if os.path.exists(bench_path):
    with open(bench_path) as f:
        committed = json.load(f)
committed3 = None
if os.path.exists(bench3_path):
    with open(bench3_path) as f:
        committed3 = json.load(f)
committed4 = None
if os.path.exists(bench4_path):
    with open(bench4_path) as f:
        committed4 = json.load(f)
committed5 = None
if os.path.exists(bench5_path):
    with open(bench5_path) as f:
        committed5 = json.load(f)
committed6 = None
if os.path.exists(bench6_path):
    with open(bench6_path) as f:
        committed6 = json.load(f)
committed7 = None
if os.path.exists(bench7_path):
    with open(bench7_path) as f:
        committed7 = json.load(f)
committed8 = None
if os.path.exists(bench8_path):
    with open(bench8_path) as f:
        committed8 = json.load(f)
committed9 = None
if os.path.exists(bench9_path):
    with open(bench9_path) as f:
        committed9 = json.load(f)
committed10 = None
if os.path.exists(bench10_path):
    with open(bench10_path) as f:
        committed10 = json.load(f)

if pre_samples:
    # Pre-PR binaries ran inside the same passes as the current ones:
    # use their live medians as the baseline so both sides of every
    # ratio saw the same host load.
    pre_pr = {name: round(statistics.median(vals), 1)
              for name, vals in sorted(pre_samples.items())
              if name in SEED_PRE_PR}
    print(f"pre_pr baselines re-measured in-pass "
          f"({len(pre_pr)} benchmarks)")
else:
    pre_pr = committed["pre_pr"] if committed else SEED_PRE_PR

# --- serial-vs-pre-PR table (the <=5% serial regression criterion) ---
#
# With in-pass pre-PR binaries the ratio is the median of PAIRED
# per-pass ratios: the two sides of each pair ran seconds apart, so
# pass-level load cancels out of the quotient. Without them (pre_pr
# carried forward from the committed file) it is a plain quotient of
# medians and the post-run cv decides stability.
print()
print("serial path vs pre-PR baseline (ratio < 1 is faster; "
      f"cv > {CV_STABLE:.2f} marks the run too noisy to judge):")
worst_serial = 0.0
serial_section = {}
for pre_name, pre_ns in sorted(pre_pr.items()):
    now_name = SERIAL_NAME_MAP.get(pre_name, pre_name)
    now = results.get(now_name)
    if now is None:
        print(f"  {pre_name:42s} MISSING from this run")
        continue
    pre_vals = pre_samples.get(pre_name, [])
    post_vals = samples.get(now_name, [])
    if pre_vals and len(pre_vals) == len(post_vals):
        # Both lists are in pass order (sorted filenames), so index i
        # pairs the two adjacent runs of pass i+1.
        ratios = [p / q for p, q in zip(post_vals, pre_vals)]
        ratio = statistics.median(ratios)
        mean = statistics.fmean(ratios)
        cv = statistics.pstdev(ratios) / mean if mean > 0 else 0.0
        paired = True
    else:
        ratio = now["ns_per_op"] / pre_ns
        cv = now.get("cv", 0.0)
        paired = False
    noisy = cv > CV_STABLE
    if not noisy:
        worst_serial = max(worst_serial, ratio)
    serial_section[pre_name] = {
        "pre_ns_per_op": pre_ns,
        "now_ns_per_op": now["ns_per_op"],
        "ratio": round(ratio, 3),
        "cv": round(cv, 3),
        "paired": paired,
    }
    flag = f"  NOISY (cv={cv:.2f})" if noisy else ""
    print(f"  {pre_name:42s} {pre_ns:14.0f} -> {now['ns_per_op']:14.0f}"
          f"  x{ratio:.3f}{flag}")
print(f"  worst stable ratio: x{worst_serial:.3f} "
      f"({'OK' if worst_serial <= 1.05 else 'ABOVE the 5% criterion'})")

# --- regression gate vs the committed BENCH_pr2.json / BENCH_pr3.json ---
failures = []
noisy_skips = []
for path, doc_ in ((bench_path, committed), (bench3_path, committed3),
                   (bench4_path, committed4), (bench5_path, committed5),
                   (bench6_path, committed6), (bench7_path, committed7),
                   (bench8_path, committed8), (bench9_path, committed9),
                   (bench10_path, committed10)):
    if not doc_:
        continue
    for name, old in doc_.get("benchmarks", {}).items():
        now = results.get(name)
        if now is None:
            failures.append(f"{name}: present in {path} but "
                            f"missing from this run")
            continue
        ratio = now["ns_per_op"] / old["ns_per_op"]
        if ratio > 1.20:
            line = (f"{name}: {old['ns_per_op']:.0f} -> "
                    f"{now['ns_per_op']:.0f} ns/op (x{ratio:.2f} > x1.20)")
            # Only gate on measurements whose repetitions agree; a
            # high-cv run says more about the host than the code.
            if now.get("cv", 0.0) > CV_STABLE:
                noisy_skips.append(line + f" [cv={now['cv']:.2f}]")
            else:
                failures.append(line)

cpus = len(os.sched_getaffinity(0))
results2 = {n: e for n, e in results.items()
            if not n.startswith(PR3_PREFIXES + PR4_PREFIXES +
                                PR5_PREFIXES + PR7_PREFIXES +
                                PR8_PREFIXES + PR9_PREFIXES +
                                PR10_PREFIXES)}
results3 = {n: e for n, e in results.items()
            if n.startswith(PR3_PREFIXES)}
results4 = {n: e for n, e in results.items()
            if n.startswith(PR4_PREFIXES)}
results5 = {n: e for n, e in results.items()
            if n.startswith(PR5_PREFIXES) and
            not n.startswith(PR6_PREFIXES + PR7_PREFIXES)}
results6 = {n: e for n, e in results.items()
            if n.startswith(PR6_PREFIXES)}
results7 = {n: e for n, e in results.items()
            if n.startswith(PR7_PREFIXES)}
results8 = {n: e for n, e in results.items()
            if n.startswith(PR8_PREFIXES)}
results9 = {n: e for n, e in results.items()
            if n.startswith(PR9_PREFIXES)}
results10 = {n: e for n, e in results.items()
             if n.startswith(PR10_PREFIXES)}

# --- robustness-overhead check (the <5% non-degraded criterion) ---
#
# The armed-but-idle robustness layer must not slow the serving fast
# path: a stable paired ratio (plain/armed) below 0.95 fails the run.
# Noisy pairs are reported but not gated, same policy as everywhere
# else in this script.
robust_check = {}
for base, s in speedups6.items():
    stable = s["cv"] <= CV_STABLE
    ok = s["speedup"] >= 0.95 or not stable
    robust_check[base] = {
        "speedup": s["speedup"],
        "cv": s["cv"],
        "stable": stable,
        "ok": ok,
    }
    if not ok:
        failures.append(
            f"{base}: robustness layer costs "
            f"{(1.0 / s['speedup'] - 1.0) * 100.0:.1f}% on the "
            f"non-degraded serving path (x{s['speedup']:.3f} < x0.95, "
            f"cv={s['cv']:.2f})")
    elif stable:
        print(f"robustness overhead {base}: x{s['speedup']:.3f} "
              f"(within the 5% budget)")
    else:
        print(f"robustness overhead {base}: x{s['speedup']:.3f} "
              f"NOISY (cv={s['cv']:.2f}) — not gated")

# --- sharded serving checks (PR 7) ---
#
# BM_ServedKnnMutate is the family the sharded cache key exists for:
# its stable paired ratio (stale-index full-invalidation serving vs
# ApplyUpdate + shard-aware revalidation) must be a win, and IS gated.
# BM_ServedKnnSharded measures scatter-gather fan-out plus the wave
# pipeline; on a host with too few CPUs the pipeline cannot overlap
# stages and sharding is pure overhead, so that ratio is annotated,
# never gated.
sharded_check = {}
for base, s in speedups7.items():
    stable = s["cv"] <= CV_STABLE
    # Magnitude can be noisy while the win itself is unambiguous: if
    # the slowest pass still beat the baseline by 20%+, every sample
    # agrees on direction and the win/loss gate may fire either way.
    directional_win = s.get("min_ratio", 0.0) >= 1.2
    directional_loss = s.get("max_ratio", float("inf")) < 1.0
    is_mutate = base.startswith("BM_ServedKnnMutate")
    ok = True
    if is_mutate and (directional_loss or (stable and s["speedup"] < 1.0)):
        ok = False
        failures.append(
            f"{base}: shard-aware cache revalidation lost to full "
            f"invalidation (x{s['speedup']:.3f} < x1.0, "
            f"cv={s['cv']:.2f})")
    sharded_check[base] = {
        "speedup": s["speedup"],
        "min_ratio": s.get("min_ratio"),
        "max_ratio": s.get("max_ratio"),
        "cv": s["cv"],
        "stable": stable,
        "directional_win": directional_win,
        "gated": is_mutate,
        "ok": ok,
    }
    if is_mutate:
        label = "mutate-while-serving win"
    else:
        label = "sharded fan-out/pipeline ratio"
    note = ""
    if not stable and directional_win:
        note = (f" WIN in every pass (worst x{s['min_ratio']:.2f}); "
                f"magnitude noisy (cv={s['cv']:.2f})")
    elif not stable:
        note = f" NOISY (cv={s['cv']:.2f}) — not gated"
    elif not is_mutate and cpus < 2:
        note = (f" (annotation only: cpus_online={cpus} cannot "
                "overlap pipeline stages, so fan-out overhead "
                "dominates)")
    print(f"{label} {base}: x{s['speedup']:.3f}{note}")

# --- SIMD dispatch checks (PR 8) ---
#
# kernel-info already gated bit-exactness (the script would have died
# on its non-zero exit). The double family is annotated only — on
# hosts where the auto-vectorizer already emits wide code its ratio is
# legitimately near 1.0.
dispatch_check = {}
for base, s in speedups8.items():
    dispatch_check[base] = {
        "speedup": s["speedup"],
        "min_ratio": s.get("min_ratio"),
        "max_ratio": s.get("max_ratio"),
        "cv": s["cv"],
        "stable": s["cv"] <= CV_STABLE,
        "directional_win": s.get("min_ratio", 0.0) >= 1.0,
        "gated": False,
        "ok": True,
    }
if kernel_info is not None and not kernel_info.get("equivalence_ok"):
    failures.append("kernel-info reported a backend/scalar divergence")
if kernel_info is not None and kernel_info.get("op_coverage_ok") is False:
    failures.append("kernel-info reported a backend with missing ops")

# --- fp32 exact-tier checks (PR 9) ---
#
# The tier's perf claim has two halves, both gated only on hosts that
# can exhibit them: a real SIMD backend is active AND there is more
# than one CPU online (the "SIMD host" condition — on 1-cpu or
# scalar-only hosts every ratio is recorded but nothing is gated).
#   (a) Kernel claim: the dispatched (/1) fp32-vs-f64 cross-family
#       ratio must reach 1.4x somewhere in the dim sweep — half the
#       bytes per row should buy at least that once rows stream from
#       memory — and no dispatched pair may lose directionally.
#   (b) End-to-end claim: BM_IndexedKnnF32 must show an indexed-kNN
#       win at some dim, and may not lose at the bandwidth-bound dims
#       (>= 64). The narrow dim-30 row is annotated only: there the
#       scan is a small fraction of per-query time, so its ratio says
#       little about the tier.
f32_simd_host = bool(kernel_info) and \
    kernel_info.get("active") not in (None, "scalar")
f32_gated = f32_simd_host and cpus >= 2
f32_check = {}
best_kernel_win = 0.0
for base, s in sorted(f32_kernel_pairs.items()):
    stable = s["cv"] <= CV_STABLE
    dispatched = base.endswith("/1")
    directional_loss = s["max_ratio"] < 1.0
    ok = True
    if f32_gated and dispatched and \
            (directional_loss or (stable and s["speedup"] < 1.0)):
        ok = False
        failures.append(
            f"{base}: fp32 kernel lost to its f64 counterpart "
            f"(x{s['speedup']:.3f} < x1.0, cv={s['cv']:.2f})")
    if dispatched and (stable or s["min_ratio"] >= 1.0):
        best_kernel_win = max(best_kernel_win, s["speedup"])
    f32_check[base] = {
        "speedup": s["speedup"],
        "min_ratio": s["min_ratio"],
        "max_ratio": s["max_ratio"],
        "cv": s["cv"],
        "stable": stable,
        "gated": bool(f32_gated and dispatched),
        "ok": ok,
    }
if f32_gated and f32_kernel_pairs:
    if best_kernel_win >= 1.4:
        print(f"fp32 kernel claim: best dispatched fp32-vs-f64 win "
              f"x{best_kernel_win:.2f} (>= x1.4)")
    elif best_kernel_win > 0.0:
        failures.append(
            f"fp32 kernel claim: best dispatched fp32-vs-f64 win is "
            f"x{best_kernel_win:.2f}, below the 1.4x claim on a SIMD "
            f"host (active={kernel_info.get('active')})")
    else:
        print("fp32 kernel claim: all dispatched pairs too noisy to "
              "judge — not gated")
elif f32_kernel_pairs:
    print(f"fp32 kernel claim recorded only (simd_host="
          f"{f32_simd_host}, cpus_online={cpus})")
best_e2e_win = 0.0
for base, s in sorted(speedups9.items()):
    stable = s["cv"] <= CV_STABLE
    directional_loss = s["max_ratio"] < 1.0
    dim = int(base.split("/")[1])
    bandwidth_bound = dim >= 64
    ok = True
    if f32_gated and bandwidth_bound and \
            (directional_loss or (stable and s["speedup"] < 1.0)):
        ok = False
        failures.append(
            f"{base}: fp32 exact tier lost to the f64 scan end to end "
            f"(x{s['speedup']:.3f} < x1.0, cv={s['cv']:.2f})")
    if stable or s["min_ratio"] >= 1.0:
        best_e2e_win = max(best_e2e_win, s["speedup"])
    f32_check[base] = {
        "speedup": s["speedup"],
        "min_ratio": s["min_ratio"],
        "max_ratio": s["max_ratio"],
        "cv": s["cv"],
        "stable": stable,
        "gated": bool(f32_gated and bandwidth_bound),
        "ok": ok,
    }
if f32_gated and speedups9:
    if best_e2e_win > 1.0:
        print(f"fp32 end-to-end claim: best indexed-kNN win "
              f"x{best_e2e_win:.2f}")
    elif best_e2e_win > 0.0:
        failures.append(
            f"fp32 end-to-end claim: no indexed-kNN improvement on a "
            f"SIMD host (best stable x{best_e2e_win:.2f})")
    else:
        print("fp32 end-to-end claim: all pairs too noisy to judge — "
              "not gated")
elif speedups9:
    print(f"fp32 end-to-end claim recorded only (simd_host="
          f"{f32_simd_host}, cpus_online={cpus})")

# --- query-block batched-scan checks (PR 10) ---
#
# Batched and per-query answers are bit-identical by the §16 contract
# (and by the query_block_test grid), so every ratio is pure
# wall-clock. The claim is amortization: one many-to-many kernel call
# per (tier, partition group) must beat batch separate one-to-many
# scans once the block is wide enough to amortize the per-partition
# bytes. Gated only on SIMD hosts (same condition as PR 9: a real
# dispatched backend AND >1 CPU online):
#   (a) Claim: the best stable batch >= 16 / dim >= 30 pair must reach
#       1.3x — re-streaming the same rows for 16+ queries has to buy
#       at least that.
#   (b) No pair — including the small batch-4 warmup row — may lose
#       directionally or show a stable ratio below 1.0: batching must
#       never cost latency.
# 1-cpu or scalar-only hosts record every ratio ungated.
batched_gated = f32_simd_host and cpus >= 2
batched_check = {}
best_batched_win = 0.0
for base, s in sorted(speedups10.items()):
    stable = s["cv"] <= CV_STABLE
    directional_loss = s["max_ratio"] < 1.0
    batch = int(base.split("/")[1])
    dim = int(base.split("/")[2])
    claim_row = batch >= 16 and dim >= 30
    ok = True
    if batched_gated and \
            (directional_loss or (stable and s["speedup"] < 1.0)):
        ok = False
        failures.append(
            f"{base}: query-block batched scan lost to the per-query "
            f"loop (x{s['speedup']:.3f} < x1.0, cv={s['cv']:.2f})")
    if claim_row and (stable or s["min_ratio"] >= 1.0):
        best_batched_win = max(best_batched_win, s["speedup"])
    batched_check[base] = {
        "speedup": s["speedup"],
        "min_ratio": s["min_ratio"],
        "max_ratio": s["max_ratio"],
        "cv": s["cv"],
        "stable": stable,
        "claim_row": claim_row,
        "gated": batched_gated,
        "ok": ok,
    }
if batched_gated and speedups10:
    if best_batched_win >= 1.3:
        print(f"batched-knn claim: best stable batch>=16/dim>=30 win "
              f"x{best_batched_win:.2f} (>= x1.3)")
    elif best_batched_win > 0.0:
        failures.append(
            f"batched-knn claim: best stable batch>=16/dim>=30 win is "
            f"x{best_batched_win:.2f}, below the 1.3x claim on a SIMD "
            f"host (active={kernel_info.get('active')})")
    else:
        print("batched-knn claim: all claim rows too noisy to judge — "
              "not gated")
elif speedups10:
    print(f"batched-knn claim recorded only (simd_host="
          f"{f32_simd_host}, cpus_online={cpus})")

# The serve-bench rows now carry per-tier throughput and the
# micro-batch-size histogram; BENCH_pr10.json keeps just those fields
# per served row so the batching behavior travels with the numbers.
def served_batching_rows(doc_):
    rows = []
    for row in (doc_ or {}).get("served", []):
        rows.append({
            "threads": row.get("threads"),
            "qps": row.get("qps"),
            "tier_throughput": row.get("tier_throughput"),
            "batch_size_hist": row.get("batch_size_hist"),
        })
    return rows or None

doc = {
    "schema": "mocemg-bench-pr2",
    "host": {
        "cpus_online": cpus,
        "note": "thread-scaling speedups are bounded by cpus_online; "
                "on a 1-cpu host the parallel path can only match the "
                "serial path, and the win is the serial allocation "
                "diet measured against pre_pr.",
    },
    "pre_pr": pre_pr,
    "benchmarks": results2,
    "serial_vs_pre_pr": serial_section,
}
doc4 = {
    "schema": "mocemg-bench-pr4",
    "host": {
        "cpus_online": cpus,
        "note": "paired_speedups divide per-pass mode-0 (seed scalar/"
                "AoS replica) by mode-1 (distance-kernel path) runs of "
                "the same binary, so host load cancels; speedup > 1 "
                "means the kernel path is faster. All rows are serial "
                "and measured on the portable (non -march=native) "
                "build.",
    },
    "benchmarks": results4,
    "paired_speedups": speedups4,
}
doc5 = {
    "schema": "mocemg-bench-pr5",
    "host": {
        "cpus_online": cpus,
        "note": "paired_speedups divide per-pass mode-0 (per-request "
                "loop) by mode-1 (batched QueryServer) runs of the same "
                "binary, so host "
                "load cancels. The serving section comes from one "
                "mocemg_cli serve-bench process; its qps_vs_exact_scan "
                "ratios are likewise in-process pairs. Served results "
                "are verified bit-identical to the linear scan before "
                "any number is reported.",
    },
    "benchmarks": results5,
    "paired_speedups": speedups5,
    "serving": serving,
}
doc6 = {
    "schema": "mocemg-bench-pr6",
    "host": {
        "cpus_online": cpus,
        "note": "paired_speedups divide per-pass mode-0 (plain PR 5 "
                "serving path) by mode-1 (deadlines + degradation "
                "watermark armed but never firing) runs of the same "
                "binary, so host load cancels. robust_overhead_check "
                "gates the <5% non-degraded overhead criterion: a "
                "stable speedup below 0.95 fails the run.",
    },
    "benchmarks": results6,
    "paired_speedups": speedups6,
    "robust_overhead_check": robust_check,
}
doc7 = {
    "schema": "mocemg-bench-pr7",
    "host": {
        "cpus_online": cpus,
        "note": "BM_ShardedKnn sweeps shard count at one thread (the "
                "fan-out overhead curve; on multi-core hosts it becomes "
                "the scaling curve). BM_ServedKnnSharded pairs the "
                "single-index server against 4 shards + a 2-deep wave "
                "pipeline and is annotated, not gated, when cpus_online "
                "is too low to overlap stages. BM_ServedKnnMutate pairs "
                "stale-index serving (exact fallback + full cache loss "
                "per mutation) against ApplyUpdate + shard-aware cache "
                "revalidation; its stable win is gated. The "
                "serving_sharded section is a second serve-bench run at "
                "--shards 4 --pipeline 2 with per-shard counters.",
    },
    "benchmarks": results7,
    "paired_speedups": speedups7,
    "sharded_serving_check": sharded_check,
    "serving_sharded": serving_sharded,
}
doc8 = {
    "schema": "mocemg-bench-pr8",
    "host": {
        "cpus_online": cpus,
        "kernel": kernel_info,
        "note": "paired_speedups divide per-pass mode-0 (the scalar "
                "reference table called directly, i.e. the previous "
                "auto-vectorized build) by mode-1 (the runtime-"
                "dispatched widest SIMD backend) runs of the same "
                "binary, so host load cancels; outputs are verified "
                "bit-identical by kernel-info and the unit tests "
                "before any number is reported. The double family "
                "is annotated, not gated.",
    },
    "benchmarks": results8,
    "paired_speedups": speedups8,
    "dispatch_check": dispatch_check,
}
doc9 = {
    "schema": "mocemg-bench-pr9",
    "host": {
        "cpus_online": cpus,
        "kernel": kernel_info,
        "note": "fp32_vs_f64_kernel divides per-pass f64-family runs "
                "by the matching fp32-family runs at the same {dim, "
                "mode} (cross-family, same binary, same pass, so host "
                "load cancels); /1 rows are the dispatched backend and "
                "carry the gated 1.4x kernel claim on SIMD hosts. "
                "indexed_knn_f32_vs_f64 pairs mode 0 (f64 exact scan) "
                "against mode 1 (fp32 mirror scan + error-bound-gated "
                "double refine) end to end; answers are bit-identical "
                "by construction and by test, so every ratio is pure "
                "wall-clock. On 1-cpu or scalar-only hosts all ratios "
                "are recorded but not gated. The serving_f32 section "
                "is a serve-bench run at --exact-precision f32; its "
                "rows carry the f32_scans / f32_refined / "
                "f32_refine_rate counters.",
    },
    "benchmarks": results9,
    "fp32_vs_f64_kernel": f32_kernel_pairs,
    "indexed_knn_f32_vs_f64": speedups9,
    "dispatch_pairs": speedups9_dispatch,
    "f32_check": f32_check,
    "serving_f32": serving_f32,
}
doc10 = {
    "schema": "mocemg-bench-pr10",
    "host": {
        "cpus_online": cpus,
        "kernel": kernel_info,
        "note": "batched_vs_per_query divides per-pass mode-0 (batch "
                "separate NearestNeighbors calls) by mode-1 (one "
                "BatchNearestNeighbors query-block call) runs of the "
                "same binary over the same single-thread index, so "
                "host load cancels; answers are bit-identical by the "
                "DESIGN.md §16 contract and the query_block_test "
                "grid, so every ratio is pure wall-clock. On SIMD "
                "hosts the best stable batch>=16/dim>=30 row carries "
                "the gated 1.3x amortization claim and any "
                "directional loss fails the run; 1-cpu or scalar-only "
                "hosts record ungated. serving_batching keeps the "
                "per-tier throughput and micro-batch-size histogram "
                "from each serve-bench run.",
    },
    "benchmarks": results10,
    "batched_vs_per_query": speedups10,
    "batched_check": batched_check,
    "serving_batching": {
        "single": served_batching_rows(serving),
        "sharded": served_batching_rows(serving_sharded),
        "f32": served_batching_rows(serving_f32),
    },
}
doc3 = {
    "schema": "mocemg-bench-pr3",
    "host": {
        "cpus_online": cpus,
        "note": "paired_speedups divide per-pass exact by incremental "
                "runs of the same binary, so host load cancels; "
                "speedup > 1 means the incremental engine is faster. "
                "Batch rows are serial (max_threads=1); streaming rows "
                "measure one PushFrame on the 100 ms / 25 ms hop "
                "geometry.",
    },
    "benchmarks": results3,
    "paired_speedups": speedups,
}

if update:
    with open(bench_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {bench_path} ({len(results2)} benchmarks, "
          f"cpus_online={cpus})")
    with open(bench3_path, "w") as f:
        json.dump(doc3, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {bench3_path} ({len(results3)} benchmarks, "
          f"{len(speedups)} paired speedups)")
    with open(bench4_path, "w") as f:
        json.dump(doc4, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {bench4_path} ({len(results4)} benchmarks, "
          f"{len(speedups4)} paired speedups)")
    with open(bench5_path, "w") as f:
        json.dump(doc5, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {bench5_path} ({len(results5)} benchmarks, "
          f"{len(speedups5)} paired speedups, "
          f"{'with' if serving else 'WITHOUT'} serving section)")
    with open(bench6_path, "w") as f:
        json.dump(doc6, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {bench6_path} ({len(results6)} benchmarks, "
          f"{len(speedups6)} paired speedups)")
    with open(bench7_path, "w") as f:
        json.dump(doc7, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {bench7_path} ({len(results7)} benchmarks, "
          f"{len(speedups7)} paired speedups, "
          f"{'with' if serving_sharded else 'WITHOUT'} sharded serving "
          f"section)")
    with open(bench8_path, "w") as f:
        json.dump(doc8, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {bench8_path} ({len(results8)} benchmarks, "
          f"{len(speedups8)} paired speedups)")
    with open(bench9_path, "w") as f:
        json.dump(doc9, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {bench9_path} ({len(results9)} benchmarks, "
          f"{len(f32_kernel_pairs)} fp32-vs-f64 kernel pairs, "
          f"{'with' if serving_f32 else 'WITHOUT'} serving_f32 "
          f"section)")
    with open(bench10_path, "w") as f:
        json.dump(doc10, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {bench10_path} ({len(results10)} benchmarks, "
          f"{len(speedups10)} batched-vs-per-query pairs)")

if noisy_skips:
    print("\nslower than the committed baseline but too noisy to gate:")
    for line in noisy_skips:
        print(f"  {line}")
if failures:
    print("\nBENCHMARK REGRESSION (>20% vs committed "
          "BENCH_pr2.json/BENCH_pr3.json):", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("\nno benchmark regressed more than 20% vs the committed baselines"
      if (committed or committed3 or committed4 or committed5 or
          committed6) else
      "\nno committed baselines yet - run with --update to create them")
PYEOF
