#!/usr/bin/env python3
"""Feeds canned google-benchmark JSON through every rule of the gate
table in gates.py. Each bound is probed just inside and just outside,
so moving any bound by 0.01 fails a test."""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gates  # noqa: E402


def host(cpus=4, active="avx512", **kernel):
    return {"cpus_online": cpus, "kernel-info": dict(
        active=active, equivalence_ok=True, op_coverage_ok=True) | kernel}


def spread(value, cv):
    """Three per-pass values with median `value` and coefficient of
    variation `cv`."""
    d = cv / (2 / 3) ** 0.5
    return [value * (1 - d), value, value * (1 + d)]


def paired(name, ratios):
    """Mode 0 / mode 1 samples of `name` whose per-pass quotients are
    `ratios`."""
    return {name + "/0": [1000.0] * len(ratios),
            name + "/1": [1000.0 / r for r in ratios]}


def evaluate(series, host_=None, entries=(), kernel_exit=0):
    docs = [{"benchmarks": [{"name": n, "real_time": v[i], "time_unit": "us"}
                            for n, v in series.items()]} for i in range(3)]
    return gates.evaluate(gates.collect(docs), host_ or host(), list(entries),
                          kernel_exit)


def ok(series, name, **kw):
    return evaluate(series, **kw)[name]["ok"]


def fp32_kernel(ratio, dim=64, mode=1, family="BM_L2F32OneToMany"):
    """The f64 twin runs `ratio` times longer than the fp32 kernel."""
    return {f"{gates.F64_TWIN[family]}/{dim}/{mode}": [1000.0] * 3,
            f"{family}/{dim}/{mode}": [1000.0 / ratio] * 3}


def entry(benchmarks, host_=None, passed=True):
    return {"host": host_ or host(), "benchmarks": {
        n: {"ns_per_op": ns, "cv": 0.0} for n, ns in benchmarks.items()},
        "gates": {"g": {"value": None, "stable": True, "ok": passed}}}


class GateTest(unittest.TestCase):
    def check(self, cases, make, name, **kw):
        for value, expect in cases:
            self.assertEqual(ok(make(value), name, **kw), expect, value)

    def test_robust_overhead_floor(self):
        self.check(((0.94, False), (0.945, False), (0.955, True), (0.96, True)),
                   lambda r: paired("BM_ServedKnnRobust", [r] * 3),
                   "BM_ServedKnnRobust")

    def test_min_time_suffix_keeps_the_row(self):
        # micro_serving runs BM_ServedKnnRobust with ->MinTime(1.0), which
        # names its rows ".../0/min_time:1.000".
        docs = [{"benchmarks": [
            {"name": f"BM_ServedKnnRobust/{m}/min_time:1.000",
             "real_time": t, "time_unit": "us"}
            for m, t in ((0, 1000.0), (1, 1000.0 / 0.94))]}] * 3
        samples = gates.collect(docs)
        self.assertEqual(sorted(samples), ["BM_ServedKnnRobust/0",
                                           "BM_ServedKnnRobust/1"])
        gated = gates.evaluate(samples, host(), [])
        self.assertFalse(gated["BM_ServedKnnRobust"]["ok"])

    def test_noisy_pair_is_not_gated(self):
        self.check(((0.105, True), (0.095, False)),
                   lambda cv: paired("BM_ServedKnnRobust", spread(0.9, cv)),
                   "BM_ServedKnnRobust")

    def test_mutate_may_not_lose(self):
        self.check((([0.995] * 3, False), ([1.005] * 3, True),
                    (spread(0.995, 0.05), False),  # stable, won one pass
                    (spread(1.005, 0.05), True),
                    ([0.5, 0.9, 0.995], False),  # noisy, lost every pass
                    ([0.5, 0.9, 1.005], True)),  # noisy, won one pass
                   lambda rs: paired("BM_ServedKnnMutate", rs),
                   "BM_ServedKnnMutate")

    def test_fp32_kernel(self):
        self.check(((1.395, False), (1.405, True)), fp32_kernel,
                   "fp32_kernel_claim")
        gated = evaluate(fp32_kernel(2.0) | fp32_kernel(0.5, mode=0) |
                         fp32_kernel(0.995, 30, family="BM_L2DotF32OneToMany"))
        self.assertTrue(gated["fp32_kernel_claim"]["ok"])
        self.assertFalse(gated["BM_L2DotF32OneToMany/30/1"]["ok"])
        self.assertNotIn("BM_L2F32OneToMany/64/0", gated)  # scalar row

    def test_fp32_end_to_end(self):
        for name in ("fp32_end_to_end_claim", "BM_IndexedKnnF32/64"):
            self.check(((0.995, False), (1.005, True)),
                       lambda r: paired("BM_IndexedKnnF32/64", [r] * 3), name)
        gated = evaluate(paired("BM_IndexedKnnF32/30", [0.5] * 3) |
                         paired("BM_IndexedKnnF32/128", [1.2] * 3))
        self.assertTrue(gated["fp32_end_to_end_claim"]["ok"])
        self.assertNotIn("BM_IndexedKnnF32/30", gated)  # not bandwidth-bound

    def test_batched(self):
        self.check(((1.295, False), (1.305, True)),
                   lambda r: paired("BM_BatchedKnn/16/30", [r] * 3) |
                   paired("BM_BatchedKnn/4/64", [2.0] * 3),  # not a claim row
                   "batched_claim")
        self.check((([1.005, 1.2, 1.6], False),  # noisy, won every pass
                    ([0.995, 1.2, 1.6], True)),  # noisy, lost one: no claim
                   lambda rs: paired("BM_BatchedKnn/16/30", rs), "batched_claim")
        self.assertFalse(ok(paired("BM_BatchedKnn/64/64", [1.5] * 3) |
                            paired("BM_BatchedKnn/4/16", [0.995] * 3),
                            "BM_BatchedKnn/4/16"))

    def test_claims_fire_only_on_a_simd_host_with_two_cpus(self):
        series = fp32_kernel(1.2) | paired("BM_BatchedKnn/16/64", [0.9] * 3) | \
            paired("BM_IndexedKnnF32/64", [0.9] * 3)
        for h, expect in ((host(), False), (host(cpus=2), False),
                          (host(cpus=1), True), (host(active="scalar"), True)):
            gated = evaluate(series, host_=h)
            for name in ("fp32_kernel_claim", "fp32_end_to_end_claim",
                         "BM_IndexedKnnF32/64", "batched_claim",
                         "BM_BatchedKnn/16/64"):
                self.assertEqual(gated[name]["ok"], expect, (name, h))

    def test_regression_bound(self):
        self.check(((1.21, False), (1.205, False), (1.195, True), (0.5, True)),
                   lambda s: {"BM_X": [100.0 * s] * 3}, "regression/BM_X",
                   entries=[entry({"BM_X": 100000.0})])

    def test_noisy_regression_is_not_gated(self):
        self.check(((0.105, True), (0.095, False)),
                   lambda cv: {"BM_X": spread(150.0, cv)}, "regression/BM_X",
                   entries=[entry({"BM_X": 100000.0})])

    def test_missing_benchmark_fails(self):
        gated = evaluate({"BM_X": [100.0] * 3}, entries=[
            entry({"BM_X": 100000.0, "BM_Y": 100000.0})])
        self.assertTrue(gated["regression/BM_X"]["ok"])
        self.assertFalse(gated["regression/BM_Y"]["ok"])

    def test_baseline_is_the_latest_passing_same_host_entry(self):
        series = {"BM_X": [150.0] * 3}
        for other in (host(cpus=1), host(active="avx2")):
            self.assertNotIn("regression/BM_X", evaluate(
                series, entries=[entry({"BM_X": 100000.0}, other)]))
        self.assertTrue(ok(series, "regression/BM_X", entries=[
            entry({"BM_X": 100000.0}), entry({"BM_X": 140000.0}),
            entry({"BM_X": 50000.0}, host(cpus=1))]))

    def test_a_failed_run_never_becomes_the_baseline(self):
        series = {"BM_X": [150.0] * 3}
        self.assertFalse(ok(series, "regression/BM_X", entries=[
            entry({"BM_X": 100000.0}), entry({"BM_X": 150000.0}, passed=False)]))
        self.assertNotIn("regression/BM_X", evaluate(
            series, entries=[entry({"BM_X": 150000.0}, passed=False)]))

    def test_kernel_info_must_hold(self):
        self.assertTrue(all(g["ok"] for g in evaluate({}).values()))
        self.assertFalse(ok({}, "kernel_info.exit", kernel_exit=1))
        for field in ("equivalence_ok", "op_coverage_ok"):
            self.assertFalse(ok({}, "kernel_info." + field,
                                host_=host(**{field: False})))


if __name__ == "__main__":
    unittest.main()
