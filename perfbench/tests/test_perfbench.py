"""Tests for the benchmark's own code.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke tests start one short benchmark run per workload and mode at
a tiny input scale, each with its own Ray session.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import gen, stats  # noqa: E402
from perfbench.trace import Tracer, covered  # noqa: E402

WORKLOADS = ["build", "search", "refresh", "batch", "dedup"]


# ---------------------------------------------------------------- generators

def test_generators_are_deterministic_for_a_seed():
    assert gen.query_texts(5, 300) == gen.query_texts(5, 300)
    assert gen.query_texts(5, 300) != gen.query_texts(6, 300)
    assert gen.search_stream(5, 300) == gen.search_stream(5, 300)
    assert gen.batch_queries(5, 50).equals(gen.batch_queries(5, 50))
    assert gen.dedup_docs(5, 40).equals(gen.dedup_docs(5, 40))
    assert not gen.dedup_docs(5, 40).equals(gen.dedup_docs(6, 40))
    assert gen.corpus(5, 60).equals(gen.corpus(5, 60))
    files = [f"src/f{i}.ts" for i in range(20)]
    assert gen.edit_plan(5, 3, files) == gen.edit_plan(5, 3, list(files))
    assert gen.marker(5, 3) == gen.marker(5, 3) != gen.marker(5, 4)


def test_query_stream_never_repeats_a_cache_key():
    qs = gen.query_texts(9, 3000)
    assert len({(q.lower().strip(), lim) for q, lim in qs}) == len(qs)
    stream = gen.search_stream(9, 2500)
    assert len({(q.lower().strip(), lim) for _, q, lim in stream}) == len(stream)


def test_query_mix_is_fixed_per_block():
    per_block = len(gen.SEARCH_BLOCK) + len(gen.HYBRID_BLOCK)
    assert per_block == 56
    stream = gen.search_stream(9, 10 * per_block)
    for lo in range(0, len(stream), per_block):
        block = stream[lo:lo + per_block]
        assert sum(k == "hybrid" for k, _, _ in block) == 12
        assert sum(q.startswith("zq") for _, q, _ in block) == 1
        # the rare identifiers are search calls only: 31 per block
        rare = [k for k, q, _ in block if any(ch.isdigit() for ch in q)]
        assert rare == ["search"] * 31


def test_marker_is_one_token():
    from coderag_ray.functions.tokenizer import tokenize

    m = gen.marker(1, 1)
    assert tokenize(m, "code") == [m]


def test_write_tree_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert gen.write_tree(4, a, 60) == gen.write_tree(4, b, 60)
    for dirpath, _, names in os.walk(a):
        for n in names:
            pa_ = os.path.join(dirpath, n)
            with open(pa_, "rb") as fa, open(pa_.replace(a, b, 1), "rb") as fb:
                assert fa.read() == fb.read()


# ---------------------------------------------------------------- percentiles

@pytest.mark.parametrize("q", [50, 75, 90, 95, 99])
def test_percentile_keeps_ten_samples_beyond(q):
    n0 = stats.min_samples(q)
    for n in range(max(1, n0 - 5), n0 + 40):
        vals = list(range(n))  # distinct, so "beyond" is "greater than"
        if n < n0:
            with pytest.raises(ValueError):
                stats.percentile(vals, q)
        else:
            p = stats.percentile(vals, q)
            assert sum(v > p for v in vals) >= stats.MIN_BEYOND


def test_per_layer_tails_follow_the_rule():
    from perfbench.workloads import Ctx, per_call

    ctx = Ctx(seed=1, seconds=1.0, work="")
    per_call(ctx, "few", [0.001] * 199)
    per_call(ctx, "enough", [i / 1000 for i in range(200)])
    assert ctx.layers["few.p50"] == 1.0 and ctx.layers["few.p95"] == 0.0
    assert ctx.layers["enough.p95"] == 189.0
    assert ctx.layer_n["few.p95"] == 199 and ctx.layer_n["enough.p50"] == 200


def test_min_samples_and_highest_percentile():
    assert stats.min_samples(99) == 1000
    assert stats.min_samples(95) == 200
    assert stats.highest_percentile(999) == 95.0
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(19) is None
    s = stats.summary([float(i) for i in range(200)])
    assert s["n"] == 200 and "p95" in s and "p99" not in s


# ---------------------------------------------------------------- spans

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_covered_union_of_overlapping_intervals():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3      # clipped to the parent
    assert covered([(4, 4), (6, 5)], 0, 10) == 0        # empty intervals


def test_self_time_is_span_minus_children():
    clk = FakeClock()
    tr = Tracer(clock=clk)
    with tr.request(7):
        with tr.span("outer"):          # 0 .. 10
            clk.t = 1
            with tr.span("child"):      # 1 .. 4
                clk.t = 2
                with tr.span("grandchild"):  # 2 .. 3, not a direct child of outer
                    clk.t = 3
                clk.t = 4
            clk.t = 6
            with tr.span("child"):      # 6 .. 9
                clk.t = 9
            clk.t = 10
    assert tr.durations("outer") == [10]
    assert tr.self_times("outer") == [10 - 3 - 3]
    assert tr.self_times("child") == [3 - 1, 3]
    assert {s.request for s in tr.spans} == {7}
    parents = {s.name: s.parent for s in tr.spans}
    assert parents["grandchild"] == tr.spans[1].id and parents["outer"] is None


def test_wrap_patches_and_restores_the_resolved_attribute():
    import types

    mod = types.ModuleType("m")
    mod.f = lambda x: x + 1

    class K:
        def g(self, x):
            return mod.f(x) * 2

    seen = []
    tr = Tracer()
    orig_f, orig_g = mod.f, K.__dict__["g"]
    with tr.installed([(mod, "f", "m.f", seen.append), (K, "g", "K.g")]):
        assert K().g(1) == 4
    assert mod.f is orig_f and K.__dict__["g"] is orig_g
    assert seen == [2]
    f_span, = [s for s in tr.spans if s.name == "m.f"]
    g_span, = [s for s in tr.spans if s.name == "K.g"]
    assert f_span.parent == g_span.id


# ---------------------------------------------------------------- smoke runs

def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_correctness_check(workload, trace):
    p = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--scale", "0.05"], ROOT)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = p.stdout.strip().splitlines()
    assert len(lines) == 1, p.stdout  # stdout carries only the result
    res = json.loads(lines[0])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0, p.stderr[-2000:]
    assert res["attempted"] >= 1
    bench = _bench()
    want = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = _run(["--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert p.returncode != 0
    assert p.stdout.strip() == ""
