"""Self-tests of the benchmark: corrupted outputs must count as failed pairs.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import workloads
from run import highest_percentile
from workloads import DEFAULT_SEED, WORKLOADS, jf

HERE = Path(__file__).resolve().parent
# the sample workload with fewer draws, so that each pair takes well under a second
SAMPLE = dataclasses.replace(WORKLOADS["sample-sq12"], draws=50)


@pytest.fixture(scope="module")
def model():
    return jf.default_model()


def _corrupting(monkeypatch, corrupt):
    original = workloads.run_pipeline

    def pipeline(w, model, pair, span=workloads._no_span):
        out = original(w, model, pair, span)
        corrupt(out)
        return out

    monkeypatch.setattr(workloads, "run_pipeline", pipeline)


def test_clean_run_has_no_failures(model):
    result = workloads.run(SAMPLE, model, seed=5, seconds=3.0, trace=False)
    assert result["attempted"] >= 2
    assert result["failed"] == 0, result["errors"]
    for kind in ("pair", "setup"):
        assert len(result[f"{kind}_scaled"]) == len(result[f"{kind}_times"]) == result["attempted"]
        assert all(t > 0 for t in result[f"{kind}_scaled"])


def test_scaled_q_total_fails_the_reference_pair(model, monkeypatch):
    def scale(out):
        out.res.q_total *= 1.0 + 1e-6

    _corrupting(monkeypatch, scale)
    result = workloads.run(SAMPLE, model, seed=DEFAULT_SEED, seconds=0.0, trace=False)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "reference" in result["errors"][0]


def test_crossing_draw_fails_the_pair(model, monkeypatch):
    def cross(out):
        bad = jf.JointStructure(n=12, m=12, interior_r=frozenset({(1, 7), (3, 12)}))
        structures = (bad,) + out.batch.structures[1:]
        out.batch = dataclasses.replace(out.batch, structures=structures)

    _corrupting(monkeypatch, cross)
    result = workloads.run(SAMPLE, model, seed=3, seconds=0.0, trace=False)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "invalid draws" in result["errors"][0]


def test_probability_checks(model):
    w = workloads.Workload("targets-tiny", 7, 9, "targets")
    out = workloads.run_pipeline(w, model, workloads.make_pair(w, 4, 1))
    assert workloads.check_output(w, model, out, None) == []
    out.prob.bpp_ext[2, 3] += 1.0
    errors = workloads.check_output(w, model, out, None)
    assert any("bpp_ext" in e for e in errors)
    assert any("base paired" in e for e in errors)


def test_no_interaction_share_bound():
    assert workloads._binomial_tail(1, 1000, 0.001) > 0.1
    assert workloads._binomial_tail(30, 1000, 0.001) < 1e-9
    assert workloads._binomial_tail(0, 1000, 0.05) < 1e-9


def test_highest_percentile_keeps_ten_samples_above():
    # n = 1000: p99 is index 990 with 9 samples above it, so p95 is the highest
    assert highest_percentile(list(range(1000))) == (95.0, 950)
    assert highest_percentile(list(range(1100))) == (99.0, 1089)
    # n = 20: the median (index 10) has 9 samples above it
    assert highest_percentile(list(range(20))) is None
    assert highest_percentile(list(range(21))) == (50.0, 10)


def test_recorded_references_reproduce(model):
    refs = workloads.load_references(SAMPLE)
    assert sorted(refs) == list(range(workloads.REFERENCE_PAIRS))
    for k in refs:
        pair = workloads.make_pair(SAMPLE, DEFAULT_SEED, k)
        ref = workloads.reference_for(pair, refs)
        R, S = pair.strands()
        assert jf.inside(R, S, model).q_total == pytest.approx(ref["q_total"], rel=1e-9)


def test_traced_run_reads_zero_for_bypassed_layers(model):
    einsum = numpy.einsum
    result = workloads.run(SAMPLE, model, seed=2, seconds=0.0, trace=True)
    assert numpy.einsum is einsum
    assert result["failed"] == 0, result["errors"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(workloads.LAYER_UNITS)
    for name, value in metrics.items():
        if name.startswith("outside_prob.") or name == "secfold.outside_s":
            assert value == 0, name
    assert metrics["grammar_inside.einsum_calls"] > 0
    assert metrics["sampler.draw_s"] > metrics["sampler.draw_self_s"] > 0
    assert abs(metrics["trace.coverage"] - 1.0) < 0.05


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pf-sq24", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_prints_result_json():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sample-sq12", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "pair_s", "pairs_per_s", "peak_rss_mb"}
