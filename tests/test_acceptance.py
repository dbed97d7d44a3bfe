"""Acceptance suite: one test per shipped guarantee, at pinned tolerances.

Each test prints one ``ACCEPTANCE <id> PASS`` line on success (``pytest -s``
shows them); a failure raises, so the suite is the release gate.  The
brute-force oracle is the reference for every numeric claim.
"""

from __future__ import annotations

import io
import time
from collections import Counter

import numpy as np
import pytest

from jointfold._cases import verify_reconstruction
from jointfold.cli_reports import RunConfig, format_target_line, run
from jointfold.energy import unit_model
from jointfold.grammar_inside import InsideResult, estimate_memory_bytes, inside
from jointfold.oracle import enumerate_interactions, exact_probabilities
from jointfold.outside_prob import hybrid_probabilities, outside, target_sites
from jointfold.sampler import sample_batch
from jointfold.seq_model import Strand, extract_hybrids, validate

from helpers import au_rich_seq, random_model, random_seq


def strands(r: str, s_internal: str):
    return Strand.query(r), Strand.target_internal(s_internal)


def _report(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid} PASS: {detail}")


def _criterion2_instances():
    """The shared weighted corpus: >= 20 pairs with |R|,|S| <= 6."""
    rng = np.random.default_rng(20240811)
    out = []
    for k in range(20):
        r = random_seq(rng, int(rng.integers(1, 7)))
        s = random_seq(rng, int(rng.integers(1, 7)))
        theta = int(rng.integers(0, 4))
        out.append((r, s, random_model(rng, min_hairpin=theta)))
    return out


class TestAcceptance:
    def test_01_counting_equivalence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        pairs = [
            (random_seq(rng, int(rng.integers(1, 8))),
             random_seq(rng, int(rng.integers(1, 8))),
             int(rng.integers(0, 4)))
            for _ in range(30)
        ]
        pairs += [
            (au_rich_seq(rng, 6), au_rich_seq(rng, 6), 3),
            (au_rich_seq(rng, 7), au_rich_seq(rng, 5), 3),
            (au_rich_seq(rng, 5), au_rich_seq(rng, 7), 3),
            ("AUAUAU", "AUAUAU", 3),
        ]
        for r, s, theta in pairs:
            model = unit_model(min_hairpin=theta)
            R, S = strands(r, s)
            got = inside(R, S, model).q_total
            want = enumerate_interactions(R, S, model, keep_structures=False).count
            assert got == float(want), (r, s, theta, got, want)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s"
        _report("1", f"{len(pairs)} pairs count-exact in {elapsed:.1f}s")

    def test_02_weighted_equivalence(self):
        start = time.perf_counter()
        for r, s, model in _criterion2_instances():
            R, S = strands(r, s)
            got = inside(R, S, model).q_total
            want = enumerate_interactions(
                R, S, model, keep_structures=False
            ).weighted_sum
            assert got == pytest.approx(want, rel=1e-9), (r, s)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s"
        _report("2", f"20 weighted pairs within 1e-9 in {elapsed:.1f}s")

    def test_03_factorization(self):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = random_seq(rng, int(rng.integers(5, 26)))
            s = random_seq(rng, int(rng.integers(5, 26)))
            model = random_model(rng).without_interaction()
            R, S = strands(r, s)
            res = inside(R, S, model)
            prod = res.q_r * res.q_s
            assert res.q_total == pytest.approx(prod, rel=1e-12), (r, s)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion budget exceeded: {elapsed:.1f}s"
        _report("3", f"10 factorised pairs within 1e-12 in {elapsed:.1f}s")

    def test_04_outside_correctness(self):
        start = time.perf_counter()
        checked = 0
        for r, s, model in _criterion2_instances():
            R, S = strands(r, s)
            res = inside(R, S, model)
            prob = outside(res)
            hyb = hybrid_probabilities(res, prob)
            table = target_sites(hyb, threshold=0.0)
            exact = exact_probabilities(enumerate_interactions(R, S, model))
            n, m = len(r), len(s)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert prob.bpp_r[i, j] == pytest.approx(
                        exact["bpp_r"].get((i, j), 0.0), abs=1e-9
                    )
            for h in range(1, m + 1):
                for l in range(h + 1, m + 1):
                    assert prob.bpp_s[h, l] == pytest.approx(
                        exact["bpp_s"].get((h, l), 0.0), abs=1e-9
                    )
            for i in range(1, n + 1):
                for h in range(1, m + 1):
                    assert prob.bpp_ext[i, h] == pytest.approx(
                        exact["bpp_ext"].get((i, h), 0.0), abs=1e-9
                    )
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    for h in range(1, m + 1):
                        for l in range(h, m + 1):
                            assert hyb.p_hy(i, j, h, l) == pytest.approx(
                                exact["p_hy"].get((i, j, h, l), 0.0), abs=1e-9
                            )
            got_tar = {
                (row.start, row.end): row.probability
                for row in table.rows
                if row.strand == "R"
            }
            for key, val in exact["p_tar_r"].items():
                assert got_tar.get(key, 0.0) == pytest.approx(val, abs=1e-9)
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"criterion budget exceeded: {elapsed:.1f}s"
        _report("4", f"marginals oracle-exact on {checked} instances in {elapsed:.1f}s")

    def test_05_tpf_conservation(self):
        worst = 0.0
        for r, s, model in _criterion2_instances():
            R, S = strands(r, s)
            res = inside(R, S, model)
            prob = outside(res, verify_conservation=True)
            assert prob.tpf_max_deviation is not None
            worst = max(worst, prob.tpf_max_deviation)
            assert prob.tpf_max_deviation <= 1e-9
        _report("5", f"conditional sums deviate at most {worst:.2e}")

    def test_06_sampling_exactness(self):
        from scipy import stats

        start = time.perf_counter()
        R, S = strands("AAA", "UUU")
        model = unit_model()
        res = inside(R, S, model)
        exact = exact_probabilities(enumerate_interactions(R, S, model))
        keys = [js.key() for js, _p in exact["structures"]]
        assert len(keys) == 20
        draws = 50_000
        batch = sample_batch(res, draws, seed=606)
        counts = Counter(js.key() for js in batch.structures)
        observed = [counts.get(k, 0) for k in keys]
        pvalue = stats.chisquare(observed, [draws / 20.0] * 20).pvalue
        assert pvalue >= 0.001, f"chi-square p={pvalue}"
        # empirical hybrid-footprint frequencies within 4 sigma of p_hy
        prob = outside(res)
        hyb = hybrid_probabilities(res, prob)
        emp: Counter = Counter()
        for js in batch.structures:
            for h in extract_hybrids(js):
                emp[h.footprint_r + h.footprint_s] += 1
        for (i, j, h, l, p) in hyb.entries(0.0):
            sigma = (p * (1 - p) / draws) ** 0.5
            assert abs(emp.get((i, j, h, l), 0) / draws - p) <= 4 * sigma
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion budget exceeded: {elapsed:.1f}s"
        _report("6", f"chi-square p={pvalue:.3f} over 50k draws in {elapsed:.1f}s")

    def test_07_structural_validity(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        instances = [
            ("AAA", "UUU", unit_model()),
            ("GAAAC", "GUUC", random_model(rng, min_hairpin=1)),
            ("GCGC", "GCGC", random_model(rng, min_hairpin=1)),
            ("AUAUA", "UAUAU", random_model(rng, min_hairpin=2)),
            ("GACUG", "CAGUC", random_model(rng, min_hairpin=0)),
        ]
        per_instance = 20_000
        total = 0
        for r, s, model in instances:
            R, S = strands(r, s)
            res = inside(R, S, model)
            batch = sample_batch(res, per_instance, seed=777)
            for js in batch.structures:
                report = validate(js, min_hairpin=model.min_hairpin)
                assert report.valid, (r, s, report.rule, js.key())
            total += per_instance
        elapsed = time.perf_counter() - start
        assert total == 100_000
        assert elapsed < 120.0, f"criterion budget exceeded: {elapsed:.1f}s"
        _report("7", f"{total} samples all valid in {elapsed:.1f}s")

    def test_08_scale_and_complexity(self):
        rng = np.random.default_rng(8)
        model = random_model(rng)

        def run_at(n: int) -> tuple[float, InsideResult]:
            r, s = random_seq(rng, n), random_seq(rng, n)
            R, S = strands(r, s)
            t0 = time.perf_counter()
            res = inside(R, S, model)
            outside(res)
            return time.perf_counter() - t0, res

        # the 25x25 smoke with the memory-estimate contract
        est = estimate_memory_bytes(25, 25, include_outside=True)
        elapsed25, res25 = run_at(25)
        actual = res25.store.peak_bytes
        assert elapsed25 < 300.0, f"25x25 took {elapsed25:.1f}s"
        assert abs(actual - est) <= 0.25 * est, (actual, est)
        # O(N^6)-consistent growth: doubling 12 -> 24 lands in [2^5, 2^7].
        # The timed runs alternate sizes (three at 12, two at 24, best of
        # each), so a drift in machine speed does not bias the ratio.
        times: dict[int, list[float]] = {12: [], 24: []}
        for n in (12, 24, 12, 24, 12):
            times[n].append(run_at(n)[0])
        t12, t24 = min(times[12]), min(times[24])
        ratio = t24 / t12
        assert 2**5 <= ratio <= 2**7, (
            f"t12 {t12:.3f}s, t24 {t24:.3f}s, scaling ratio {ratio:.1f}"
        )
        _report(
            "8",
            f"25x25 in {elapsed25:.1f}s, est {est/1e6:.0f}MB == actual "
            f"{actual/1e6:.0f}MB, ratio(12->24) {ratio:.1f}",
        )

    def test_09_determinism(self, tmp_path):
        fa = tmp_path / "in.fa"
        fa.write_text(">r\nGAAACGU\n>s\nGCGUUUC\n")

        def capture(command: str, seed: int = 7) -> str:
            buf = io.StringIO()
            status = run(
                RunConfig(command=command, inputs=[str(fa)], seed=seed, num=5),
                stream=buf,
            )
            assert status == 0
            return buf.getvalue()

        assert capture("sample") == capture("sample")
        assert capture("pf") == capture("pf")
        assert capture("targets") == capture("targets")
        _report("9", "sample/pf/targets byte-identical for fixed seed")

    def test_10_format_fidelity(self):
        synthetic = [
            ((52, 60), 0.830), ((15, 17), 0.546), ((38, 47), 0.247),
            ((27, 27), 0.236), ((5, 5), 0.09996), ((113, 128), 0.669),
        ]
        golden = [
            "52,60: 83.0%",
            "15,17: 54.6%",
            "38,47: 24.7%",
            "27,27: 23.6%",
            "5,5: 10.0%",
            "113,128: 66.9%",
        ]
        got = [format_target_line(i, j, p) for (i, j), p in synthetic]
        assert got == golden
        _report("10", "target lines match the i,j: pp.p% pattern")
