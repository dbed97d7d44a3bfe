from __future__ import annotations

import dataclasses
import functools
import hashlib
from collections import Counter

import numpy as np
import pytest

from jointfold import _streams, sampler
from jointfold._cases import component_value, iter_all_components, scored_cases
from jointfold.energy import unit_model
from jointfold.grammar_inside import inside
from jointfold.oracle import enumerate_interactions, exact_probabilities
from jointfold.outside_prob import hybrid_probabilities, outside
from jointfold.sampler import NumericalUnderflow, sample_batch, sample_one
from jointfold.secfold import pick_with_slack
from jointfold.seq_model import Strand, extract_hybrids, validate

from helpers import at, case_value, component_cases, random_model, random_seq, sec_cases


def strands(r: str, s_internal: str):
    return Strand.query(r), Strand.target_internal(s_internal)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class TestWeightVectors:
    @pytest.mark.parametrize("theta, r, s", [(0, "GCAU", "UGCA"), (1, "GGCAU", "AUGC"),
                                             (2, "GCAAUC", "GUUC")])
    def test_vectors_sum_to_the_cells_and_decode_to_their_cases(self, theta, r, s):
        model = random_model(np.random.default_rng(30 + theta), min_hairpin=theta)
        res = inside(*strands(r, s), model)
        checked = 0
        kinds = Counter()
        for comp in (("top",), *iter_all_components(res)):
            weights, decode = scored_cases(res, comp)
            kinds[comp[0]] += int((weights > 0.0).sum())
            assert close(float(weights.sum()), component_value(res, comp)), comp
            for t, w in enumerate(weights):
                case = decode(t)
                if case is None:
                    assert w == 0.0, (comp, t)
                else:
                    assert close(case_value(res, case), float(w)), (comp, t, case)
                    checked += w > 0.0
        assert checked > 1000
        # every kind has cases that a draw can pick, except that S = AUGC
        # closes no arc at min_hairpin 1 (no tri or box cases there)
        picked = {kind for kind, count in kinds.items() if count}
        closing_s = {"tri", "box"} if theta != 1 else set()
        assert picked == {"top", "hy", "vee", "chain", "gap"} | closing_s, kinds

    def test_pick_takes_the_first_prefix_sum_reaching_the_uniform(self):
        weights = np.array([0.0, 1.0, 0.0, 3.0])
        us = np.array([0.0, 0.25, 0.2500001, 0.999])
        assert pick_with_slack(weights, 4.0, us)[0].tolist() == [1, 1, 3, 3]
        with pytest.raises(NumericalUnderflow, match="cases sum to"):
            pick_with_slack(weights, 4.5, us)
        with pytest.raises(NumericalUnderflow, match="cases sum to"):
            pick_with_slack(np.array([1.0, np.nan]), 1.0, us)
        with pytest.raises(NumericalUnderflow, match="no positive case"):
            pick_with_slack(np.zeros(3), 0.0, us)


class TestSampleOne:
    def test_singleton_ensemble(self):
        model = unit_model().without_interaction()
        R, S = strands("AAA", "AAA")  # nothing can pair at all
        res = inside(R, S, model)
        rng = np.random.default_rng(0)
        js = sample_one(res, rng)
        assert js.arc_count == 0

    def test_fixed_seed_reproduces_sequence(self):
        res = inside(*strands("GAAAC", "GUU"), unit_model(min_hairpin=1))
        seq1 = [sample_one(res, np.random.default_rng(9)).key() for _ in range(5)]
        seq2 = [sample_one(res, np.random.default_rng(9)).key() for _ in range(5)]
        assert seq1 == seq2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_empty_ensemble_is_refused(self, bad):
        res = inside(*strands("GAAAC", "GUU"), unit_model(min_hairpin=1))
        broken = dataclasses.replace(res, q_total=bad)
        with pytest.raises(NumericalUnderflow, match="partition function"):
            sample_one(broken, np.random.default_rng(0))
        with pytest.raises(NumericalUnderflow, match="partition function"):
            sample_batch(broken, 3, seed=1)


class TestDistribution:
    def test_uniform_on_triple_au(self):
        res = inside(*strands("AAA", "UUU"), unit_model())
        batch = sample_batch(res, 20000, seed=42)
        counts = Counter(js.key() for js in batch.structures)
        assert len(counts) == 20
        for key, cnt in counts.items():
            p = 1 / 20
            sigma = (p * (1 - p) / 20000) ** 0.5
            assert abs(cnt / 20000 - p) <= 4 * sigma, key

    def test_weighted_model_matches_exact_probabilities(self):
        rng = np.random.default_rng(8)
        r, s = "GCAA", "UUGC"
        model = random_model(rng, min_hairpin=1)
        res = inside(*strands(r, s), model)
        exact = {
            js.key(): p
            for js, p in exact_probabilities(
                enumerate_interactions(*strands(r, s), model)
            )["structures"]
        }
        n = 20000
        emp = Counter(js.key() for js in sample_batch(res, n, seed=3).structures)
        for key, p in exact.items():
            sigma = (p * (1 - p) / n) ** 0.5
            if sigma == 0.0:
                continue
            assert abs(emp.get(key, 0) / n - p) <= 4.5 * sigma

    def test_multi_item_chains_pass_chi_square(self):
        from scipy import stats

        # 178 structures; a third of the mass has two or more hybrids, so the
        # draws run through chains of several items and the gaps between them
        r, s = "UGGCC", "AAAAU"
        model = random_model(np.random.default_rng(10), min_hairpin=0)
        res = inside(*strands(r, s), model)
        exact = exact_probabilities(enumerate_interactions(*strands(r, s), model))
        probs = {js.key(): p for js, p in exact["structures"]}
        multi = {js.key() for js, _p in exact["structures"] if len(extract_hybrids(js)) >= 2}
        assert sum(probs[key] for key in multi) > 0.3
        n = 20000
        emp = Counter(js.key() for js in sample_batch(res, n, seed=11).structures)
        assert set(emp) <= set(probs)
        # Pearson's test over the cells expected >= 5 times, the rest pooled
        big = [key for key, p in probs.items() if n * p >= 5]
        observed = [emp.get(key, 0) for key in big] + [n - sum(emp.get(k, 0) for k in big)]
        expected = [n * probs[key] for key in big] + [n * (1 - sum(probs[k] for k in big))]
        pvalue = stats.chisquare(observed, expected).pvalue
        assert pvalue >= 0.001, f"chi-square p={pvalue}"

    def test_hybrid_footprint_frequencies(self):
        res = inside(*strands("AAA", "UUU"), unit_model())
        prob = outside(res)
        hyb = hybrid_probabilities(res, prob)
        n = 20000
        batch = sample_batch(res, n, seed=17)
        emp: Counter = Counter()
        for js in batch.structures:
            for h in extract_hybrids(js):
                emp[h.footprint_r + h.footprint_s] += 1
        for (i, j, h, l, p) in hyb.entries(0.0):
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(emp.get((i, j, h, l), 0) / n - p) <= 4.5 * sigma


class TestValidity:
    def test_all_samples_validate(self):
        rng = np.random.default_rng(19)
        for _ in range(3):
            r = random_seq(rng, int(rng.integers(3, 7)))
            s = random_seq(rng, int(rng.integers(3, 7)))
            theta = int(rng.integers(0, 3))
            model = random_model(rng, min_hairpin=theta)
            res = inside(*strands(r, s), model)
            for js in sample_batch(res, 300, seed=1).structures:
                assert validate(js, min_hairpin=theta).valid


class TestBatch:
    def test_batch_matches_per_draw_streams(self):
        res = inside(*strands("AAA", "UUU"), unit_model())
        one = sample_batch(res, 1, seed=5)
        ss = np.random.SeedSequence(5).spawn(1)[0]
        direct = sample_one(res, np.random.Generator(np.random.PCG64(ss)))
        assert one.structures[0].key() == direct.key()

    def test_draws_do_not_depend_on_the_batch(self):
        model = random_model(np.random.default_rng(8), min_hairpin=1)
        res = inside(*strands("GCAA", "UUGC"), model)
        batch = [js.key() for js in sample_batch(res, 40, seed=23).structures]
        assert len(set(batch)) > 1
        for k, ss in enumerate(np.random.SeedSequence(23).spawn(40)):
            direct = sample_one(res, np.random.Generator(np.random.PCG64(ss)))
            assert batch[k] == direct.key(), k
        short = [js.key() for js in sample_batch(res, 10, seed=23).structures]
        assert batch[:10] == short

    def test_blocks_do_not_change_the_batch(self, monkeypatch):
        model = random_model(np.random.default_rng(8), min_hairpin=1)
        res = inside(*strands("GCAA", "UUGC"), model)
        whole = [js.key() for js in sample_batch(res, 40, seed=23).structures]
        monkeypatch.setattr(sampler, "_BLOCK", 7)
        assert [js.key() for js in sample_batch(res, 40, seed=23).structures] == whole
        # a block's error names the draw's index in the whole batch
        n, m = res.ctx.n, res.ctx.m
        res.store[("chy", "top")][at(n, m, n, m)] *= 2.0
        rngs = [np.random.default_rng(k) for k in range(3)]
        with pytest.raises(NumericalUnderflow, match=r"^draw 7: "):
            sampler._draw(res, rngs, first=7)

    def test_corrupted_table_fails_loudly(self):
        model = random_model(np.random.default_rng(8), min_hairpin=1)
        res = inside(*strands("GCAA", "UUGC"), model)
        n, m = res.ctx.n, res.ctx.m
        # the full-span chain cell enters the case sum of the top component
        res.store[("chy", "top")][at(n, m, n, m)] *= 2.0
        with pytest.raises(NumericalUnderflow, match=r"^draw \d+: component \('top',\)"):
            sample_batch(res, 5, seed=1)

    def test_corrupted_secondary_cell_fails_loudly(self):
        # without exterior arcs every interior arc is drawn from a qb cell
        model = random_model(np.random.default_rng(4), min_hairpin=1).without_interaction()
        res = inside(*strands("GGGAAACCC", "GGAUCC"), model)
        arcs = Counter(arc for js in sample_batch(res, 200, seed=2).structures
                       for arc in js.interior_r)
        (i, j), _count = arcs.most_common(1)[0]
        res.sec_r.tables["qb"][i, j] *= 1.5
        with pytest.raises(NumericalUnderflow, match=r"^draw \d+: component \('sec', 'R', "):
            sample_batch(res, 200, seed=2)

    def test_children_are_queued_after_their_parents(self):
        model = random_model(np.random.default_rng(8), min_hairpin=1)
        for nolp in (False, True):
            self._check_queue_order(
                inside(*strands("GCAAC", "UUGC"),
                       dataclasses.replace(model, forbid_lone_pairs=nolp)))

    @staticmethod
    def _check_queue_order(res):
        key = functools.partial(sampler._queue_key, res)
        for comp in (("top",), *iter_all_components(res)):
            for _w, children, _em in component_cases(res, comp):
                for child in children:
                    if child[0] != "unp":
                        assert key(child) > key(comp), (comp, child)
        for sid, engine in (("R", res.sec_r), ("S", res.sec_s)):
            for kind in engine.kinds:
                for i in range(1, engine.n + 1):
                    for j in range(i, engine.n + 1):
                        cell = ("sec", sid, kind, i, j)
                        for _w, children, _arc in sec_cases(engine, kind, i, j):
                            for ck, ci, cj in children:
                                if cj >= ci:
                                    assert key(("sec", sid, ck, ci, cj)) > key(cell)

    @pytest.mark.parametrize("seed, n, m, theta, nolp, digest, slack", [
        (61, 9, 9, 1, False,
         "7c8ec7e722335b2a38ae6974c7de7888eb36354cb4345182751364f7f684150d",
         "0x1.06802cb5d2461p-51"),
        (62, 8, 10, 0, True,
         "067141e722bd1ba2426a9a478684b8c637af7ce769d96a47fd5df5454a953658",
         "0x1.cb24107ba25f8p-52"),
    ])
    def test_draws_are_pinned(self, seed, n, m, theta, nolp, digest, slack):
        # recorded before the weight vectors were read with one gather per
        # family: a change that moves any pick, or any bit of the slack, fails
        rng = np.random.default_rng(seed)
        r, s = random_seq(rng, n), random_seq(rng, m)
        model = dataclasses.replace(random_model(rng, min_hairpin=theta), forbid_lone_pairs=nolp)
        batch = sample_batch(inside(*strands(r, s), model), 200, seed=seed)
        keys = [js.key() for js in batch.structures]
        assert len(set(keys)) > 150
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest
        assert batch.case_slack.hex() == slack

    def test_zero_draws_is_an_error(self):
        res = inside(*strands("A", "U"), unit_model())
        with pytest.raises(ValueError):
            sample_batch(res, 0, seed=1)

    def test_fingerprint_recorded(self):
        model = unit_model()
        res = inside(*strands("A", "U"), model)
        batch = sample_batch(res, 2, seed=1)
        assert batch.model_fingerprint == model.fingerprint()
        assert batch.draw_count == 2


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11,
                                      np.int64(2**40 + 9)])
    def test_uniforms_are_numpys_bit_for_bit(self, seed):
        # keys of one and of two 32-bit words; rows advance at their own pace
        # and take more uniforms than one block holds
        keys = list(range(300)) + [2**32, 2**32 + 7, 2**45 + 1]
        streams = _streams.Streams(seed, np.array(keys, np.uint64))
        got: list[list[float]] = [[] for _ in keys]
        pace = np.random.default_rng(seed % 2**32)
        for _ in range(120):
            rows = np.flatnonzero(pace.random(len(keys)) < 0.4)
            for r, u in zip(rows.tolist(), streams.take(rows).tolist()):
                got[r].append(u)
        assert min(map(len, got)) > _streams._UNIFORMS
        for k, us in zip(keys, got):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
            want = rng.random(len(us))
            assert np.array_equal(np.array(us).view(np.uint64), want.view(np.uint64)), k

    def test_block_of_one_uniform_does_not_change_the_batch(self, monkeypatch):
        model = random_model(np.random.default_rng(8), min_hairpin=1)
        res = inside(*strands("GCAAC", "UUGC"), model)
        whole = [js.key() for js in sample_batch(res, 60, seed=29).structures]
        monkeypatch.setattr(_streams, "_UNIFORMS", 1)
        assert [js.key() for js in sample_batch(res, 60, seed=29).structures] == whole

    def test_negative_seed_is_refused(self):
        res = inside(*strands("A", "U"), unit_model())
        with pytest.raises(ValueError, match="non-negative"):
            sample_batch(res, 2, seed=-1)


class TestCaseSlack:
    def test_normal_batch_is_within_the_check(self):
        model = random_model(np.random.default_rng(8), min_hairpin=1)
        res = inside(*strands("GCAAC", "UUGC"), model)
        batch = sample_batch(res, 200, seed=4)
        assert 0.0 <= batch.case_slack <= 1e-6

    def test_a_perturbed_cell_shows_in_the_slack(self):
        model = random_model(np.random.default_rng(8), min_hairpin=1)
        res = inside(*strands("GCAA", "UUGC"), model)
        n, m = res.ctx.n, res.ctx.m
        # the full-span chain cell is a case of the top component; a change
        # below the 1e-6 check leaves the batch intact and shows in the slack
        cell = res.store[("chy", "top")][at(n, m, n, m)]
        res.store[("chy", "top")][at(n, m, n, m)] *= 1.0 + 5e-7
        top_slack = 5e-7 * cell / res.q_total
        assert top_slack > 1e-7
        batch = sample_batch(res, 200, seed=1)
        assert top_slack * (1 - 1e-6) <= batch.case_slack <= 1e-6
