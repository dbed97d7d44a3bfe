from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import jointfold.grammar_inside as grammar_inside
import jointfold.outside_prob as outside_prob
from jointfold.energy import default_model, unit_model
from jointfold.grammar_inside import inside
from jointfold.oracle import enumerate_interactions, exact_probabilities
from jointfold.outside_prob import hybrid_probabilities, outside, target_sites
from jointfold.sampler import sample_batch
from jointfold.secfold import NumericalUnderflow, SecEngine, secondary_bpp
from jointfold.seq_model import Strand

from helpers import padded, random_model, random_seq


def strands(r: str, s_internal: str):
    return Strand.query(r), Strand.target_internal(s_internal)


def pipeline(r, s, model):
    R, S = strands(r, s)
    res = inside(R, S, model)
    prob = outside(res)
    return res, prob


class TestOracleEquivalence:
    def test_marginals_match_exactly(self):
        rng = np.random.default_rng(55)
        for trial in range(6):
            r = random_seq(rng, int(rng.integers(1, 7)))
            s = random_seq(rng, int(rng.integers(1, 7)))
            theta = int(rng.integers(0, 3))
            model = (
                random_model(rng, min_hairpin=theta)
                if trial % 2
                else unit_model(min_hairpin=theta)
            )
            res, prob = pipeline(r, s, model)
            exact = exact_probabilities(
                enumerate_interactions(*strands(r, s), model)
            )
            n, m = len(r), len(s)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert prob.bpp_r[i, j] == pytest.approx(
                        exact["bpp_r"].get((i, j), 0.0), abs=1e-9
                    ), (r, s, i, j)
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
            hyb = hybrid_probabilities(res, prob)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    for h in range(1, m + 1):
                        for l in range(h, m + 1):
                            assert hyb.p_hy(i, j, h, l) == pytest.approx(
                                exact["p_hy"].get((i, j, h, l), 0.0), abs=1e-9
                            )

    def test_known_corner_probabilities(self):
        res, prob = pipeline("AAA", "UUU", unit_model())
        assert prob.bpp_ext[1, 1] == pytest.approx(6 / 20)
        hyb = hybrid_probabilities(res, prob)
        assert hyb.p_hy(1, 3, 1, 3) == pytest.approx(2 / 20)
        assert hyb.p_hy(1, 1, 1, 1) == pytest.approx(1 / 20)


class TestTpfConservation:
    def test_children_conditionals_sum_to_one(self):
        rng = np.random.default_rng(99)
        for _ in range(3):
            r = random_seq(rng, int(rng.integers(2, 6)))
            s = random_seq(rng, int(rng.integers(2, 6)))
            model = random_model(rng, min_hairpin=int(rng.integers(0, 3)))
            R, S = strands(r, s)
            res = inside(R, S, model)
            prob = outside(res, verify_conservation=True)
            assert prob.tpf_max_deviation is not None
            assert prob.tpf_max_deviation <= 1e-9

    def test_root_probability_is_one(self):
        from jointfold._cases import recompute_value

        rng = np.random.default_rng(100)
        res, prob = pipeline("GAAAC", "GUU", random_model(rng, min_hairpin=1))
        assert res.q_total == prob.z
        # the root's case conditionals sum to exactly one
        assert recompute_value(res, ("top",)) == pytest.approx(prob.z, rel=1e-12)


class TestEnergyShifts:
    """Beyond the oracle's reach: shifting a set of energies by ``-delta*rt``
    multiplies each structure's weight by ``exp(delta)`` per feature they
    price, so the slope of ``log q_total`` is the expected feature count,
    which the outside pass gives as a sum of probabilities."""

    DELTA = 1e-4

    @classmethod
    def slope(cls, R, S, model, names) -> float:
        log_q = []
        for sign in (1, -1):
            shift = -sign * cls.DELTA * model.rt
            changes = {}
            for name in names:
                value = getattr(model, name)
                changes[name] = ({k: v + shift for k, v in value.items()}
                                 if isinstance(value, dict) else value + shift)
            log_q.append(math.log(inside(R, S, dataclasses.replace(model, **changes)).q_total))
        return (log_q[0] - log_q[1]) / (2 * cls.DELTA)

    # the last pair is the paper's shape, a short query against a longer
    # target; its sigma0 slope checks the summed hybrid-placement mass
    @pytest.mark.parametrize("seed, n, m, min_hairpin, forbid_lone_pairs", [
        (301, 9, 10, 0, False), (302, 11, 9, 1, False), (303, 12, 10, 2, True),
        (304, 5, 24, 3, True)])
    def test_slopes_are_expected_counts(self, seed, n, m, min_hairpin, forbid_lone_pairs):
        rng = np.random.default_rng(seed)
        model = random_model(rng, min_hairpin=min_hairpin,
                             forbid_lone_pairs=forbid_lone_pairs)
        R, S = strands(random_seq(rng, n), random_seq(rng, m))
        res = inside(R, S, model)
        prob = outside(res)
        ext = prob.bpp_ext.sum()
        for names, expected in (
            # every exterior arc
            (("ext_default", "ext_overrides"), ext),
            # every hybrid extension step: a hybrid of k arcs takes k - 1
            (("sigma0",), ext - hybrid_probabilities(res, prob).total.sum()),
            # every interior arc closes exactly one loop
            (("hairpin_init", "interior_init", "stack_default", "stack_overrides",
              "multi_init", "kiss_init"),
             np.triu(prob.bpp_r, 1).sum() + np.triu(prob.bpp_s, 1).sum()),
        ):
            assert expected > 1e-3, names
            assert self.slope(R, S, model, names) == pytest.approx(expected, rel=1e-6), names


class TestExteriorLabel:
    """The ``top`` label's chains and gap rows are read only at the end
    anchor ``(n, m)``, by the top-level chains; the fill also computes them
    at every other end anchor.  Zeroing those cells after ``inside`` leaves
    every output as it was, bit for bit, and the outside pass gives them no
    weight.  (``verify_conservation`` would flag them: its per-cell
    reconstruction reads every cell.)"""

    KEYS = (("cna", "top"), ("chy", "top"), ("ghy", "top"), ("gna", "top"))

    @staticmethod
    def outputs(res) -> dict:
        prob = outside(res)
        batch = sample_batch(res, 300, seed=5)
        return {"q_total": res.q_total, "bpp_r": prob.bpp_r, "bpp_s": prob.bpp_s,
                "bpp_ext": prob.bpp_ext, "hybrids": hybrid_probabilities(res, prob).total,
                "keys": [js.key() for js in batch.structures], "case_slack": batch.case_slack}

    @pytest.mark.parametrize("n, m", [(9, 11), (12, 12), (6, 20)])
    def test_top_cells_off_the_strand_ends_are_never_read(self, n, m):
        rng = np.random.default_rng([n, m, 7])
        R, S = strands(random_seq(rng, n), random_seq(rng, m))
        res = inside(R, S, default_model())
        want = self.outputs(res)
        off = np.ones((n, m), bool)
        off[n - 1, m - 1] = False  # anchors (j, l) at [j - 1, l - 1]
        for key in self.KEYS:
            assert not res.store[("out",) + key][..., off].any(), key

        res = inside(R, S, default_model())
        zeroed = 0
        for key in self.KEYS:
            zeroed += np.count_nonzero(res.store[key][..., off])
            res.store[key][..., off] = 0.0
        assert zeroed
        got = self.outputs(res)
        assert got.pop("keys") == want.pop("keys")
        for name, value in want.items():
            assert np.array_equal(got[name], value), name


class TestFactorisedEnsemble:
    def test_matches_single_strand_mccaskill(self):
        rng = np.random.default_rng(44)
        r, s = random_seq(rng, 12), random_seq(rng, 11)
        model = random_model(rng).without_interaction()
        res, prob = pipeline(r, s, model)
        assert not prob.bpp_ext.any()
        single_r = secondary_bpp(Strand.query(r), model)
        single_s = secondary_bpp(Strand.target_internal(s), model)
        assert np.allclose(prob.bpp_r[1:, 1:], single_r[1:, 1:], atol=1e-9)
        assert np.allclose(prob.bpp_s[1:, 1:], single_s[1:, 1:], atol=1e-9)


class TestProbabilityInvariants:
    def test_entries_in_unit_interval_and_row_sums(self):
        rng = np.random.default_rng(66)
        r, s = random_seq(rng, 8), random_seq(rng, 7)
        model = random_model(rng, min_hairpin=1)
        res, prob = pipeline(r, s, model)
        for arr in (prob.bpp_r, prob.bpp_s, prob.bpp_ext):
            assert (arr >= -1e-9).all() and (arr <= 1.0 + 1e-9).all()
        n, m = len(r), len(s)
        for i in range(1, n + 1):
            total = prob.bpp_r[i, :].sum() + prob.bpp_r[:, i].sum()
            total += prob.bpp_ext[i, :].sum()
            assert total <= 1.0 + 1e-9

    def test_position_coverage_bounded(self):
        rng = np.random.default_rng(68)
        res, prob = pipeline("GAAAC", "GUUC", random_model(rng, min_hairpin=1))
        hyb = hybrid_probabilities(res, prob)
        n = res.ctx.n
        cover = np.zeros(n + 1)
        for (i, j, _h, _l, w) in hyb.entries(0.0):
            cover[i : j + 1] += w
        assert (cover <= 1.0 + 1e-9).all()


class TestWorkBuffers:
    @staticmethod
    def outputs(r, s, model) -> dict:
        res, prob = pipeline(r, s, model)
        found = {key: arr.copy() for key, arr in res.store.arrays.items()}
        found.update(bpp_r=prob.bpp_r, bpp_s=prob.bpp_s, bpp_ext=prob.bpp_ext,
                     hybrids=hybrid_probabilities(res, prob).total)
        return found

    @pytest.mark.parametrize("lone", [False, True])
    def test_stale_work_buffers_are_never_read(self, lone, monkeypatch):
        """Work buffers filled with NaN before every wave leave every output
        bit for bit as it was: no buffer is read before it is written, and
        the outside weight of the combined items starts at zero."""
        rng = np.random.default_rng(91)
        r, s = random_seq(rng, 9), random_seq(rng, 8)
        model = random_model(rng, min_hairpin=1, forbid_lone_pairs=lone)
        want = self.outputs(r, s, model)

        def stale(wave_fn):
            def run(src, *args):
                for buf in src["work"].values():
                    buf.fill(np.nan)
                wave_fn(src, *args)
            return run

        monkeypatch.setattr(grammar_inside, "_fill_wave", stale(grammar_inside._fill_wave))
        monkeypatch.setattr(outside_prob, "_transpose_wave", stale(outside_prob._transpose_wave))
        got = self.outputs(r, s, model)
        assert len(got) == 75 + 4 and got.keys() == want.keys()
        for key, arr in want.items():
            assert np.array_equal(got[key], arr), key


class TestBasePairPass:
    """``outside`` fills only the 4D outside tables; the base-pair pass runs
    on the first read of ``bpp_*`` and is cached."""

    def test_targets_need_no_base_pair_pass(self, monkeypatch):
        rng = np.random.default_rng(57)
        r, s = random_seq(rng, 6), random_seq(rng, 5)
        model = random_model(rng, min_hairpin=1)

        def refused(*_args, **_kwargs):
            raise AssertionError("base-pair work outside the base-pair pass")

        def transpose_4d(prod, src, out, adj, w, strand=False):
            if strand:
                refused()
            return transpose(prod, src, out, adj, w)

        transpose = grammar_inside._Prod.transpose
        monkeypatch.setattr(grammar_inside._Prod, "transpose", transpose_4d)
        monkeypatch.setattr(SecEngine, "outside", refused)
        res, prob = pipeline(r, s, model)
        hyb = hybrid_probabilities(res, prob)
        table = target_sites(hyb, threshold=0.0)
        assert table.rows
        monkeypatch.undo()

        tables = {key: arr.copy() for key, arr in res.store.arrays.items()}
        first = (prob.bpp_r, prob.bpp_s, prob.bpp_ext)
        assert all(a is b for a, b in zip(first, (prob.bpp_r, prob.bpp_s, prob.bpp_ext)))
        assert np.array_equal(hybrid_probabilities(res, prob).total, hyb.total)
        for key, arr in tables.items():
            assert np.array_equal(res.store[key], arr), key
        exact = exact_probabilities(enumerate_interactions(*strands(r, s), model))
        for name, arr in zip(("bpp_r", "bpp_s", "bpp_ext"), first):
            want = np.zeros_like(arr)
            for cell, p in exact[name].items():
                want[cell] = p
            assert np.allclose(arr, want, rtol=0.0, atol=1e-9), name


class TestTargetSites:
    def test_aggregation_matches_oracle(self):
        rng = np.random.default_rng(71)
        r, s = "AAA", "UUU"
        res, prob = pipeline(r, s, unit_model())
        hyb = hybrid_probabilities(res, prob)
        table = target_sites(hyb, threshold=0.0)
        by_region = {
            (row.start, row.end): row.probability
            for row in table.rows
            if row.strand == "R"
        }
        assert by_region[(1, 1)] == pytest.approx(3 / 20)
        # the optimal region maximises the aggregated probability
        exact = exact_probabilities(
            enumerate_interactions(*strands(r, s), unit_model())
        )
        best = max(exact["p_tar_r"].items(), key=lambda kv: kv[1])
        top_r = next(row for row in table.rows if row.strand == "R")
        assert (top_r.start, top_r.end) == best[0]
        assert top_r.probability == pytest.approx(best[1])

    def test_threshold_filters_and_sorts(self):
        rng = np.random.default_rng(72)
        res, prob = pipeline("GACU", "AGUC", random_model(rng, min_hairpin=0))
        hyb = hybrid_probabilities(res, prob)
        table = target_sites(hyb, threshold=0.05)
        probs = [row.probability for row in table.rows]
        assert probs == sorted(probs, reverse=True)
        assert all(p > 0.05 for p in probs)

    def test_empty_interaction_model(self):
        rng = np.random.default_rng(73)
        model = random_model(rng).without_interaction()
        res, prob = pipeline("GACU", "AGUC", model)
        hyb = hybrid_probabilities(res, prob)
        assert target_sites(hyb).rows == []


class TestRegionMass:
    """The footprint lists, the region masses and the target rows equal the
    per-footprint loop and dict sums that they replace, bit for bit."""

    CASES = [("default", 6, 36, 2, False), ("unit", 9, 9, 0, True),
             ("random", 8, 10, 1, False)]

    @staticmethod
    def hybrids(kind, n, m, theta, nolp):
        rng = np.random.default_rng([74, n, m])
        model = {"default": default_model, "unit": unit_model,
                 "random": lambda: random_model(rng)}[kind]()
        model = dataclasses.replace(model, min_hairpin=theta, forbid_lone_pairs=nolp)
        res, prob = pipeline(random_seq(rng, n), random_seq(rng, m), model)
        return hybrid_probabilities(res, prob)

    @staticmethod
    def loop_entries(hyb, threshold):
        rows, total = [], padded(hyb.total)
        for p, q, i, h in np.argwhere(total > threshold):
            if 1 <= i and i + p - 1 <= hyb.n and 1 <= h and h + q - 1 <= hyb.m:
                rows.append((int(i), int(i + p - 1), int(h), int(h + q - 1),
                             float(total[p, q, i, h])))
        rows.sort(key=lambda r: (-r[4], r[0], r[1], r[2], r[3]))
        return rows

    @staticmethod
    def dict_sums(entries):
        mass_r, mass_s = {}, {}
        for (i, j, h, l, w) in entries:
            mass_r[(i, j)] = mass_r.get((i, j), 0.0) + w
            mass_s[(h, l)] = mass_s.get((h, l), 0.0) + w
        return mass_r, mass_s

    @pytest.mark.parametrize("kind, n, m, theta, nolp", CASES)
    def test_equal_to_the_footprint_loop(self, kind, n, m, theta, nolp):
        hyb = self.hybrids(kind, n, m, theta, nolp)
        for threshold in (0.0, 0.05):
            assert hyb.entries(threshold) == self.loop_entries(hyb, threshold)
        mass_r, mass_s = self.dict_sums(self.loop_entries(hyb, 0.0))
        assert mass_r and mass_s
        for got, want in zip(hyb.region_mass(), (mass_r, mass_s)):
            nonzero = {(int(a), int(b)): float(got[a, b]) for a, b in np.argwhere(got != 0.0)}
            assert nonzero == want
        for threshold in (0.0, 0.1):
            rows = [("R", i, j, w) for (i, j), w in mass_r.items() if w > threshold]
            rows += [("S", h, l, w) for (h, l), w in mass_s.items() if w > threshold]
            rows.sort(key=lambda r: (-r[3], r[0], r[1], r[2]))
            got = target_sites(hyb, threshold).rows
            assert [(r.strand, r.start, r.end, r.probability) for r in got] == rows

    @pytest.mark.parametrize("kind, n, m, theta, nolp", CASES)
    def test_total_is_zero_off_the_footprints(self, kind, n, m, theta, nolp):
        hyb = self.hybrids(kind, n, m, theta, nolp)
        total = padded(hyb.total)
        p, q, i, h = np.indices(total.shape)
        on = (p >= 1) & (q >= 1) & (i >= 1) & (i + p - 1 <= n) & (h >= 1) & (h + q - 1 <= m)
        assert total[on].any() and not total[~on].any()


class TestInvalidNumbers:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_empty_ensemble_is_refused(self, bad):
        res = inside(*strands("GAAAC", "GUU"), unit_model(min_hairpin=1))
        peak = res.store.peak_bytes
        with pytest.raises(NumericalUnderflow, match="partition function is"):
            outside(dataclasses.replace(res, q_total=bad))
        assert res.store.peak_bytes == peak

    def test_overflowing_weights_are_refused(self):
        model = dataclasses.replace(unit_model(), ext_default=-400.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalUnderflow, match="partition function is"):
                inside(*strands("GGGCCC", "GGGCCC"), model)
