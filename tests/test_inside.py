from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from jointfold._cases import verify_reconstruction
from jointfold.energy import default_model, unit_model
from jointfold.grammar_inside import (
    _CH_ALL,
    LABELS,
    CapacityExceeded,
    HY_CLASSES,
    _OUT_FAMILIES,
    _operands,
    _tensor_bytes,
    _Wave,
    _waves,
    estimate_memory_bytes,
    inside,
)
from jointfold.oracle import enumerate_interactions
from jointfold.outside_prob import outside
from jointfold.seq_model import Strand

from helpers import at, au_rich_seq, random_model, random_seq


def strands(r: str, s_internal: str):
    return Strand.query(r), Strand.target_internal(s_internal)


class TestCountingEquivalence:
    def test_no_intramolecular_pairs(self):
        R, S = strands("AAA", "UUU")
        assert inside(R, S, unit_model()).q_total == 20.0
        R, S = strands("AA", "UU")
        assert inside(R, S, unit_model()).q_total == 6.0

    def test_random_corpus(self):
        rng = np.random.default_rng(101)
        for _ in range(12):
            r = random_seq(rng, int(rng.integers(1, 8)))
            s = random_seq(rng, int(rng.integers(1, 8)))
            model = unit_model(min_hairpin=int(rng.integers(0, 4)))
            R, S = strands(r, s)
            got = inside(R, S, model).q_total
            want = enumerate_interactions(R, S, model, keep_structures=False).count
            assert got == float(want), (r, s, model.min_hairpin)

    def test_au_rich_adversarial(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            r, s = au_rich_seq(rng, 6), au_rich_seq(rng, 6)
            model = unit_model()
            R, S = strands(r, s)
            got = inside(R, S, model).q_total
            want = enumerate_interactions(R, S, model, keep_structures=False).count
            assert got == float(want), (r, s)


class TestWeightedEquivalence:
    def test_random_models(self):
        rng = np.random.default_rng(303)
        for _ in range(8):
            r = random_seq(rng, int(rng.integers(1, 7)))
            s = random_seq(rng, int(rng.integers(1, 7)))
            model = random_model(rng, min_hairpin=int(rng.integers(0, 4)))
            R, S = strands(r, s)
            got = inside(R, S, model).q_total
            want = enumerate_interactions(R, S, model, keep_structures=False).weighted_sum
            assert got == pytest.approx(want, rel=1e-9), (r, s)

    def test_lone_pair_mode(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            r = random_seq(rng, int(rng.integers(4, 7)))
            s = random_seq(rng, int(rng.integers(4, 7)))
            model = random_model(rng, min_hairpin=0, forbid_lone_pairs=True)
            R, S = strands(r, s)
            got = inside(R, S, model).q_total
            want = enumerate_interactions(R, S, model, keep_structures=False).weighted_sum
            assert got == pytest.approx(want, rel=1e-9), (r, s)


class TestFactorization:
    def test_zero_exterior_weight_factorises(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            r = random_seq(rng, int(rng.integers(10, 26)))
            s = random_seq(rng, int(rng.integers(10, 26)))
            model = random_model(rng).without_interaction()
            R, S = strands(r, s)
            res = inside(R, S, model)
            prod = res.q_r * res.q_s
            assert res.q_total == pytest.approx(prod, rel=1e-12)

    def test_total_dominates_factorised(self):
        rng = np.random.default_rng(8)
        r, s = random_seq(rng, 10), random_seq(rng, 10)
        model = random_model(rng)
        R, S = strands(r, s)
        res = inside(R, S, model)
        assert res.q_total >= res.q_r * res.q_s


class TestSymmetry:
    def test_strand_swap(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            r = random_seq(rng, int(rng.integers(2, 8)))
            s = random_seq(rng, int(rng.integers(2, 8)))
            model = random_model(rng, min_hairpin=1, ext_overrides={},
                                 stack_overrides={})
            q1 = inside(*strands(r, s), model).q_total
            q2 = inside(*strands(s, r), model).q_total
            assert q1 == pytest.approx(q2, rel=1e-12)


def hybrid_tables(R, S, model):
    """The four anchored hybrid tensors (EE/EK/KE/KK) of the inside store."""
    store = inside(R, S, model).store
    return {cls: store[("hy", cls)] for cls in HY_CLASSES}


class TestHybridTables:
    def test_anchored_prefix_counts(self):
        R, S = strands("AAA", "UUU")
        tabs = hybrid_tables(R, S, unit_model())
        # anchored at (1,1) and (3,3): {(1,1),(3,3)} and {(1,1),(2,2),(3,3)}
        assert tabs["EE"][at(3, 3, 1, 1)] == 2.0
        assert tabs["EE"][at(2, 2, 1, 1)] == 1.0  # {(1,1),(2,2)}

    def test_single_arc_base_case(self):
        R, S = strands("AA", "UU")
        tabs = hybrid_tables(R, S, unit_model())
        assert tabs["KK"][at(1, 1, 2, 1)] == 1.0

    def test_unpairable_anchor_is_zero(self):
        R, S = strands("AG", "GG")  # A-G and G-G are not admissible
        tabs = hybrid_tables(R, S, unit_model())
        assert not tabs["EE"].any()


class TestConsistency:
    def test_reconstruction_small_instances(self):
        rng = np.random.default_rng(31)
        for trial in range(4):
            r = random_seq(rng, int(rng.integers(2, 6)))
            s = random_seq(rng, int(rng.integers(2, 6)))
            theta = int(rng.integers(0, 3))
            model = (
                random_model(rng, min_hairpin=theta)
                if trial % 2
                else unit_model(min_hairpin=theta)
            )
            res = inside(*strands(r, s), model)
            assert verify_reconstruction(res, rel_tol=1e-12) <= 1e-12


class TestCapacity:
    def test_capacity_exceeded_reports_requirement(self):
        R, S = strands("AAAAAAAAAA", "UUUUUUUUUU")
        with pytest.raises(CapacityExceeded) as err:
            inside(R, S, unit_model(), memory_budget_bytes=1000)
        assert err.value.required_bytes > 1000
        assert err.value.budget_bytes == 1000

    def test_estimate_matches_accounted_peak(self):
        R, S = strands("GACUGACU", "GACUGACU")
        res = inside(R, S, unit_model())
        est = estimate_memory_bytes(8, 8, include_outside=False)
        assert res.memory_estimate_bytes == est
        assert abs(res.store.peak_bytes - est) <= 0.25 * est

    def test_outside_keeps_to_the_inside_budget(self):
        R, S = strands("GACUGA", "GACUGA")
        budget = (estimate_memory_bytes(6, 6, include_outside=False)
                  + estimate_memory_bytes(6, 6, include_outside=True)) // 2
        res = inside(R, S, unit_model(), memory_budget_bytes=budget)
        assert res.memory_budget_bytes == budget
        peak = res.store.peak_bytes
        with pytest.raises(CapacityExceeded) as err:
            outside(res)
        assert err.value.required_bytes == estimate_memory_bytes(6, 6, include_outside=True)
        assert err.value.budget_bytes == budget
        assert res.store.peak_bytes == peak

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 8), (9, 4)])
    def test_tensor_estimate_is_the_allocation(self, n, m):
        """The 4D part of the estimate, counted from the declared families,
        is exactly what the store allocates: 37 inside tensors, 75 in all."""
        rng = np.random.default_rng(n * 10 + m)
        res = inside(*strands(random_seq(rng, n), random_seq(rng, m)), random_model(rng))
        assert len(res.store.arrays) == 37
        assert res.store.allocated_bytes == _tensor_bytes(n, m, include_outside=False)
        outside(res)
        assert len(res.store.arrays) == 75
        assert res.store.allocated_bytes == _tensor_bytes(n, m, include_outside=True)
        assert res.store.peak_bytes == res.store.allocated_bytes

    @pytest.mark.parametrize("n, m", [(1, 1), (7, 6), (8, 48), (22, 5), (12, 12)])
    def test_table_bytes_are_exact(self, n, m):
        """Every table is ``(n, m, n, m)``: the store's peak after ``inside``
        and after ``outside`` is exactly the tensor bytes that the estimate
        counts."""
        rng = np.random.default_rng([n, m])
        res = inside(*strands(random_seq(rng, n), random_seq(rng, m)), default_model())
        assert res.store.peak_bytes == _tensor_bytes(n, m, include_outside=False)
        outside(res)
        assert res.store.peak_bytes == _tensor_bytes(n, m, include_outside=True)
        assert {arr.shape for arr in res.store.arrays.values()} == {(n, m, n, m)}

    @pytest.mark.parametrize("n, m", [(1, 1), (7, 6), (8, 48), (12, 12)])
    def test_estimate_covers_what_a_run_allocates(self, n, m):
        """The estimate is at least what a run allocates, tables, work buffers
        and the strand-side arrays (the engines' planes, the strand factors
        and the grids of ``_Ctx``), and exceeds it by at most 25%."""
        rng = np.random.default_rng([n, m, 1])
        model = random_model(rng, forbid_lone_pairs=True)
        res = inside(*strands(random_seq(rng, n), random_seq(rng, m)), model)
        ctx = res.ctx
        work = sum(buf.nbytes for buf in _operands(res.store, ctx)["work"].values())
        arrays = [eng.planes for eng in (res.sec_r, res.sec_s)]
        arrays += [a for a in vars(ctx).values() if isinstance(a, np.ndarray)]
        arrays += [a for _eng, index, weight in ctx.factors.values() for a in (index, weight)]
        bases = {}
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            bases[id(a)] = a.nbytes
        strand = sum(bases.values())
        for include_outside in (False, True):
            if include_outside:
                outside(res)
            allocated = res.store.allocated_bytes + work + strand
            est = estimate_memory_bytes(n, m, include_outside)
            assert allocated <= est <= 1.25 * allocated, (include_outside, allocated, est)

    @pytest.mark.parametrize("kind", ["default", "random"])
    def test_no_cell_outside_the_reachable_anchors_is_written(self, kind):
        """On either strand, a start-anchored cell of span s lies on the
        strand only at anchors x <= n - s + 1, an end-anchored one only at x
        >= s.  No production writes the others, inside, outside or in the
        base-pair pass."""
        rng = np.random.default_rng(57)
        model = default_model() if kind == "default" else random_model(rng)
        model = dataclasses.replace(model, min_hairpin=0, forbid_lone_pairs=True)
        n, m = 7, 11
        res = inside(*strands(random_seq(rng, n), random_seq(rng, m)), model)
        outside(res).bpp_r
        s_r, s_s, x_r, x_s = (a + 1 for a in np.indices(res.store.shape))
        off = {False: (x_r < s_r) | (x_s < s_s),  # end anchored
               True: (x_r > n - s_r + 1) | (x_s > m - s_s + 1)}  # start anchored
        assert all(arr.any() for arr in off.values())
        for key, arr in res.store.arrays.items():
            name = key[1] if key[0] == "out" else key[0]
            start = name in ("hy", "vee", "tri", "box", "hyb")
            assert not arr[off[start]].any(), key

    def test_second_outside_replaces_its_tables(self):
        """A second ``outside`` on one result gives the same tables and
        allocates its families in place of the first call's, not beside them."""
        res = inside(*strands("GGGAAACCC", "GGGUUUCCC"), default_model())
        first = outside(res)
        tables = {key: arr.copy() for key, arr in res.store.arrays.items()}
        peak, allocated = res.store.peak_bytes, res.store.allocated_bytes
        first_stacks = [weakref.ref(res.store.flat(family)) for family in _OUT_FAMILIES]
        second = outside(res)
        gc.collect()
        # the first call's tables are freed, though its ProbTables lives on
        assert not any(ref() is not None for ref in first_stacks)
        assert res.store.peak_bytes == peak
        assert res.store.allocated_bytes == allocated
        assert peak <= estimate_memory_bytes(9, 9)
        assert tables.keys() == res.store.arrays.keys()
        for key, arr in tables.items():
            assert np.array_equal(res.store[key], arr), key
        for name in ("bpp_r", "bpp_s", "bpp_ext"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name


class TestChainSums:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_formed_chain_sums_are_the_sums_of_their_parts(self, seed):
        """At every wave the formed CH_nohy is CNA + CNB and CH_all is CH_nohy
        + CHY, bit for bit, over the block of spans (1..p, 1..q) that GHY/GNA
        read; every label's CH_all is nonzero at some wave."""
        rng = np.random.default_rng(seed)
        r, s = random_seq(rng, 7), random_seq(rng, 9)
        res = inside(*strands(r, s), random_model(rng, min_hairpin=int(rng.integers(0, 3))))
        store, src = res.store, _operands(res.store, res.ctx)
        seen = set()
        for p, q in _waves(7, 9):
            block = _CH_ALL.at(_Wave(res.ctx, p, q))
            _CH_ALL.fill(src, _Wave(res.ctx, p, q))
            for k, (name, lab) in enumerate(LABELS.items()):
                nohy = store[("cna", name)][block]
                if lab.has_nb:
                    nohy = nohy + store[("cnb", name)][block]
                assert np.array_equal(src["ch_nohy"][k], nohy), (name, p, q)
                assert np.array_equal(src["ch_all"][k], nohy + store[("chy", name)][block]), (
                    name, p, q)
                if src["ch_all"][k].any():
                    seen.add(name)
        assert seen == set(LABELS)
