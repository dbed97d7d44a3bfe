from __future__ import annotations

import itertools

import numpy as np
import pytest

import jointfold.grammar_inside as grammar_inside
import jointfold.secfold as secfold
from jointfold.energy import default_model
from jointfold.oracle import enumerate_secondary
from jointfold.outside_prob import outside
from jointfold.secfold import SecEngine, fold, secondary_bpp
from jointfold.seq_model import Strand

from helpers import random_model, random_seq, sec_adm, sec_case_value, sec_cases
from jointfold.energy import unit_model


def count(seq: str, min_hairpin: int = 3, **kw) -> float:
    return fold(Strand.query(seq), unit_model(min_hairpin=min_hairpin, **kw)).q_total()


class TestCounts:
    def test_no_pairable_bases(self):
        assert count("AAAA") == 1.0

    def test_single_admissible_arc(self):
        assert count("GAAAC") == 2.0

    def test_nested_helix(self):
        # empty, (1,7), (2,6), (1,6), (2,7), (1,7)+(2,6)
        assert count("GGAAACC") == 6.0

    def test_empty_interval_convention(self):
        eng = fold(Strand.query("GAAAC"), unit_model())
        assert eng.tables["q"][3, 2] == 1.0

    def test_matches_exhaustive_counts(self):
        rng = np.random.default_rng(7)
        for trial in range(12):
            seq = random_seq(rng, int(rng.integers(1, 11)))
            theta = int(rng.integers(0, 4))
            model = unit_model(min_hairpin=theta)
            n_structs, _, _ = enumerate_secondary(Strand.query(seq), model)
            assert count(seq, min_hairpin=theta) == float(n_structs), seq

    def test_unit_entries_are_integers(self):
        eng = fold(Strand.query("GGACGUCAAC"), unit_model(min_hairpin=0))
        sub = eng.tables["q"][1:11, 1:11]
        assert np.allclose(sub, np.round(sub))


class TestWeighted:
    def test_matches_exhaustive_weights(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            seq = random_seq(rng, int(rng.integers(2, 11)))
            model = random_model(rng, min_hairpin=int(rng.integers(0, 4)))
            _, weighted, _ = enumerate_secondary(Strand.query(seq), model)
            got = fold(Strand.query(seq), model).q_total()
            assert got == pytest.approx(weighted, rel=1e-9), seq

    def test_monotone_in_pair_set(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            seq = random_seq(rng, 9)
            small = unit_model(pairs=("AU", "UA", "GC", "CG"))
            big = unit_model()
            assert (
                fold(Strand.query(seq), big).q_total()
                >= fold(Strand.query(seq), small).q_total()
            )


class TestLonePairMode:
    def test_counts_match_exhaustive(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            seq = random_seq(rng, int(rng.integers(4, 11)))
            model = unit_model(min_hairpin=int(rng.integers(0, 4)),
                               forbid_lone_pairs=True)
            n_structs, _, _ = enumerate_secondary(Strand.query(seq), model)
            got = fold(Strand.query(seq), model).q_total()
            assert got == float(n_structs), seq

    def test_weights_match_exhaustive(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            seq = random_seq(rng, int(rng.integers(4, 10)))
            model = random_model(rng, min_hairpin=0, forbid_lone_pairs=True)
            _, weighted, _ = enumerate_secondary(Strand.query(seq), model)
            got = fold(Strand.query(seq), model).q_total()
            assert got == pytest.approx(weighted, rel=1e-9), seq


class TestSecondaryBpp:
    def test_matches_exhaustive_marginals(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            seq = random_seq(rng, int(rng.integers(3, 10)))
            model = random_model(rng, min_hairpin=int(rng.integers(0, 3)))
            strand = Strand.query(seq)
            _, z, structures = enumerate_secondary(strand, model)
            bpp = secondary_bpp(strand, model)
            exact: dict = {}
            for arcs, w in structures:
                for arc in arcs:
                    exact[arc] = exact.get(arc, 0.0) + w / z
            for i in range(1, len(seq) + 1):
                for j in range(i + 1, len(seq) + 1):
                    assert bpp[i, j] == pytest.approx(
                        exact.get((i, j), 0.0), abs=1e-9
                    ), (seq, i, j)

    def test_position_sum_bounded(self):
        seq = "GGGAAACCCAUGC"
        bpp = secondary_bpp(Strand.query(seq), random_model(np.random.default_rng(5)))
        n = len(seq)
        for i in range(1, n + 1):
            total = bpp[i, :].sum() + bpp[:, i].sum()
            assert total <= 1.0 + 1e-9


def _model(kind: str, seed: int, min_hairpin: int, nolp: bool):
    if kind == "default":
        return default_model(min_hairpin=min_hairpin, forbid_lone_pairs=nolp)
    return random_model(np.random.default_rng(seed), min_hairpin=min_hairpin,
                        forbid_lone_pairs=nolp)


def _cell_from_cases(eng: SecEngine, kind: str, i: int, j: int) -> float:
    return sum(sec_case_value(eng, case) for case in sec_cases(eng, kind, i, j))


def _reference_outside(eng: SecEngine, seeds: dict) -> dict:
    """The outside sweep written as a scalar loop over the reference cases:
    every case passes the cell's outside weight times its weight and its
    other children's values to each child that is a cell."""
    n = eng.n
    acc = {k: np.zeros((n + 2, n + 2)) for k in eng.kinds}
    for k, arr in seeds.items():
        acc[k] += arr
    for span in range(n, 0, -1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            for kind in reversed(eng.kinds):
                o = acc[kind][i, j]
                if o == 0.0:
                    continue
                for w, children, _arc in sec_cases(eng, kind, i, j):
                    vals = [eng.value(*c) for c in children]
                    for t, (ck, ci, cj) in enumerate(children):
                        if cj < ci:  # empty interval, no table cell
                            continue
                        contrib = o * w
                        for s, v in enumerate(vals):
                            if s != t:
                                contrib *= v
                        acc[ck][ci, cj] += contrib
    return acc


def _assert_rel(got: np.ndarray, want: np.ndarray, rel: float, what) -> None:
    zeros_differ = np.argwhere((got == 0.0) != (want == 0.0)).tolist()
    assert not zeros_differ, (what, zeros_differ[:5])
    worst = float((np.abs(got - want) / np.where(want == 0.0, 1.0, np.abs(want))).max())
    assert worst <= rel, (what, worst)


# (length, weights, min_hairpin, lone pairs forbidden): every length meets
# both weight sets, each min_hairpin 0-3 and both lone-pair modes
_LONG = [
    (30, "default", 0, False), (30, "random", 3, True),
    (48, "default", 2, True), (48, "random", 1, False),
    (64, "default", 3, False), (64, "random", 0, True),
]


class TestLongStrands:
    """The span-vectorised fill and outside against the per-cell cases, at
    lengths beyond the brute-force oracle's reach."""

    @pytest.mark.parametrize("n, weights, theta, nolp", _LONG)
    def test_every_cell_is_the_sum_of_its_cases(self, n, weights, theta, nolp):
        rng = np.random.default_rng(n + theta)
        model = _model(weights, n, theta, nolp)
        eng = fold(Strand.query(random_seq(rng, n)), model)
        for kind in eng.kinds:
            want = np.zeros((n + 2, n + 2))
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    want[i, j] = _cell_from_cases(eng, kind, i, j)
            got = np.triu(eng.tables[kind])
            _assert_rel(got, want, 1e-12, kind)

    @pytest.mark.parametrize("n, weights, theta, nolp", [
        (25, "random", 0, False), (31, "default", 1, True),
        (36, "random", 2, True), (40, "default", 3, False),
    ])
    def test_outside_equals_the_scalar_sweep(self, n, weights, theta, nolp):
        rng = np.random.default_rng(100 + n)
        model = _model(weights, n, theta, nolp)
        eng = fold(Strand.query(random_seq(rng, n)), model)
        seeds = {}
        for kind in eng.kinds:
            arr = np.triu(rng.random((n + 2, n + 2)) * (rng.random((n + 2, n + 2)) < 0.2))
            arr[0, :] = arr[:, 0] = arr[-1, :] = arr[:, -1] = 0.0
            seeds[kind] = arr
        got = eng.outside(seeds)
        want = _reference_outside(eng, seeds)
        for kind in eng.kinds:
            _assert_rel(got[kind], want[kind], 1e-12, kind)


# (weights, min_hairpin, lone pairs forbidden): every combination
_GRID = [(w, theta, nolp) for w in ("default", "random") for theta in (0, 1, 3)
         for nolp in (False, True)]


class TestSampledCases:
    """The sampler reads the declarations that filled the tables, so its
    per-draw slack cannot see a wrong declaration; these tests hold the
    cases it draws from to the reference."""

    @pytest.mark.parametrize("weights, theta, nolp", _GRID)
    def test_every_nonzero_cell_scores_the_reference_cases(self, weights, theta, nolp,
                                                           monkeypatch):
        """At every nonzero cell, the weights that :meth:`SecEngine.sample`
        scores are the reference case values bit for bit, in the reference
        order, and each index decodes to the reference case's children and
        arc."""
        scored, pick = [], secfold.pick_with_slack

        def spy(weights, total, us):
            scored.append(weights)
            return pick(weights, total, us)

        monkeypatch.setattr(secfold, "pick_with_slack", spy)
        rng = np.random.default_rng(7 * theta + nolp)
        model = _model(weights, 50 + theta, theta, nolp)
        checked, kinds = 0, set()
        for n in range(1, 14):
            eng = fold(Strand.query(random_seq(rng, n)), model)
            for kind in eng.kinds:
                for i in range(1, n + 1):
                    for j in range(i, n + 1):
                        if eng.value(kind, i, j) == 0.0:
                            continue
                        decode, _chosen, _slack = eng.sample(kind, i, j, np.array([0.5]))
                        cases = sec_cases(eng, kind, i, j)
                        want = np.array([sec_case_value(eng, case) for case in cases])
                        assert scored.pop().tobytes() == want.tobytes(), (kind, i, j)
                        for t, (_w, children, arc) in enumerate(cases):
                            cells = [c for c in children if c[2] >= c[1]]
                            assert decode(t) == (cells, arc), (kind, i, j, t)
                        checked += 1
                        kinds.add(kind)
        assert checked > 1000 and kinds == set(eng.kinds), (checked, kinds)


class TestTracedEntryPoints:
    """The benchmark times the secondary layer by replacing
    ``grammar_inside.fold`` and ``SecEngine.outside``; every secondary fill
    and outside sweep of ``inside()``, ``outside()`` and the base-pair pass
    must run inside one of those calls."""

    def test_patched_entry_points_see_all_secondary_work(self, monkeypatch):
        depth = {"fold": 0, "outside": 0}
        calls = {"fold": 0, "outside": 0, "evaluate": 0, "transpose": 0}

        def entered(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                depth[name] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[name] -= 1
            return wrapper

        def within(name, scope, fn):
            def wrapper(*args, **kwargs):
                assert depth[scope] == 1, f"{name} outside a traced {scope}"
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(grammar_inside, "fold", entered("fold", grammar_inside.fold))
        monkeypatch.setattr(SecEngine, "outside", entered("outside", SecEngine.outside))
        monkeypatch.setattr(secfold._Cases, "evaluate",
                            within("evaluate", "fold", secfold._Cases.evaluate))
        monkeypatch.setattr(secfold._Cases, "transpose",
                            within("transpose", "outside", secfold._Cases.transpose))
        rng = np.random.default_rng(4)
        R = Strand.query(random_seq(rng, 7))
        S = Strand.target_internal(random_seq(rng, 9))
        res = grammar_inside.inside(R, S, random_model(rng, min_hairpin=1))
        assert calls["fold"] == 2 and calls["evaluate"] > 0
        outside(res).bpp_r
        assert calls["outside"] == 2 and calls["transpose"] > 0


class TestSpanLayout:
    """The strand factors declared in ``_Ctx`` against per-cell reads of the
    tables and of the arcs' admissibility."""

    @pytest.mark.parametrize("r, s", [("G", "C"), ("GGACU", "AGUCCAUGC")])
    def test_step_kernel_is_the_per_cell_weight(self, r, s):
        """The hybrid step kernel, gathered by gap-size sum, equals one
        ``w_step_base`` call per pair of gap sizes, bit for bit."""
        model = random_model(np.random.default_rng(9), min_hairpin=0)
        R, S = Strand.query(r), Strand.target_internal(s)
        ctx = grammar_inside._Ctx(fold(R, model), fold(S, model))
        n, m = len(r), len(s)
        want = np.array([[model.w_step_base(gr, gs) for gs in range(m + 1)]
                         for gr in range(n + 1)])
        step = dict(zip(grammar_inside.HY_CLASSES, ctx.step))
        assert np.array_equal(step["EE"], want)
        b3r, b3s = model.w_beta3 ** np.arange(n + 1), model.w_beta3 ** np.arange(m + 1)
        assert np.array_equal(step["KK"], want * b3r[:, None] * b3s[None, :])

    @pytest.mark.parametrize("r, s", [("G", "C"), ("GGACU", "AGUCCAUGC")])
    def test_segment_arrays_are_the_table_cells(self, r, s):
        """Every entry of every declared strand factor reads the table cell
        that its span names, with weight 1 (0 off the strand), or the plane
        of ones with the weight of an unpaired, flush or empty segment; its
        value in ``_Ctx`` is that cell's value times the weight.  The
        admissibility factor reads the arc's cell of the admissibility plane
        on the strand, and the plane of ones at weight 0 off it and at span 0."""
        model = random_model(np.random.default_rng(6), min_hairpin=0)
        R, S = Strand.query(r), Strand.target_internal(s)
        engines = fold(R, model), fold(S, model)
        ctx = grammar_inside._Ctx(*engines)
        tables = {("any", "E"): "q", ("any", "K"): "qk", ("ge1", "E"): "q1", ("ge1", "K"): "q1k"}
        terms = [("unp", "ge1"), ("ge1", "any"), ("any", "any")]  # GHY, GHY, GNA
        labs = list(grammar_inside.LABELS.values())
        assert {name[:-2] for name in ctx.factors} == {"adm", "kq", "gap", "bare", "tail",
                                                        "prefix"}
        for k, (side, eng) in enumerate(zip("rs", engines)):
            n, area = eng.n, (eng.n + 2) ** 2
            ones = len(eng.kinds) * area
            cls = [(lab.class_r, lab.class_s)[k] for lab in labs]
            tail = [(lab.tail_r, lab.tail_s)[k] for lab in labs]
            # factor -> its entries: (leading index, [g, x] entries or None for
            # all of them, segment kind, exposure class, end anchored)
            segments = {"kq": [((), None, "any", "K", False)],
                        "gap": [((t, l), None, term[k], c, False)
                                for t, term in enumerate(terms) for l, c in enumerate(cls)],
                        "bare": [((l,), None, "unp", c, False) for l, c in enumerate(cls)],
                        "tail": [((l,), None, "any" if t == "free" else "flush", c, True)
                                 for l, (t, c) in enumerate(zip(tail, cls))],
                        "prefix": [((p,), (n - p, 1), "any", "E", False) for p in range(n + 1)]}
            checked = 0
            for name, entries in segments.items():
                owner, index, weight = ctx.factors[f"{name}_{side}"]
                value = getattr(ctx, f"{name}_{side}")
                assert owner is eng and index.shape == weight.shape == value.shape
                for lead, span, kind, c, end in entries:
                    # lengths g from 0, anchors x = 1..n at index x - 1
                    cells = [span] if span else itertools.product(range(n + 2), range(1, n + 1))
                    for g, x in cells:
                        i, j = (x - g + 1, x) if end else (x, x + g - 1)
                        on = 1 <= i and j <= n
                        at = lead if span else lead + (g, x - 1)
                        if g >= 1 and on and kind in ("any", "ge1"):
                            table = tables[kind, c]
                            assert index[at] == eng.kinds.index(table) * area + i * (n + 2) + j
                            want_w, want = 1.0, eng.value(table, i, j)
                        else:
                            assert index[at] == ones, (name, at)
                            u = model.w_kiss_unpaired if c == "K" else 1.0
                            # the empty interval, an unpaired segment, else 0
                            want_w = want = (float(kind != "ge1") if g == 0
                                             else u ** g if on and kind == "unp" else 0.0)
                        assert weight[at] == want_w and value[at] == want, (name, at)
                        checked += 1
            assert checked == (1 + 3 * 6 + 6 + 6) * (n + 2) * n + n + 1
            owner, index, weight = ctx.factors[f"adm_{side}"]
            adm = getattr(ctx, f"adm_{side}")
            assert owner is eng and index.shape == weight.shape == adm.shape == (n + 2, n)
            for g in range(n + 2):
                for x in range(1, n + 1):
                    j = x + g - 1
                    if g >= 1 and 1 <= x and j <= n:
                        assert index[g, x - 1] == eng.offset["adm"] + x * (n + 2) + j
                        assert weight[g, x - 1] == 1.0
                    else:
                        assert index[g, x - 1] == ones and weight[g, x - 1] == 0.0, (g, x)
                    assert adm[g, x - 1] == (g >= 1 and 1 <= x and j <= n and sec_adm(eng, x, j))
