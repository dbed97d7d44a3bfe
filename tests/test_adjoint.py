"""Dot-product (adjoint) tests of the declared wave productions.

For every production ``C = F(A, B, ...)`` of ``grammar_inside._WAVE`` the
outside pass applies one transpose rule.  With random operands and a random
outside weight ``C_out`` the transpose must satisfy
``<C_out, F(A, ...)> == <A_out, A>`` for every operand A that has an outside
target (Claerbout's dot-product test).  The transpose runs in two parts, the
4D targets and the strand factors; both run, and each grad is checked once.
The waves checked have spans 1, 2 and the full strand length on each side,
far beyond the oracle's sizes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import jointfold.grammar_inside as gi
from jointfold.seq_model import Strand

from helpers import random_model, random_seq

N, M = 7, 6
_CONSTANTS = {"branch", "gap_branch"}  # the combined-item matrices stay as built


def _setup(seed: int):
    """A filled store with every stored tensor and _Ctx operand replaced by
    random values."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, min_hairpin=0)
    res = gi.inside(Strand.query(random_seq(rng, N)),
                    Strand.target_internal(random_seq(rng, M)), model)
    for arr in res.store.arrays.values():
        arr[...] = rng.random(arr.shape)
    src = gi._operands(res.store, res.ctx)
    for prod in gi._WAVE:
        for name, _spec in getattr(prod, "ops", ()):
            if name in vars(res.ctx) and name not in _CONSTANTS:
                src[name] = rng.random(np.shape(src[name]))
    return rng, res, src


def _outside(res, src) -> tuple[dict, dict]:
    """Zeroed outside targets; ``raw`` holds the unaliased chain stack."""
    shape = res.store.shape
    raw = {"chain": np.zeros((16,) + shape)}
    out = {"items": np.zeros((13,) + shape), "chain": gi._chain_rows(raw["chain"]),
           "rest": np.zeros((2, 6) + shape)}
    out.update({name: np.zeros_like(src[name]) for name in gi._SEGMENTS})
    return out, raw


def _waves(res):
    for p in sorted({1, 2, N}):
        for q in sorted({1, 2, M}):
            w = gi._Wave(res.ctx, p, q)
            w.tight_r, w.tight_s = p >= 3, q >= 3  # exercise the tight blocks
            yield w


def _close(lhs: float, rhs: float) -> bool:
    return abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-300)


def _nohy(src, block: tuple) -> np.ndarray:
    """CH_nohy over a block of its index, from the chain rows: CNA on every
    label, CNB on the flush labels."""
    chain = src["chain"]
    value = chain[(gi._CNA,) + block].copy()
    value[gi._NB] += chain[(gi._CNB, gi._NB) + block[1:]]
    return value


def _forward(prod, src, w) -> np.ndarray:
    """F(operands) at the lhs index, alone (the lhs cells start at zero)."""
    idx = prod.at(w)
    src[prod.lhs][idx[0]] = 0.0
    prod.fill(src, w)
    return src[prod.lhs][idx[0]].copy()


_PRODS = [prod for prod in gi._WAVE if isinstance(prod, gi._Prod)]


def _both_parts(prod, src, out, adj, w) -> None:
    """The 4D part of the transpose, then the strand part; together they
    hold every grad exactly once, the strand factors in the second."""
    (grads_4d, _copy), (grads_strand, _copy) = prod.parts
    assert sorted(map(id, grads_4d + grads_strand)) == sorted(map(id, prod.grads))
    strand = set(map(id, grads_strand))
    assert all((g[1] in gi._SEGMENTS) == (id(g) in strand) for g in prod.grads)
    prod.transpose(src, out, adj, w)
    prod.transpose(src, out, adj, w, True)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", range(len(_PRODS)))
def test_production_transpose_is_the_adjoint(seed, k):
    prod = _PRODS[k]
    rng, res, src = _setup(seed)
    checked = 0
    for w in _waves(res):
        if prod.when is not None and not prod.when(w):
            continue
        idx = prod.at(w)
        ci_shape = (3, 6, w.p, w.q, N - w.p + 1, M - w.q + 1)
        src["ci"] = rng.random(ci_shape)
        src["ch_nohy"] = _nohy(src, (slice(None),) + gi._CH_ALL.at(w))
        out, _raw = _outside(res, src)
        c_out = rng.random(np.shape(src[prod.lhs][idx[0]]))
        out[prod.lhs][idx[0]] = c_out
        adj = {"ci": np.zeros(ci_shape)}
        _both_parts(prod, src, out, adj, w)
        for op, name, *_rest, live, _cuts in prod.grads:
            at = idx[op]
            saved = None
            if live is not None:  # rows outside ``live`` are constants
                saved = src[name].copy()
                keep = np.zeros(len(src[name]), bool)
                keep[live] = True
                src[name][~keep] = 0.0
            value = src[name][at]
            weight = (adj[name] if name in ("ch_all", "ch_nohy") else
                      adj[name][at] if name == "ci" else out[name][at])
            lhs = float((c_out * _forward(prod, src, w)).sum())
            rhs = float((weight * value).sum())
            assert _close(lhs, rhs), (prod.lhs, name, w.p, w.q, lhs, rhs)
            checked += 1
            if saved is not None:
                src[name][...] = saved
    assert checked


@pytest.mark.parametrize("seed", [0, 1])
def test_combined_items_transpose_is_the_adjoint(seed):
    rng, res, src = _setup(seed)
    for w in _waves(res):
        gi._CI.fill(src, w)
        value = src.pop("ci")
        out, _raw = _outside(res, src)
        o = rng.random(value.shape)
        gi._CI.transpose(src, out, {"ci": o.copy()}, w)
        block = gi._CI.at(w)[1:]
        items = src["items"][(slice(0, 9),) + block]
        rhs = float((out["items"][(slice(0, 9),) + block] * items).sum())
        assert _close(float((o * value).sum()), rhs), (w.p, w.q)


@pytest.mark.parametrize("seed", [0, 1])
def test_chain_sums_transpose_is_the_adjoint(seed):
    """CH_all (formed at each wave) and CH_nohy over the block that GHY/GNA
    read, against the push of their outside weight onto the chain parts."""
    rng, res, src = _setup(seed)
    for w in _waves(res):
        for a in range(1, w.p + 1):
            for b in range(1, w.q + 1):
                gi._CH_ALL.fill(src, gi._Wave(res.ctx, a, b))
        block = (slice(None),) + gi._CH_ALL.at(w)
        o_all = rng.random(src["ch_all"][block].shape)
        o_nohy = rng.random(o_all.shape)
        out, raw = _outside(res, src)
        gi._CH_ALL.transpose(src, out, {"ch_all": o_all, "ch_nohy": o_nohy.copy()}, w)
        lhs = float((o_all * src["ch_all"][block]).sum() + (o_nohy * _nohy(src, block)).sum())
        rhs = sum(float((raw["chain"][slot] * res.store[key]).sum())
                  for slot, key in enumerate(gi._CHAIN_KEYS))
        assert _close(lhs, rhs), (w.p, w.q)


@pytest.mark.parametrize("seed", [0, 1])
def test_wave_transpose_is_the_adjoint_of_the_fill(seed):
    """The 4D part of ``_transpose_wave``, whatever path it takes, against
    ``_fill_wave`` at one wave.  The wave writes some cells of the inside
    tables from the others; the strand factors are constants here.  Its map
    is a polynomial of degree 2 in the cells it reads (an item times a gap),
    so along a random step the central difference of the written values is
    their exact derivative.  With a random outside weight on every written
    cell, that derivative weighted must equal the transpose's outside weight
    on the cells read, times the step.  CH_all has no outside family: it is
    kept equal to CNA + CNB + CHY, so that its outside weight may pass to the
    chain parts."""
    rng, res, src = _setup(seed)
    flat, chain, ch_all = res.store.flat, res.store.stacks["chain"], res.store.stacks["ch_all"]
    families = ("items", "chain", "rest")
    point = {f: flat(f).copy() for f in families}
    step = {f: rng.random(a.shape) for f, a in point.items()}

    def fill(sign: int, w) -> dict:
        for f in families:
            flat(f)[:] = point[f] + sign * step[f]
        np.add(chain[gi._CNA], chain[gi._CHY], out=ch_all)
        ch_all[gi._NB] += chain[gi._CNB, gi._NB]
        gi._fill_wave(src, w)
        return {f: flat(f).copy() for f in families}

    for w in _waves(res):
        up, down, filled = fill(1, w), fill(-1, w), fill(0, w)
        written = {f: filled[f] != point[f] for f in families}
        out, raw = _outside(res, src)
        weights = {"items": out["items"][:9].reshape(-1), "chain": raw["chain"].reshape(-1),
                   "rest": out["rest"].reshape(-1)}
        lhs = 0.0
        for f in families:
            seed_weight = weights[f][written[f]] = rng.random(written[f].sum())
            lhs += float(seed_weight @ (up[f] - down[f])[written[f]]) / 2
        gi._transpose_wave(src, out, w)
        rhs = sum(float(weights[f][~written[f]] @ step[f][~written[f]]) for f in families)
        assert all(written[f].any() for f in families if w.gap), (w.p, w.q)
        assert _close(lhs, rhs), (w.p, w.q, lhs, rhs)


_SPARSE = [prod for prod in _PRODS if prod.sparse]


@pytest.mark.parametrize("k", range(len(_SPARSE)))
def test_production_without_outside_weight_is_skipped(k):
    """A sparse lhs with no outside weight at a wave: the transpose leaves
    every target as it was and passes no weight to a chain sum."""
    prod = _SPARSE[k]
    _rng, res, src = _setup(0)
    checked = 0
    for w in _waves(res):
        if prod.when is not None and not prod.when(w):
            continue
        out, _raw = _outside(res, src)
        adj = {"ci": np.zeros((3, 6, w.p, w.q, N - w.p + 1, M - w.q + 1))}
        _both_parts(prod, src, out, adj, w)
        assert adj.keys() == {"ci"} and not adj["ci"].any(), (prod.lhs, w.p, w.q)
        assert not any(np.any(target) for target in out.values()), (prod.lhs, w.p, w.q)
        checked += 1
    assert checked


def test_chain_sums_without_outside_weight_are_skipped():
    _rng, res, src = _setup(0)
    for w in _waves(res):
        out, raw = _outside(res, src)
        gi._CH_ALL.transpose(src, out, {}, w)
        assert not raw["chain"].any(), (w.p, w.q)


def test_every_production_is_quoted_in_the_grammar_table():
    # docs/grammar.md §4 is a prose copy of _WAVE: its table quotes the
    # einsum text of every declared production, so the two cannot drift
    doc = (Path(__file__).resolve().parent.parent / "docs" / "grammar.md").read_text()
    section = doc[doc.index("## 4. Productions"):doc.index("## 5. ")]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    for prod in _PRODS:
        out = prod.spec.split("->")[1]
        text = f"{prod.lhs}[{out}] = " + " ".join(f"{name}[{spec}]" for name, spec in prod.ops)
        assert f"`{text}`" in table, text
