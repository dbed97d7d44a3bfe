from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from jointfold.energy import (
    EnergyModel,
    ParamError,
    default_model,
    load_params,
    parse_params,
    unit_model,
    weight_hybrid_step,
)
from jointfold.energy import InvalidGap


class TestWeightHybridStep:
    def test_unit_model_step_is_one(self):
        m = unit_model()
        assert weight_hybrid_step(m, 1, 1, 2, 2, "EE") == pytest.approx(1.0)
        assert weight_hybrid_step(m, 1, 1, 4, 3, "KK") == pytest.approx(1.0)

    def test_contiguous_ee_step(self):
        m = EnergyModel(rt=1.0, sigma0=1.0, sigma=1.0, g_int_init=0.5,
                        g_int_slope=0.0)
        w = weight_hybrid_step(m, 5, 7, 6, 8, "EE")
        assert w == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_kk_step_counts_gap_bases(self):
        m = EnergyModel(rt=1.0, sigma0=1.0, sigma=1.0, g_int_init=0.5,
                        g_int_slope=0.0, beta3=0.25)
        # one R gap base, no S gap base: exponent 1.5 + 0.25
        w = weight_hybrid_step(m, 5, 7, 7, 8, "KK")
        assert w == pytest.approx(math.exp(-1.75), rel=1e-12)

    def test_side_selective_beta3(self):
        m = EnergyModel(rt=1.0, sigma0=0.0, sigma=0.0, beta3=0.5)
        assert weight_hybrid_step(m, 1, 1, 3, 2, "EK") == pytest.approx(1.0)
        assert weight_hybrid_step(m, 1, 1, 3, 2, "KE") == pytest.approx(
            math.exp(-0.5)
        )

    def test_invalid_gap(self):
        with pytest.raises(InvalidGap):
            weight_hybrid_step(unit_model(), 3, 3, 3, 4, "EE")

    def test_unknown_context(self):
        with pytest.raises(ValueError):
            weight_hybrid_step(unit_model(), 1, 1, 2, 2, "XX")


class TestExponentialHomomorphism:
    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    def test_weight_of_sum_is_product(self, e1, e2):
        m = default_model()
        lhs = m.weight(e1 + e2)
        rhs = m.weight(e1) * m.weight(e2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestUnitModel:
    def test_all_weights_one(self):
        m = unit_model()
        assert m.w_hairpin(7) == 1.0
        assert m.w_interior(2, 3) == 1.0
        assert m.w_stack("GC", "CG") == 1.0
        assert m.w_ext("A", "U") == 1.0
        assert m.w_kiss_init == m.w_multi_init == 1.0

    def test_pair_admissibility_is_structural(self):
        m = unit_model()
        assert m.w_ext("A", "G") == 0.0
        assert not m.pairable("A", "A")

    def test_without_interaction(self):
        m = unit_model().without_interaction()
        assert m.w_ext("A", "U") == 0.0
        assert m.w_ext("G", "C") == 0.0


class TestParamsFile:
    def test_empty_file_is_defaults(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("")
        assert load_params(str(path)) == default_model()

    def test_assignment(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("sigma0 = 1.0\n# comment\nkiss_init = 2.5\n")
        m = load_params(str(path))
        assert m.sigma0 == 1.0
        assert m.kiss_init == 2.5

    def test_parse_error_has_line_number(self):
        with pytest.raises(ParamError, match="line 2"):
            parse_params("sigma0 = 1.0\nsigma0 = abc\n")

    def test_negative_min_hairpin(self):
        with pytest.raises(ParamError, match="min_hairpin must be >= 0"):
            parse_params("min_hairpin = -1\n")

    def test_unknown_key(self):
        with pytest.raises(ParamError, match="unknown key"):
            parse_params("sigma9 = 1.0\n")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_params("/nonexistent/params.txt")

    def test_overrides_and_pairs(self):
        m = parse_params(
            "pairs = AU,UA,GC,CG\next_GC = -3.0\nstack_GC_CG = -3.3\n"
            "forbid_lone_pairs = true\nmin_hairpin = 0\n"
        )
        assert m.pairs == ("AU", "UA", "GC", "CG")
        assert not m.pairable("G", "U")
        assert m.ext_overrides[("G", "C")] == -3.0
        assert m.forbid_lone_pairs and m.min_hairpin == 0

    def test_fingerprint_tracks_params(self):
        assert default_model().fingerprint() != unit_model().fingerprint()
        assert default_model().fingerprint() == default_model().fingerprint()

    def test_fingerprints_are_pinned(self, tmp_path):
        # the canonical parameter text is part of every report header: any
        # change to its keys, order or number format changes these digests
        assert default_model().fingerprint() == "0c1e4814d85f"
        path = tmp_path / "p.txt"
        path.write_text(
            "rt = 0.6\nmin_hairpin = 2\nforbid_lone_pairs = true\npairs = GC,CG,AU,UA\n"
            "stack = -1.5\nstack_GC_CG = -3.25\nstack_AU_UA = -0.75\nkiss_unpaired = 0.2\n"
            "ext_arc = -2.0\next_GC = -2.5\next_AU = inf\n")
        assert load_params(str(path)).fingerprint() == "620529ab99fb"

    @pytest.mark.parametrize("rt", ["0", "-0.6", "inf", "nan"])
    def test_rt_must_be_finite_and_positive(self, rt):
        with pytest.raises(ParamError, match="rt must be finite and > 0"):
            parse_params(f"rt = {rt}\n")
        with pytest.raises(ParamError, match="rt must be finite and > 0"):
            EnergyModel(rt=float(rt))

    def test_inf_disables(self):
        m = parse_params("ext_arc = inf\n")
        assert m.w_ext("A", "U") == 0.0
