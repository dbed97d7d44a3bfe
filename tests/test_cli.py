from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jointfold.cli_reports import (
    _build_parser,
    _config,
    CliError,
    RunConfig,
    format_target_line,
    ingest_fasta,
    main,
    run,
)
from jointfold.energy import default_model
from jointfold.grammar_inside import inside
from jointfold.outside_prob import outside


UNIT_PARAMS = "\n".join(
    f"{key} = 0"
    for key in (
        "hairpin_init", "hairpin_slope", "interior_init", "interior_slope",
        "stack", "multi_init", "multi_branch", "multi_unpaired",
        "kiss_init", "kiss_branch", "kiss_unpaired",
        "sigma0", "sigma", "beta3", "g_int_init", "g_int_slope", "ext_arc",
    )
) + "\n"


def read_matrix_tsv(path: str) -> np.ndarray:
    """Read back a matrix TSV file that the tool wrote."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            rows.append([float(v) for v in parts[1:]])
    return np.array(rows)


@pytest.fixture()
def fasta(tmp_path):
    def write(text, name="in.fa"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture()
def unit_params(tmp_path):
    path = tmp_path / "unit_params.txt"
    path.write_text(UNIT_PARAMS)
    return str(path)


def cfg(command, inputs, **kw):
    return RunConfig(command=command, inputs=inputs, **kw)


def capture(config) -> tuple[int, str]:
    buf = io.StringIO()
    status = run(config, stream=buf)
    return status, buf.getvalue()


class TestIngest:
    def test_reversal_convention(self, fasta):
        path = fasta(">r\nGAAAC\n>s\nGUUUC\n")
        R, S = ingest_fasta([path])
        assert R.residues == "GAAAC"
        assert S.residues == "CUUUG"  # stored from the 3' end

    def test_t_normalisation_and_ids(self, fasta):
        path = fasta(">query x\nGATTC\n>target\nGGG\n")
        R, S = ingest_fasta([path])
        assert R.id == "query" and R.residues == "GAUUC"
        assert S.id == "target"

    def test_two_files(self, fasta):
        p1 = fasta(">r\nAAA\n", "r.fa")
        p2 = fasta(">s\nUUU\n", "s.fa")
        R, S = ingest_fasta([p1, p2])
        assert len(R) == len(S) == 3

    def test_wrong_record_count(self, fasta):
        with pytest.raises(CliError, match="2 records"):
            ingest_fasta([fasta(">only\nAAC\n")])

    def test_bad_alphabet_position(self, fasta):
        with pytest.raises(CliError, match="position 2"):
            ingest_fasta([fasta(">r\nAXC\n>s\nGGG\n")])

    def test_missing_file(self):
        with pytest.raises(CliError, match="no such file"):
            ingest_fasta(["/nonexistent.fa"])


class TestFileErrors:
    """A file that cannot be read, or an output directory that cannot be
    made, ends the run with one line ``error: <Class>: <path>: <reason>``."""

    @staticmethod
    def _fails_with(argv, line, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_fasta_that_is_a_directory(self, tmp_path, capsys):
        self._fails_with(["pf", str(tmp_path)], f"BadFile: {tmp_path}: Is a directory", capsys)

    def test_fasta_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "in.fa"
        path.write_bytes(b">r\nGA\xffC\n>s\nGUUUC\n")
        self._fails_with(["pf", str(path)],
                         f"BadEncoding: {path}: not UTF-8: invalid start byte at byte 5", capsys)

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_params_that_cannot_be_read(self, via, fasta, tmp_path, capsys, monkeypatch):
        path = fasta(">r\nGAAAC\n>s\nGUUUC\n")
        latin = tmp_path / "latin.txt"
        latin.write_bytes(b"# \xe9nergie\n")
        for params, line in ((tmp_path, f"BadFile: {tmp_path}: Is a directory"),
                             (latin, f"BadEncoding: {latin}: not UTF-8: invalid continuation "
                                     "byte at byte 2")):
            if via == "flag":
                argv = ["pf", path, "--params", str(params)]
            else:
                monkeypatch.setenv("JOINTFOLD_PARAMS", str(params))
                argv = ["pf", path]
            self._fails_with(argv, line, capsys)

    @pytest.mark.parametrize("command", ["bpp", "hybrids", "dotplot"])
    def test_outdir_that_cannot_be_made(self, command, fasta, tmp_path, capsys):
        path = fasta(">r\nGAAAC\n>s\nGUUUC\n")
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([command, path, "--outdir", str(taken)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: BadOutdir: {taken}: File exists\n"
        assert captured.out == ""  # refused before any table is filled
        self._fails_with([command, path, "--outdir", str(taken / "sub")],
                         f"BadOutdir: {taken / 'sub'}: Not a directory", capsys)

    @pytest.mark.parametrize("command, first", [("bpp", "bpp_r.tsv"), ("hybrids", "hybrids.tsv"),
                                                ("dotplot", "dotplot.svg")])
    def test_output_file_that_cannot_be_written(self, command, first, fasta, tmp_path, capsys):
        path = fasta(">r\nGAAAC\n>s\nGUUUC\n")
        (tmp_path / "out" / first).mkdir(parents=True)
        self._fails_with([command, path, "--outdir", str(tmp_path / "out")],
                         f"BadOutput: {tmp_path / 'out' / first}: Is a directory", capsys)


class TestPf:
    def test_factorisation_surfaces_end_to_end(self, fasta, tmp_path):
        params = tmp_path / "p.txt"
        params.write_text("ext_arc = inf\n")
        path = fasta(">r\nGAAAC\n>s\nGUUUC\n")
        status, text = capture(
            cfg("pf", [path], params_path=str(params))
        )
        assert status == 0
        values = dict(
            line.split("\t") for line in text.splitlines() if "\t" in line
        )
        assert float(values["Q_I"]) == pytest.approx(
            float(values["Q_R"]) * float(values["Q_S"]), rel=1e-12
        )

    def test_json_output(self, fasta):
        path = fasta(">r\nAAA\n>s\nAAA\n")
        status, text = capture(cfg("pf", [path], as_json=True))
        assert status == 0
        import json

        payload = json.loads([l for l in text.splitlines() if l.startswith("{")][0])
        assert set(payload) >= {"q_total", "q_r", "q_s"}

    def test_estimate_printed_before_results(self, fasta):
        path = fasta(">r\nAAA\n>s\nUUU\n")
        _status, text = capture(cfg("pf", [path]))
        lines = text.splitlines()
        est_line = next(i for i, l in enumerate(lines) if "estimated table bytes" in l)
        q_line = next(i for i, l in enumerate(lines) if l.startswith("Q_I"))
        assert est_line < q_line

    def test_capacity_error_is_machine_parsable(self, fasta, capsys):
        path = fasta(">r\nAAAAAAAA\n>s\nUUUUUUUU\n")
        status = run(cfg("pf", [path], memory_budget_bytes=10))
        assert status == 1
        assert "CapacityExceeded:" in capsys.readouterr().err


class TestBudget:
    # 15x15: the inside run needs 19,621,978 B (17,415,000 B of tables), inside
    # and outside 36,226,978 B; the budget is 0.025 GiB = 26,843,545 B
    @pytest.mark.parametrize("command, fits", [("pf", True), ("sample", True),
                                               ("targets", False)])
    def test_budget_covers_what_the_command_allocates(self, command, fits, fasta, capsys):
        path = fasta(">r\nGGACUUCAGCAUCGA\n>s\nUCGAUGCUGAAGUCC\n")
        budget = int(0.025 * 1024**3)
        status, text = capture(cfg(command, [path], memory_budget_bytes=budget, num=2))
        assert status == (0 if fits else 1)
        est = int(re.search(r"# estimated table bytes: (\d+)", text).group(1))
        assert (est <= budget) == fits
        if fits:
            assert "CapacityExceeded" not in capsys.readouterr().err
        else:
            assert "CapacityExceeded: tables need" in capsys.readouterr().err


class TestInvalidNumbers:
    @pytest.mark.parametrize("command", ["pf", "targets", "sample"])
    def test_overflowing_ensemble_is_a_one_line_error(self, command, fasta, tmp_path,
                                                       capsys):
        # exterior arcs of weight ~1e282: any two of them overflow
        params = tmp_path / "p.txt"
        params.write_text("ext_arc = -400\n")
        path = fasta(">r\nGGGCCC\n>s\nGGGCCC\n")
        status, text = capture(
            cfg(command, [path], params_path=str(params), outdir=str(tmp_path))
        )
        assert status == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: NumericalUnderflow: partition function is \S+\n", err)
        assert not any(l and not l.startswith("#") for l in text.splitlines())

    @pytest.mark.parametrize("flags, message", [
        (["--mem-budget-gib", "nan"], "--mem-budget-gib must be finite and > 0"),
        (["--mem-budget-gib", "inf"], "--mem-budget-gib must be finite and > 0"),
        (["--mem-budget-gib", "-1"], "--mem-budget-gib must be finite and > 0"),
        (["--threshold", "nan"], "threshold must be in [0,1]"),
    ], ids=["budget-nan", "budget-inf", "budget-negative", "threshold-nan"])
    def test_bad_numeric_flag_is_a_one_line_error(self, flags, message, fasta, capsys):
        path = fasta(">r\nAAA\n>s\nUUU\n")
        assert main(["targets", path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: BadConfig: {message}\n"
        assert captured.out == ""


class TestTargets:
    def test_line_format(self):
        assert format_target_line(52, 60, 0.83) == "52,60: 83.0%"
        assert format_target_line(5, 5, 0.0999) == "5,5: 10.0%"

    def test_golden_output_shape(self, fasta):
        path = fasta(">r\nAAAA\n>s\nUUUU\n")
        status, text = capture(cfg("targets", [path], threshold=0.05))
        assert status == 0
        pattern = re.compile(r"^\d+,\d+: \d+\.\d%$")
        data_lines = [
            l for l in text.splitlines() if l and not l.startswith("#")
        ]
        assert data_lines, text
        for line in data_lines:
            assert pattern.match(line), line


class TestSample:
    def test_byte_identical_for_fixed_seed(self, fasta):
        path = fasta(">r\nGAAAC\n>s\nGUUUC\n")
        _s1, t1 = capture(cfg("sample", [path], num=3, seed=7))
        _s2, t2 = capture(cfg("sample", [path], num=3, seed=7))
        assert t1 == t2

    def test_seed_changes_output(self, fasta):
        path = fasta(">r\nAAAA\n>s\nUUUU\n")
        _s1, t1 = capture(cfg("sample", [path], num=5, seed=1))
        _s2, t2 = capture(cfg("sample", [path], num=5, seed=2))
        assert t1 != t2

    def test_structure_block_shape(self, fasta):
        path = fasta(">r\nAAA\n>s\nUUU\n")
        _status, text = capture(cfg("sample", [path], num=2, seed=3))
        assert text.count("structure ") == 2
        rows = [l for l in text.splitlines() if l.startswith(("R ", "S ", "E "))]
        assert len(rows) == 2 * 5

    def test_negative_seed_is_a_one_line_error(self, fasta, capsys):
        path = fasta(">r\nAAA\n>s\nUUU\n")
        assert main(["sample", path, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: BadConfig: --seed must be >= 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command, seed", [("pf", "-5"), ("targets", "-1")])
    def test_negative_seed_is_refused_by_every_command(self, command, seed, fasta, capsys):
        # the help of --seed reads "random seed (>= 0)" for every command
        path = fasta(">r\nAAA\n>s\nUUU\n")
        assert main([command, path, "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: BadConfig: --seed must be >= 0\n"
        assert captured.out == ""


class TestFlags:
    def test_pf_refuses_a_sample_count(self, fasta, capsys):
        path = fasta(">r\nAAA\n>s\nUUU\n")
        with pytest.raises(SystemExit) as exc:
            main(["pf", path, "--num", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --num 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command, reads", [
        ("pf", {"--json", "--mem-budget-gib"}),
        ("bpp", {"--outdir", "--mem-budget-gib"}),
        ("hybrids", {"--outdir", "--mem-budget-gib"}),
        ("targets", {"--threshold", "--mem-budget-gib"}),
        ("sample", {"--num", "--mem-budget-gib"}),
        ("dotplot", {"--outdir", "--threshold", "--mem-budget-gib"}),
        ("oracle", {"--max-structures"}),
    ])
    def test_each_command_takes_only_the_flags_it_reads(self, command, reads, capsys):
        parser = _build_parser()
        for flag, value in (("--params", "p.txt"), ("--seed", "3"), ("--no-interaction", None),
                            ("--outdir", "x"), ("--threshold", "0.5"), ("--num", "3"),
                            ("--mem-budget-gib", "1"), ("--json", None),
                            ("--max-structures", "9")):
            argv = [command, "in.fa", flag] + ([value] if value else [])
            if flag in reads or flag in ("--params", "--seed", "--no-interaction"):
                parser.parse_args(argv)
                continue
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, (command, flag)
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pf", "bpp", "hybrids", "targets", "sample", "dotplot",
                                         "oracle"])
    def test_flags_not_given_keep_the_run_config_defaults(self, command):
        assert _config([command, "x.fa"]) == RunConfig(command=command, inputs=["x.fa"])

    @pytest.mark.parametrize("rt", ["0", "-0.6"])
    def test_bad_rt_is_a_one_line_error(self, rt, fasta, tmp_path, capsys):
        params = tmp_path / "p.txt"
        params.write_text(f"rt = {rt}\n")
        path = fasta(">r\nAAA\n>s\nUUU\n")
        assert main(["pf", path, "--params", str(params)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: ParseError: {params}: rt must be finite and > 0, got {float(rt)!r}\n")
        assert captured.out == ""


class TestClosedPipe:
    @pytest.mark.parametrize("command", ["targets", "pf"])
    def test_reader_closing_early_is_no_traceback(self, command, fasta):
        path = fasta(">r\nGGGAAAC\n>s\nGUUUCCC\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "jointfold.cli_reports", command, path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        # the reader goes away before anything is written, as `| head -0` would
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == ""


class TestMatrices:
    def test_bpp_round_trip(self, fasta, tmp_path):
        # S is indexed from its 3' end inside: the files put internal S
        # position h at column (or row) m - h + 1, with 17 digits, so the
        # read-back values are the tables' own
        for k, (r, s) in enumerate((("GAAAC", "GUUUC"), ("GCAAAGCU", "AGGAAACCUA"))):
            path = fasta(f">r\n{r}\n>s\n{s}\n", name=f"in{k}.fa")
            out = tmp_path / f"out{k}"
            status, _ = capture(cfg("bpp", [path], outdir=str(out)))
            assert status == 0
            n, m = len(r), len(s)
            mat = read_matrix_tsv(str(out / "bpp_ext.tsv"))
            assert mat.shape == (n, m)
            assert (mat >= 0).all() and (mat <= 1 + 1e-9).all()
            arcs = read_matrix_tsv(str(out / "bpp_s.tsv"))
            assert arcs.shape == (m, m) and (arcs > 0).any()
            R, S = ingest_fasta([path])
            prob = outside(inside(R, S, default_model()))
            for i in range(1, n + 1):
                for h in range(1, m + 1):
                    assert mat[i - 1, m - h] == prob.bpp_ext[i, h], (r, s, i, h)
            for h in range(1, m + 1):
                for l in range(1, m + 1):
                    assert arcs[m - l, m - h] == prob.bpp_s[h, l], (r, s, h, l)

    def test_hybrid_projection_round_trip(self, fasta, unit_params, tmp_path):
        path = fasta(">r\nAAA\n>s\nUUU\n")
        out = tmp_path / "out"
        status, _ = capture(
            cfg("hybrids", [path], outdir=str(out), params_path=unit_params)
        )
        assert status == 0
        proj = read_matrix_tsv(str(out / "hybrids_r_projection.tsv"))
        # P(target region R[1,1]) = 3/20 under zero energies
        assert proj[0, 0] == pytest.approx(3 / 20)

    def test_dotplot_svg(self, fasta, tmp_path):
        path = fasta(">r\nAAA\n>s\nUUU\n")
        out = tmp_path / "out"
        status, _ = capture(cfg("dotplot", [path], outdir=str(out), threshold=0.01))
        assert status == 0
        svg = (out / "dotplot.svg").read_text()
        assert svg.startswith("<svg") or svg.startswith("<?xml") or "<svg" in svg
        assert "<rect" in svg

    def test_dotplot_threshold_is_a_percentage(self, fasta, tmp_path, capsys):
        path = fasta(">r\nAAA\n>s\nUUU\n")
        out = tmp_path / "out"
        assert main(["dotplot", path, "--outdir", str(out), "--threshold", "5"]) == 0
        assert "<svg" in (out / "dotplot.svg").read_text()
        capsys.readouterr()
        for value in ("101", "nan"):
            assert main(["dotplot", path, "--outdir", str(out), "--threshold", value]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: BadConfig: threshold must be in [0,100]\n", value
            assert captured.out == ""

    def test_dotplot_threshold_help_states_the_scale(self, capsys):
        for command, scaled in (("dotplot", True), ("targets", False)):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert ("probability above this / 100" in text) == scaled, command


class TestOracleCommand:
    def test_report_matches_engine(self, fasta):
        path = fasta(">r\nAAA\n>s\nUUU\n")
        status, text = capture(cfg("oracle", [path]))
        assert status == 0
        assert "count\t20" in text

    def test_exceeded_budget_is_a_one_line_error(self, fasta, capsys):
        path = fasta(">r\nGAAACGU\n>s\nGCGUUUC\n")
        assert main(["oracle", path, "--max-structures", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: LimitExceeded: more than 2 structures (at least 3 found)\n")

    def test_negative_budget_is_a_one_line_error(self, fasta, capsys):
        path = fasta(">r\nGAAACGU\n>s\nGCGUUUC\n")
        assert main(["oracle", path, "--max-structures", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: BadConfig: --max-structures must be >= 0\n"
        assert captured.out == ""
