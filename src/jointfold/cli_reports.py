"""Command-line surface: ingestion, subcommands and serialized reports.

Subcommands: ``pf`` (partition functions), ``bpp`` (base-pair probability
matrices), ``hybrids`` (4D hybrid matrix + R projection), ``targets``
(ranked target sites), ``sample`` (Boltzmann samples in extended
dot-bracket), ``dotplot`` (SVG contact-region plot) and ``oracle`` (the
developer cross-check).

All internal math indexes the target strand S from its 3' end; every report
translates S coordinates back to 5'->3' and says so in its header.  Output
formatting is locale-independent and deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .energy import EnergyModel, ParamError, default_model, parse_params
from .grammar_inside import InsideResult, estimate_memory_bytes, inside
from .oracle import LimitExceeded, OracleLimits, enumerate_interactions
from .outside_prob import hybrid_probabilities, outside, target_sites
from .sampler import sample_batch
from .secfold import NumericalUnderflow
from .seq_model import Strand

__all__ = ["CliError", "RunConfig", "ingest_fasta", "run", "main"]

PARAMS_ENV = "JOINTFOLD_PARAMS"


class CliError(Exception):
    """Machine-parsable CLI failure: one-line ``<Class>: <message>``."""

    def __init__(self, error_class: str, message: str):
        self.error_class = error_class
        super().__init__(message)

    def oneline(self) -> str:
        return f"{self.error_class}: {self}"


@dataclass
class RunConfig:
    command: str
    inputs: list[str]
    params_path: str | None = None
    outdir: str = "."
    threshold: float = 0.1
    num: int = 10
    seed: int = 1
    memory_budget_bytes: int = 2 * 1024**3
    as_json: bool = False
    no_interaction: bool = False
    max_structures: int = 2_000_000


# -- files ---------------------------------------------------------------


def _read_text(path: str, missing: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read is a
    :class:`CliError` (``missing`` words the message of an absent one)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise CliError("MissingFile", f"{missing}: {path}") from None
    except UnicodeDecodeError as exc:
        raise CliError("BadEncoding",
                       f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise CliError("BadFile", f"{path}: {exc.strerror}") from None


def _create(path: str):
    """``path`` opened for writing text; a path that cannot be written is a
    :class:`CliError`."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise CliError("BadOutput", f"{path}: {exc.strerror}") from None


def _outdir(cfg: RunConfig) -> str:
    """The artifact directory, made if it does not exist; the commands that
    write files make it before they compute anything."""
    try:
        os.makedirs(cfg.outdir, exist_ok=True)
    except OSError as exc:
        raise CliError("BadOutdir", f"{cfg.outdir}: {exc.strerror}") from None
    return cfg.outdir


def _parse_fasta_text(text: str, path: str) -> list[tuple[str, str]]:
    records: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            records.append((line[1:].split()[0] if line[1:].split() else "", []))
        else:
            if not records:
                raise CliError("BadFasta", f"{path}: line {lineno}: sequence before header")
            records[-1][1].append(line.replace(" ", ""))
    return [(rid, "".join(chunks)) for rid, chunks in records]


def ingest_fasta(paths: list[str]) -> tuple[Strand, Strand]:
    """Read exactly two records: first is R (kept 5'->3'), second is S
    (reversed internally so position 1 is its 3' end).  T is normalised to U.
    """
    records: list[tuple[str, str]] = []
    for path in paths:
        records.extend(_parse_fasta_text(_read_text(path, "no such file"), path))
    if len(records) != 2:
        raise CliError(
            "WrongRecordCount", f"need exactly 2 records, found {len(records)}"
        )
    cleaned = []
    for rid, seq in records:
        seq = seq.upper().replace("T", "U")
        for pos, base in enumerate(seq, start=1):
            if base not in "ACGU":
                raise CliError(
                    "BadAlphabet",
                    f"record {rid!r}: invalid residue {base!r} at position {pos}",
                )
        if not seq:
            raise CliError("BadFasta", f"record {rid!r}: empty sequence")
        cleaned.append(seq)
    (r_id, _), (s_id, _) = records
    return (Strand.query(cleaned[0], id=r_id or "R"),
            Strand.target_from_5to3(cleaned[1], id=s_id or "S"))


# -- report helpers -------------------------------------------------------


def _s_user(pos: int, m: int) -> int:
    """Translate an internal S position (3'->5' indexing) to 5'->3'."""
    return m - pos + 1


def _header(cfg: RunConfig, model: EnergyModel, extra: str = "") -> str:
    lines = [
        f"# jointfold {__version__} {cfg.command}",
        f"# model={model.fingerprint()} seed={cfg.seed}",
        "# coordinates: R positions 5'->3'; S reported 5'->3'"
        " (internally indexed from its 3' end)",
    ]
    if extra:
        lines.append(f"# {extra}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    # 17 significant digits: floats round-trip exactly and deterministically
    return f"{x:.17g}"


def write_matrix_tsv(path: str, header: str, mat: np.ndarray,
                     row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> None:
    with _create(path) as fh:
        fh.write(header)
        fh.write("#\t" + "\t".join(str(c) for c in range(col_lo, col_hi + 1)) + "\n")
        for r in range(row_lo, row_hi + 1):
            cells = "\t".join(_fmt(mat[r, c]) for c in range(col_lo, col_hi + 1))
            fh.write(f"{r}\t{cells}\n")


def format_target_line(start: int, end: int, probability: float) -> str:
    """One ranked-target line: ``i,j: pp.p%``."""
    return f"{start},{end}: {probability * 100:.1f}%"


def _structure_lines(res: InsideResult, js, idx: int) -> list[str]:
    n, m = res.ctx.n, res.ctx.m
    row_r = ["."] * n
    for (i, j) in sorted(js.interior_r):
        row_r[i - 1] = "("
        row_r[j - 1] = ")"
    for (i, _h) in js.exterior:
        row_r[i - 1] = "["
    # S printed 5'->3': internal position p sits at user column m-p+1
    seq_s_user = res.S.residues[::-1]
    row_s = ["."] * m
    for (h, l) in sorted(js.interior_s):
        row_s[_s_user(l, m) - 1] = "("
        row_s[_s_user(h, m) - 1] = ")"
    for (_i, h) in js.exterior:
        row_s[_s_user(h, m) - 1] = "]"
    ext = " ".join(f"{i}:{_s_user(h, m)}" for i, h in js.exterior) or "-"
    return [
        f"structure {idx}",
        f"R {res.R.residues}",
        f"R {''.join(row_r)}",
        f"S {seq_s_user}",
        f"S {''.join(row_s)}",
        f"E {ext}",
    ]


# -- subcommand implementations -------------------------------------------


def _load_model(cfg: RunConfig) -> EnergyModel:
    path = cfg.params_path or os.environ.get(PARAMS_ENV)
    if path:
        text = _read_text(path, "no such params file")
        try:
            model = parse_params(text)
        except ParamError as exc:
            raise CliError("ParseError", f"{path}: {exc}") from None
    else:
        model = default_model()
    if cfg.no_interaction:
        model = model.without_interaction()
    return model


def _run_inside(cfg: RunConfig, R: Strand, S: Strand, model: EnergyModel,
                stream, include_outside: bool) -> InsideResult:
    """Fill the inside tables, first refusing a run whose tables (with the
    outside ones if the command runs the outside pass) exceed the budget."""
    est = estimate_memory_bytes(len(R), len(S), include_outside=include_outside)
    stream.write(f"# estimated table bytes: {est}\n")
    if est > cfg.memory_budget_bytes:
        raise CliError(
            "CapacityExceeded",
            f"tables need {est} bytes, budget {cfg.memory_budget_bytes}",
        )
    # an overflowing ensemble is refused by ``inside`` itself, in one line
    with np.errstate(over="ignore", invalid="ignore"):
        return inside(R, S, model, memory_budget_bytes=cfg.memory_budget_bytes)


def _cmd_pf(cfg: RunConfig, stream) -> None:
    R, S = ingest_fasta(cfg.inputs)
    model = _load_model(cfg)
    stream.write(_header(cfg, model))
    res = _run_inside(cfg, R, S, model, stream, include_outside=False)
    if cfg.as_json:
        import json

        stream.write(
            json.dumps(
                {
                    "q_total": res.q_total,
                    "q_r": res.q_r,
                    "q_s": res.q_s,
                    "q_no_interaction": res.q_no_interaction,
                    "model": model.fingerprint(),
                },
                sort_keys=True,
            )
            + "\n"
        )
    else:
        stream.write(f"Q_I\t{_fmt(res.q_total)}\n")
        stream.write(f"Q_R\t{_fmt(res.q_r)}\n")
        stream.write(f"Q_S\t{_fmt(res.q_s)}\n")
    stream.write(f"# actual table bytes: {res.store.peak_bytes}\n")


def _prob_pipeline(cfg: RunConfig, stream):
    R, S = ingest_fasta(cfg.inputs)
    model = _load_model(cfg)
    stream.write(_header(cfg, model))
    res = _run_inside(cfg, R, S, model, stream, include_outside=True)
    prob = outside(res)
    return R, S, model, res, prob


def _cmd_bpp(cfg: RunConfig, stream) -> None:
    outdir = _outdir(cfg)
    R, S, model, res, prob = _prob_pipeline(cfg, stream)
    n, m = len(R), len(S)
    hdr = _header(cfg, model, "rows/cols are 1-based sequence positions")
    write_matrix_tsv(os.path.join(outdir, "bpp_r.tsv"), hdr, prob.bpp_r, 1, n, 1, n)
    # S in user coordinates, position h at m-h+1: arc (h,l) -> (m-l+1, m-h+1)
    bpp_s_user = prob.bpp_s[::-1, ::-1].T
    write_matrix_tsv(os.path.join(outdir, "bpp_s.tsv"), hdr, bpp_s_user, 1, m, 1, m)
    write_matrix_tsv(os.path.join(outdir, "bpp_ext.tsv"), hdr, prob.bpp_ext[:, ::-1], 1, n, 1, m)
    stream.write("wrote bpp_r.tsv bpp_s.tsv bpp_ext.tsv\n")


def _cmd_hybrids(cfg: RunConfig, stream) -> None:
    outdir = _outdir(cfg)
    R, S, model, res, prob = _prob_pipeline(cfg, stream)
    n, m = len(R), len(S)
    hyb = hybrid_probabilities(res, prob)
    path = os.path.join(outdir, "hybrids.tsv")
    with _create(path) as fh:
        fh.write(_header(cfg, model, "columns: r_start r_end s_start s_end p"))
        fh.write("# s coordinates 5'->3'\n")
        for (i, j, h, l, w) in hyb.entries(0.0):
            fh.write(
                f"{i}\t{j}\t{_s_user(l, m)}\t{_s_user(h, m)}\t{_fmt(w)}\n"
            )
    write_matrix_tsv(
        os.path.join(outdir, "hybrids_r_projection.tsv"),
        _header(cfg, model, "P(target region R[i,j]) summed over partner footprints"),
        hyb.region_mass()[0], 1, n, 1, n,
    )
    stream.write("wrote hybrids.tsv hybrids_r_projection.tsv\n")


def _cmd_targets(cfg: RunConfig, stream) -> None:
    R, S, model, res, prob = _prob_pipeline(cfg, stream)
    m = len(S)
    hyb = hybrid_probabilities(res, prob)
    table = target_sites(hyb, threshold=cfg.threshold)
    stream.write(f"# target sites with probability > {_fmt(cfg.threshold)}\n")
    stream.write("# R regions\n")
    for row in table.rows:
        if row.strand == "R":
            stream.write(format_target_line(row.start, row.end, row.probability) + "\n")
    stream.write("# S regions (5'->3')\n")
    for row in table.rows:
        if row.strand == "S":
            stream.write(
                format_target_line(
                    _s_user(row.end, m), _s_user(row.start, m), row.probability
                )
                + "\n"
            )
    if table.p_opt is not None:
        r = table.p_opt
        if r.strand == "R":
            span = f"R[{r.start},{r.end}]"
        else:
            span = f"S[{_s_user(r.end, m)},{_s_user(r.start, m)}]"
        stream.write(f"# optimal region {span} p={_fmt(r.probability)}\n")


def _cmd_sample(cfg: RunConfig, stream) -> None:
    R, S = ingest_fasta(cfg.inputs)
    model = _load_model(cfg)
    stream.write(_header(cfg, model))
    res = _run_inside(cfg, R, S, model, stream, include_outside=False)
    batch = sample_batch(res, cfg.num, cfg.seed)
    counts: dict = {}
    for k, js in enumerate(batch.structures, start=1):
        for line in _structure_lines(res, js, k):
            stream.write(line + "\n")
        counts[js.key()] = counts.get(js.key(), 0) + 1
    stream.write("# frequency summary (count structure-key)\n")
    for key, cnt in sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0]))):
        stream.write(f"# {cnt}\t{key}\n")


def _cmd_dotplot(cfg: RunConfig, stream) -> None:
    path = os.path.join(_outdir(cfg), "dotplot.svg")
    R, S, model, res, prob = _prob_pipeline(cfg, stream)
    n, m = len(R), len(S)
    hyb = hybrid_probabilities(res, prob)
    cell = 12
    width = (n + 3) * cell
    height = (m + 3) * cell
    buf = io.StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
    )
    buf.write(
        f"<!-- jointfold {__version__} dotplot; model={model.fingerprint()};"
        " squares: contact regions, area proportional to probability;"
        " x: R 5'->3', y: S 5'->3' (S internally indexed from its 3' end) -->\n"
    )
    buf.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    for (i, j, h, l, w) in hyb.entries(cfg.threshold / 100.0):
        cx = (1 + (i + j) / 2.0) * cell
        cy = (1 + (_s_user(h, m) + _s_user(l, m)) / 2.0) * cell
        side = max(1.0, np.sqrt(w) * cell * 2)
        buf.write(
            f'<rect x="{cx - side / 2:.2f}" y="{cy - side / 2:.2f}" '
            f'width="{side:.2f}" height="{side:.2f}" fill="black" '
            f'fill-opacity="0.8"><title>R[{i},{j}] x S[{_s_user(l, m)},'
            f"{_s_user(h, m)}] p={_fmt(w)}</title></rect>\n"
        )
    buf.write("</svg>\n")
    with _create(path) as fh:
        fh.write(buf.getvalue())
    stream.write("wrote dotplot.svg\n")


def _cmd_oracle(cfg: RunConfig, stream) -> None:
    R, S = ingest_fasta(cfg.inputs)
    model = _load_model(cfg)
    stream.write(_header(cfg, model))
    report = enumerate_interactions(
        R, S, model, OracleLimits(max_structures=cfg.max_structures),
        keep_structures=False,
    )
    stream.write(f"count\t{report.count}\n")
    stream.write(f"weighted_sum\t{_fmt(report.weighted_sum)}\n")
    for name, table in (
        ("bpp_ext", report.bpp_ext),
        ("p_hy", report.hybrid_mass),
        ("p_tar_r", report.target_mass_r),
    ):
        for key, w in sorted(table.items()):
            stream.write(
                f"{name}\t{','.join(str(k) for k in key)}\t{_fmt(w / report.weighted_sum)}\n"
            )


# name -> (implementation, help, the flags it reads beyond --params, --seed
# and --no-interaction, which every command takes: the header prints the seed)
_COMMANDS = {
    "pf": (_cmd_pf, "total and per-strand partition functions",
           ("--mem-budget-gib", "--json")),
    "bpp": (_cmd_bpp, "base-pair probability matrices (TSV)", ("--mem-budget-gib", "--outdir")),
    "hybrids": (_cmd_hybrids, "hybrid (contact-region) probability tables",
                ("--mem-budget-gib", "--outdir")),
    "targets": (_cmd_targets, "ranked target sites", ("--mem-budget-gib", "--threshold")),
    "sample": (_cmd_sample, "Boltzmann-distributed structure samples",
               ("--mem-budget-gib", "--num")),
    "dotplot": (_cmd_dotplot, "SVG contact-region dot plot",
                ("--mem-budget-gib", "--outdir", "--threshold")),
    "oracle": (_cmd_oracle, "brute-force cross-check (small inputs only)", ("--max-structures",)),
}


def run(cfg: RunConfig, stream=None) -> int:
    """Execute one subcommand; returns the process exit status."""
    stream = stream if stream is not None else sys.stdout
    try:
        _COMMANDS[cfg.command][0](cfg, stream)
    except CliError as exc:
        print(f"error: {exc.oneline()}", file=sys.stderr)
        return 1
    except NumericalUnderflow as exc:
        print(f"error: NumericalUnderflow: {exc}", file=sys.stderr)
        return 1
    except LimitExceeded as exc:
        print(f"error: LimitExceeded: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jointfold",
        description="Partition functions, pairing probabilities and Boltzmann"
        " samples for RNA-RNA interaction structures.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    # no defaults here: a flag that is not given keeps its RunConfig default
    flags = {
        "--params": dict(dest="params_path",
                         help=f"energy parameter file (default ${PARAMS_ENV})"),
        "--seed": dict(type=int, help="random seed (>= 0)"),
        "--no-interaction": dict(action="store_true",
                                 help="set every exterior-arc weight to zero"),
        "--outdir": dict(help="artifact directory"),
        "--threshold": dict(type=float, help="report regions with probability above this"),
        "--num": dict(type=int, help="number of samples"),
        "--mem-budget-gib": dict(type=float, help="memory budget for DP tables"),
        "--json": dict(dest="as_json", action="store_true",
                       help="machine-readable scalar output"),
        "--max-structures": dict(type=int, help="oracle enumeration budget"),
    }
    for name, (_run, help_text, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("inputs", nargs="+", help="FASTA file(s) with the two records")
        for flag in ("--params", "--seed", "--no-interaction") + own:
            spec = flags[flag]
            if name == "dotplot" and flag == "--threshold":
                spec = {**spec, "help": "draw contact regions with probability above this / 100"}
            p.add_argument(flag, **spec)
    return ap


def _config(argv: list[str] | None) -> RunConfig:
    """The run configuration of a command line.

    Raises:
        CliError: a number is out of its range (``BadConfig``).
    """
    args = vars(_build_parser().parse_args(argv))
    if "mem_budget_gib" in args:
        gib = args.pop("mem_budget_gib")
        if not (math.isfinite(gib) and gib > 0.0):
            raise CliError("BadConfig", "--mem-budget-gib must be finite and > 0")
        args["memory_budget_bytes"] = int(gib * 1024**3)
    cfg = RunConfig(**args)
    top = 100 if cfg.command == "dotplot" else 1  # dotplot reads a percentage
    if not 0.0 <= cfg.threshold <= top:
        raise CliError("BadConfig", f"threshold must be in [0,{top}]")
    for flag, value, least in (("--num", cfg.num, 1), ("--seed", cfg.seed, 0),
                               ("--max-structures", cfg.max_structures, 0)):
        if value < least:
            raise CliError("BadConfig", f"{flag} must be >= {least}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _config(argv)
    except CliError as exc:
        print(f"error: {exc.oneline()}", file=sys.stderr)
        return 1
    try:
        status = run(cfg)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``jointfold targets in.fa | head``):
        # stdout goes to the null device, so that the flush at exit cannot
        # fail again (the recipe of the Python docs on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
