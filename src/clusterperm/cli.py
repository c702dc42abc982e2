"""Command-line front end: ingestion, dispatch, and report serialization.

Reports are JSON (or a plain-text rendering of the same payload) with a
stable schema and no timestamps, so a repeated invocation with the same
inputs and seed is byte-identical.  The JSON is strict: an open-ended
interval bound is ``null`` (``open_ended`` names the side), and any other
non-finite number is an internal error.  Failures surface as a machine-readable
``{"error": {"code", "message"}}`` object: a package error or an unwritable
``--out`` exits with status 2, any other exception with code ``InternalError``,
status 3 and its traceback on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
import warnings
from dataclasses import asdict, dataclass, field

from . import __version__
from .dyadic import GridSpec, dyadic_ci, dyadic_test
from .exceptions import ClusterPermError, ParseError, ResolutionError
from .io import ingest_csv, ingest_mask_csv
from .missing import MAX_EXACT_CAP, biclique_decompose, blockwise_test, check_exact_cap
from .model import DyadArray
from .multiway import (
    MultiIndexDataset,
    irregular_test,
    layout_test,
    panel_test,
    suggest_cell_threshold,
    threeway_test,
)
from .simulate import (
    run_irregular_size_panel,
    run_null_size_panel,
    run_power_panel,
)

SCHEMA_VERSION = 1

_PANELS = ("table1", "table4", "table3")

# K for the subcommands without a divisor-based default (blockwise, layout
# and irregular).
DEFAULT_NUM_PERMS = 19


@dataclass
class RunConfig:
    """Everything one invocation needs; serializes losslessly into the report."""

    subcommand: str
    data_path: str | None = None
    mask_path: str | None = None
    treatment: list[str] | None = None
    covariates: list[str] | None = None
    num_perms: int | None = None
    seed: int = 0
    alpha: float = 0.05
    threads: int = 1
    out: str | None = None
    format: str = "json"
    rank_tol: float | None = None
    beta0: float | None = None
    grid_center: float | None = None
    grid_half_width: float | None = None
    grid_points: int = 201
    max_expansions: int = 6
    biclique_solver: str = "auto"
    min_block: int = 2
    cap: int = 16
    restarts: int = 16
    l0: str = "auto"
    repeats: int = 100
    panel: str | None = None
    n: int | None = None
    reps: int | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload.pop("notes")
        payload.pop("out")
        return payload

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _split_names(raw: str) -> list[str] | None:
    return [part.strip() for part in raw.split(",") if part.strip()] or None


def _add_global_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    parser.add_argument("--num-perms", type=int, default=None, metavar="K",
                        help="group size minus one (default: auto)")
    parser.add_argument("--alpha", type=float, default=0.05, help="level in (0, 1) (default 0.05)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for simulation panels (default 1)")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")
    parser.add_argument("--rank-tol", type=float, default=None,
                        help="relative singular-value cutoff in (0, 1) on [X | X_pi]; builds "
                             "every member through the SVD projector")


def _add_data_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--data", dest="data_path", metavar="DATA", required=True,
                        help="input CSV path")
    parser.add_argument("--treatment", type=_split_names, default=None,
                        help="comma-separated treatment columns (default: d, d1, ...)")
    parser.add_argument("--covariates", type=_split_names, default=None,
                        help="comma-separated covariate columns (default: x, x1, ...)")


def _add_biclique_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--biclique-solver", choices=("auto", "exact", "greedy"),
                        default="auto", help="block solver (default auto)")
    parser.add_argument("--min-block", type=int, default=2,
                        help="smallest usable block side (default 2)")
    parser.add_argument("--cap", type=int, default=16,
                        help=f"exact-solver dimension cap, at most {MAX_EXACT_CAP} "
                             "(default 16)")
    parser.add_argument("--restarts", type=int, default=16,
                        help="greedy-solver restarts (default 16)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterperm",
        description="Finite-sample valid permutation tests for regressions "
                    "with multi-way clustered errors.",
    )
    parser.add_argument("--version", action="version", version=f"clusterperm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("test", help="two-way permutation test on a complete dyadic grid")
    _add_data_flags(p)
    _add_global_flags(p)
    p.add_argument("--beta0", type=float, default=None,
                   help="point null for the scalar effect (default: zero effect)")

    p = sub.add_parser("ci", help="confidence interval by test inversion (scalar treatment)")
    _add_data_flags(p)
    _add_global_flags(p)
    p.add_argument("--grid-center", type=float, default=None,
                   help="grid center (default: least-squares estimate)")
    p.add_argument("--grid-half-width", type=float, default=None,
                   help="initial half-width (default: 4 robust scale units)")
    p.add_argument("--grid-points", type=int, default=201,
                   help="points per sweep (default 201)")
    p.add_argument("--max-expansions", type=int, default=6,
                   help="half-width doublings before a side is open-ended (default 6)")

    p = sub.add_parser("test-missing",
                       help="blockwise test on an incomplete grid via biclique blocks")
    _add_data_flags(p)
    _add_global_flags(p)
    _add_biclique_flags(p)
    p.add_argument("--mask", dest="mask_path", metavar="MASK", default=None,
                   help="observation mask CSV of (i, j, m) triples "
                        "(default: cells present in --data)")

    for name, blurb in (
        ("test-threeway", "permute rows, columns, and the third index of a full box"),
        ("test-panel", "permute rows and columns of a panel; periods stay fixed"),
        ("test-layout", "permute records within cells only (fixed cell effects)"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_data_flags(p)
        _add_global_flags(p)

    p = sub.add_parser("test-irregular",
                       help="threshold cells at L0, decompose, subsample, test")
    _add_data_flags(p)
    _add_global_flags(p)
    _add_biclique_flags(p)
    p.add_argument("--l0", default="auto",
                   help="per-cell observation threshold, integer or 'auto' (default auto)")
    p.add_argument("--repeats", type=int, default=100,
                   help="independent subsampling repeats (default 100)")

    p = sub.add_parser("simulate", help="run a Monte Carlo panel")
    _add_global_flags(p)
    p.add_argument("--panel", choices=_PANELS, required=True,
                   help="table1: null rejection rates on complete grids; "
                        "table4: power curve over effect sizes; "
                        "table3: null rates of the irregular pipeline")
    p.add_argument("--n", type=int, default=None, help="grid extent (panel default if omitted)")
    p.add_argument("--reps", type=int, default=None,
                   help="replicates (panel default if omitted)")
    p.add_argument("--l0", default="4", help="cell threshold for the irregular panel")
    p.add_argument("--repeats", type=int, default=3,
                   help="subsampling repeats for the irregular panel")

    p = sub.add_parser("biclique", help="decompose an observation mask into blocks")
    _add_global_flags(p)
    _add_biclique_flags(p)
    p.add_argument("--data", dest="data_path", metavar="DATA", default=None,
                   help="input CSV; its present cells form the mask")
    p.add_argument("--mask", dest="mask_path", metavar="MASK", default=None,
                   help="mask CSV of (i, j, m) triples")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{key: value for key, value in vars(args).items()
                        if key in RunConfig.__dataclass_fields__})


def _load_dyadic(config: RunConfig) -> DyadArray:
    data = ingest_csv(config.data_path, config.treatment, config.covariates)
    if not isinstance(data, DyadArray):
        raise ParseError("this subcommand expects dyadic data without an 'l' column")
    return data


def _load_multi(config: RunConfig) -> MultiIndexDataset:
    data = ingest_csv(config.data_path, config.treatment, config.covariates)
    if not isinstance(data, MultiIndexDataset):
        raise ParseError("this subcommand expects records with an 'l' column")
    return data


def _parse_l0(raw: str, auto_ok: bool) -> int | None:
    """``--l0`` as an integer >= 1, or None for 'auto' where ``auto_ok``."""
    if auto_ok and raw == "auto":
        return None
    try:
        l0 = int(raw)
    except ValueError:
        l0 = 0
    if l0 < 1:
        expected = "'auto' or an integer >= 1" if auto_ok else "an integer >= 1"
        raise ParseError(f"--l0 must be {expected}, got {raw!r}")
    return l0


def _resolve_l0(config: RunConfig, data: MultiIndexDataset) -> int:
    l0 = _parse_l0(config.l0, auto_ok=True)
    return suggest_cell_threshold(data.cell_sizes()) if l0 is None else l0


def _cover(config: RunConfig, mask):
    return biclique_decompose(mask, solver=config.biclique_solver, min_block=config.min_block,
                              cap=config.cap, restarts=config.restarts, seed=config.seed)


def _execute(config: RunConfig) -> dict:
    # Every subcommand takes a level in (0, 1) and a rank cutoff in (0, 1):
    # at a cutoff of 1 or more no covariate direction is projected out.
    if not 0.0 < config.alpha < 1.0:
        raise ResolutionError(f"--alpha must lie in (0, 1), got {config.alpha}")
    if config.rank_tol is not None and not 0.0 < config.rank_tol < 1.0:
        raise ParseError(f"--rank-tol must be a finite number in (0, 1), got {config.rank_tol}")
    if config.threads < 1:
        raise ParseError(f"--threads must be an integer >= 1, got {config.threads}")
    cmd = config.subcommand
    if cmd in ("test-missing", "test-irregular", "biclique"):
        check_exact_cap(config.cap)
    num_perms = config.num_perms
    if num_perms is None and cmd in ("test-missing", "test-layout", "test-irregular"):
        num_perms = DEFAULT_NUM_PERMS
    if cmd == "test":
        array = _load_dyadic(config)
        report = dyadic_test(array, num_perms=num_perms, seed=config.seed,
                             beta0=config.beta0, tol=config.rank_tol)
        return report.to_dict()
    if cmd == "ci":
        array = _load_dyadic(config)
        grid = GridSpec(center=config.grid_center, half_width=config.grid_half_width,
                        points=config.grid_points, max_expansions=config.max_expansions)
        ci = dyadic_ci(array, alpha=config.alpha, num_perms=num_perms,
                       seed=config.seed, grid=grid, tol=config.rank_tol)
        return ci.to_dict()
    if cmd == "test-missing":
        array = _load_dyadic(config)
        mask = ingest_mask_csv(config.mask_path) if config.mask_path else array.observed
        cover = _cover(config, mask)
        report = blockwise_test(array, mask, cover, num_perms,
                                seed=config.seed, tol=config.rank_tol)
        payload = report.to_dict()
        payload["cover"] = cover.to_dict()
        return payload
    if cmd in ("test-threeway", "test-panel", "test-layout"):
        test = {"test-threeway": threeway_test, "test-panel": panel_test,
                "test-layout": layout_test}[cmd]
        return test(_load_multi(config), num_perms=num_perms, seed=config.seed,
                    tol=config.rank_tol).to_dict()
    if cmd == "test-irregular":
        data = _load_multi(config)
        l0 = _resolve_l0(config, data)
        result = irregular_test(
            data, l0=l0, num_perms=num_perms, repeats=config.repeats,
            seed=config.seed, solver=config.biclique_solver,
            min_block=config.min_block, cap=config.cap,
            restarts=config.restarts, tol=config.rank_tol,
        )
        return result.to_dict()
    if cmd == "simulate":
        return _run_panel(config)
    if cmd == "biclique":
        if config.mask_path:
            mask = ingest_mask_csv(config.mask_path)
        elif config.data_path:
            data = ingest_csv(config.data_path, config.treatment, config.covariates)
            mask = data.observed if isinstance(data, DyadArray) else data.cell_sizes() > 0
        else:
            raise ParseError("biclique needs --mask or --data")
        cover = _cover(config, mask)
        payload = cover.to_dict()
        payload["sides"] = [[len(rows), len(cols)] for rows, cols in cover.blocks]
        return payload
    raise ParseError(f"unknown subcommand {cmd!r}")


def _run_panel(config: RunConfig) -> dict:
    """Run one panel; a size the user left unset takes the panel's default."""
    kwargs = {"alpha": config.alpha, "seed": config.seed, "threads": config.threads}
    for key in ("reps", "num_perms"):
        if getattr(config, key) is not None:
            kwargs[key] = getattr(config, key)
    if config.panel == "table3":
        if config.n is not None:
            kwargs.update(n_rows=config.n, n_cols=config.n)
        return run_irregular_size_panel(l0=_parse_l0(config.l0, auto_ok=False),
                                        repeats=config.repeats, **kwargs)
    if config.n is not None:
        kwargs["n"] = config.n
    if config.panel == "table1":
        return run_null_size_panel(**kwargs)
    if config.panel == "table4":
        return run_power_panel(**kwargs)
    raise ParseError(f"unknown panel {config.panel!r}")


def build_report(config: RunConfig, results: dict, diagnostics: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "clusterperm", "version": __version__},
        "command": config.subcommand,
        "config": config.to_dict(),
        "config_digest": config.digest(),
        "results": results,
        "diagnostics": diagnostics,
    }


def _render_text(report: dict) -> str:
    lines = [
        f"clusterperm {report['tool']['version']}  command={report['command']}  "
        f"config={report['config_digest']}"
    ]
    results = report["results"]
    if "rows" in results:
        lines.append(f"panel: {results.get('panel', '')}")
        header = f"{'label':<44} {'rate':>8} {'mc_se':>8} {'rejections':>11}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in results["rows"]:
            lines.append(
                f"{row['label']:<44} {row['rate']:>8.4f} {row['mc_se']:>8.4f} "
                f"{row['rejections']:>6}/{row['reps']}"
            )
    else:
        for key, value in results.items():
            if isinstance(value, list) and len(value) > 12:
                value = f"[{len(value)} values]"
            lines.append(f"{key}: {value}")
    for note in report["diagnostics"].get("warnings", []):
        lines.append(f"warning: {note}")
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> int:
    """Execute one configured invocation and write its report."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = _execute(config)
    diagnostics = {"warnings": [str(w.message) for w in caught]}
    report = build_report(config, results, diagnostics)
    if config.format == "json":
        # Strict JSON: a NaN or infinite number fails the run (exit 3).
        payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        payload = _render_text(report)
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ParseError(f"cannot write --out {config.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(payload)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        return run(config)
    except ClusterPermError as exc:
        return _report_error(exc.code, str(exc), 2)
    except Exception as exc:  # fail closed: a bug yields an error object, never a report
        traceback.print_exc(file=sys.stderr)
        return _report_error("InternalError", f"{type(exc).__name__}: {exc}", 3)


def _report_error(code: str, message: str, status: int) -> int:
    error = {"error": {"code": code, "message": message}}
    sys.stdout.write(json.dumps(error, indent=2, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
