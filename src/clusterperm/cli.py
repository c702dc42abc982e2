"""Command-line front end: ingestion, dispatch, and report serialization.

Reports are JSON (or a plain-text rendering of the same payload) with a
stable schema and no timestamps, so a repeated invocation with the same
inputs and seed is byte-identical.  The JSON is strict: an open-ended
interval bound is ``null`` (``open_ended`` names the side), and any other
non-finite number is an internal error.  Failures surface as a machine-readable
``{"error": {"code", "message"}}`` object: a package error, a usage error
(``ParseError``) or an unwritable ``--out`` exits with status 2, any other
exception with code ``InternalError``, status 3 and its traceback on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
import warnings

from . import __version__
from .dyadic import GridSpec, dyadic_ci, dyadic_test
from .exceptions import ClusterPermError, ParseError, ResolutionError
from .io import ingest_cells, ingest_csv, ingest_mask_csv
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

# Options that say where and how a report is written, or how many processes
# make it; no result depends on them, so they stay out of its ``config``.
_NOT_CONFIG = ("out", "format", "threads")


class _Parser(argparse.ArgumentParser):
    """A usage error is a :class:`ParseError`: exit 2 with the error object."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


def _split_names(raw: str) -> list[str] | None:
    return [part.strip() for part in raw.split(",") if part.strip()] or None


def _in_unit_interval(flag: str, error: type[ClusterPermError]):
    """Parse a level or cutoff, raising ``error`` unless it lies in (0, 1)."""
    def number(raw: str) -> float:
        value = float(raw)
        if not 0.0 < value < 1.0:
            raise error(f"{flag} must lie in (0, 1), got {value}")
        return value
    return number


def _threads(raw: str) -> int:
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ParseError(f"--threads must be an integer >= 1, got {raw!r}")
    return threads


def _add_num_perms(parser: argparse.ArgumentParser, default: int | None):
    parser.add_argument("--num-perms", type=int, default=default, metavar="K",
                        help="group size minus one "
                             f"(default {'auto' if default is None else default})")


def _add_alpha(parser: argparse.ArgumentParser):
    parser.add_argument("--alpha", type=_in_unit_interval("--alpha", ResolutionError),
                        default=0.05, help="level in (0, 1) (default 0.05)")


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
    """The one owner of the options: each subcommand takes only what it reads."""
    parser = _Parser(
        prog="clusterperm",
        description="Finite-sample valid permutation tests for regressions "
                    "with multi-way clustered errors.",
    )
    parser.add_argument("--version", action="version", version=f"clusterperm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, blurb: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="report format (default json)")
        return p

    def test_command(name: str, blurb: str, num_perms: int | None = None):
        p = command(name, blurb)
        p.add_argument("--data", dest="data_path", metavar="DATA", required=True,
                       help="input CSV path")
        p.add_argument("--treatment", type=_split_names, default=None,
                       help="comma-separated treatment columns (default: d, d1, ...)")
        p.add_argument("--covariates", type=_split_names, default=None,
                       help="comma-separated covariate columns (default: x, x1, ...)")
        _add_num_perms(p, num_perms)
        p.add_argument("--rank-tol", type=_in_unit_interval("--rank-tol", ParseError),
                       default=None,
                       help="relative singular-value cutoff in (0, 1) on [X | X_pi]; builds "
                            "every member through the SVD projector")
        return p

    p = test_command("test", "two-way permutation test on a complete dyadic grid")
    p.add_argument("--beta0", type=float, default=None,
                   help="point null for the scalar effect (default: zero effect)")

    p = test_command("ci", "confidence interval by test inversion (scalar treatment)")
    _add_alpha(p)
    p.add_argument("--grid-center", type=float, default=None,
                   help="grid center (default: least-squares estimate)")
    p.add_argument("--grid-half-width", type=float, default=None,
                   help="initial half-width (default: 4 robust scale units)")
    p.add_argument("--grid-points", type=int, default=201,
                   help="points per sweep (default 201)")
    p.add_argument("--max-expansions", type=int, default=6,
                   help="half-width doublings before a side is open-ended (default 6)")

    p = test_command("test-missing",
                     "blockwise test on an incomplete grid via biclique blocks", 19)
    _add_biclique_flags(p)
    p.add_argument("--mask", dest="mask_path", metavar="MASK", default=None,
                   help="observation mask CSV of (i, j, m) triples "
                        "(default: cells present in --data)")

    test_command("test-threeway", "permute rows, columns, and the third index of a full box")
    test_command("test-panel", "permute rows and columns of a panel; periods stay fixed")
    test_command("test-layout", "permute records within cells only (fixed cell effects)", 19)

    p = test_command("test-irregular", "threshold cells at L0, decompose, subsample, test", 19)
    _add_biclique_flags(p)
    p.add_argument("--l0", default="auto",
                   help="per-cell observation threshold, integer or 'auto' (default auto)")
    p.add_argument("--repeats", type=int, default=100,
                   help="independent subsampling repeats (default 100)")

    p = command("simulate", "run a Monte Carlo panel")
    _add_num_perms(p, None)
    _add_alpha(p)
    p.add_argument("--threads", type=_threads, default=1,
                   help="worker processes; no result depends on it (default 1)")
    p.add_argument("--panel", choices=_PANELS, required=True,
                   help="table1: null rejection rates on complete grids; "
                        "table4: power curve over effect sizes; "
                        "table3: null rates of the irregular pipeline")
    p.add_argument("--n", type=int, default=None, help="grid extent (panel default if omitted)")
    p.add_argument("--reps", type=int, default=None,
                   help="replicates (panel default if omitted)")
    p.add_argument("--l0", default=None, help="table3's cell threshold (default 4)")
    p.add_argument("--repeats", type=int, default=None,
                   help="table3's subsampling repeats (default 3)")

    p = command("biclique", "decompose an observation mask into blocks")
    _add_biclique_flags(p)
    p.add_argument("--data", dest="data_path", metavar="DATA", default=None,
                   help="input CSV; its present cells form the mask")
    p.add_argument("--mask", dest="mask_path", metavar="MASK", default=None,
                   help="mask CSV of (i, j, m) triples")

    return parser


def _load_dyadic(args: argparse.Namespace) -> DyadArray:
    data = ingest_csv(args.data_path, args.treatment, args.covariates)
    if not isinstance(data, DyadArray):
        raise ParseError("this subcommand expects dyadic data without an 'l' column")
    return data


def _load_multi(args: argparse.Namespace) -> MultiIndexDataset:
    data = ingest_csv(args.data_path, args.treatment, args.covariates)
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


def _cover(args: argparse.Namespace, mask):
    return biclique_decompose(mask, solver=args.biclique_solver, min_block=args.min_block,
                              cap=args.cap, restarts=args.restarts, seed=args.seed)


def _execute(args: argparse.Namespace) -> dict:
    cmd = args.subcommand
    if cmd == "simulate":
        return _run_panel(args)
    if "cap" in args:
        check_exact_cap(args.cap)
    if cmd == "test":
        report = dyadic_test(_load_dyadic(args), num_perms=args.num_perms, seed=args.seed,
                             beta0=args.beta0, tol=args.rank_tol)
        return report.to_dict()
    if cmd == "ci":
        grid = GridSpec(center=args.grid_center, half_width=args.grid_half_width,
                        points=args.grid_points, max_expansions=args.max_expansions)
        ci = dyadic_ci(_load_dyadic(args), alpha=args.alpha, num_perms=args.num_perms,
                       seed=args.seed, grid=grid, tol=args.rank_tol)
        return ci.to_dict()
    if cmd == "test-missing":
        array = _load_dyadic(args)
        mask = ingest_mask_csv(args.mask_path) if args.mask_path else array.observed
        cover = _cover(args, mask)
        report = blockwise_test(array, mask, cover, args.num_perms,
                                seed=args.seed, tol=args.rank_tol)
        payload = report.to_dict()
        payload["cover"] = cover.to_dict()
        return payload
    if cmd in ("test-threeway", "test-panel", "test-layout"):
        test = {"test-threeway": threeway_test, "test-panel": panel_test,
                "test-layout": layout_test}[cmd]
        return test(_load_multi(args), num_perms=args.num_perms, seed=args.seed,
                    tol=args.rank_tol).to_dict()
    if cmd == "test-irregular":
        data = _load_multi(args)
        l0 = _parse_l0(args.l0, auto_ok=True)
        result = irregular_test(
            data, l0=suggest_cell_threshold(data.cell_sizes()) if l0 is None else l0,
            num_perms=args.num_perms, repeats=args.repeats, seed=args.seed,
            solver=args.biclique_solver, min_block=args.min_block, cap=args.cap,
            restarts=args.restarts, tol=args.rank_tol,
        )
        return result.to_dict()
    # biclique
    if args.mask_path:
        mask = ingest_mask_csv(args.mask_path)
    elif args.data_path:
        mask = ingest_cells(args.data_path)
    else:
        raise ParseError("biclique needs --mask or --data")
    cover = _cover(args, mask)
    payload = cover.to_dict()
    payload["sides"] = [[len(rows), len(cols)] for rows, cols in cover.blocks]
    return payload


def _run_panel(args: argparse.Namespace) -> dict:
    """Run one panel; a size the user left unset takes the panel's default."""
    kwargs = {"alpha": args.alpha, "seed": args.seed, "threads": args.threads}
    for key in ("reps", "num_perms"):
        if getattr(args, key) is not None:
            kwargs[key] = getattr(args, key)
    if args.panel == "table3":
        # Filled in here, so the report's config shows the values used.
        args.l0 = "4" if args.l0 is None else args.l0
        args.repeats = 3 if args.repeats is None else args.repeats
        if args.n is not None:
            kwargs.update(n_rows=args.n, n_cols=args.n)
        return run_irregular_size_panel(l0=_parse_l0(args.l0, auto_ok=False),
                                        repeats=args.repeats, **kwargs)
    for key in ("l0", "repeats"):
        if getattr(args, key) is not None:
            raise ParseError(f"--{key} applies to --panel table3 only, not {args.panel}")
    if args.n is not None:
        kwargs["n"] = args.n
    if args.panel == "table1":
        return run_null_size_panel(**kwargs)
    return run_power_panel(**kwargs)


def build_report(args: argparse.Namespace, results: dict, diagnostics: dict) -> dict:
    """The report; its ``config`` is every parsed option that can change ``results``."""
    config = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "clusterperm", "version": __version__},
        "command": args.subcommand,
        "config": config,
        "config_digest": hashlib.sha256(canon.encode()).hexdigest()[:16],
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


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation and write its report."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = _execute(args)
    diagnostics = {"warnings": [str(w.message) for w in caught]}
    report = build_report(args, results, diagnostics)
    if args.format == "json":
        # Strict JSON: a NaN or infinite number fails the run (exit 3).
        payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        payload = _render_text(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ParseError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(payload)
    return 0


def main(argv=None) -> int:
    try:
        return run(build_parser().parse_args(argv))
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
