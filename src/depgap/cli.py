"""Command line front end: ingestion, pairwise matrices, simulation, tests, experiments.

Subcommands: measure, matrix, simulate, test, experiment. The default seed
comes from the DEPGAP_SEED environment variable when set, otherwise 0, and
is always overridden by an explicit --seed. Exit codes: 0 on success, 1 on
runtime errors (bad data, domain failures, I/O), 2 on usage errors.
"""

import argparse
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import fmt_float
from .aldg import RULE_KINDS, ThresholdRule, aldg
from .errors import (
    DepgapError,
    DimensionMismatch,
    ParseError,
    ZeroLibrarySize,
)
from .experiments import EXPERIMENTS, write_report
from .inference import permutation_test
from .kde import PairedSample
from .measures import MEASURE_TAGS, MeasureKind, measure, pairwise_matrix
from .synth import FAMILIES, SynthSpec, generate


class _UsageError(Exception):
    """Bad flag combinations argparse cannot express by itself; exit code 2."""


@dataclass
class ExpressionMatrix:
    """Genes-by-cells expression table with row and column identifiers."""

    gene_ids: list
    cell_ids: list
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DimensionMismatch("expression values must form a 2-d matrix")
        if self.values.shape != (len(self.gene_ids), len(self.cell_ids)):
            raise DimensionMismatch(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.gene_ids)} gene ids and {len(self.cell_ids)} cell ids"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParseError("expression matrix contains non-finite values")

    def row(self, key) -> np.ndarray:
        """Look a row up by gene id, falling back to a 0-based integer index."""
        if key in self.gene_ids:
            return self.values[self.gene_ids.index(key)]
        try:
            index = int(key)
        except (TypeError, ValueError):
            raise DepgapError(f"no gene named {key!r}") from None
        if not 0 <= index < len(self.gene_ids):
            raise DepgapError(f"row index {index} out of range for {len(self.gene_ids)} genes")
        return self.values[index]


def _parse_fields(fields, row: int, first_column: int) -> np.ndarray:
    """Parse one row's fields as finite floats, each exactly as float(text.strip()).

    numpy's str-to-float cast calls float() on each field. A failed or
    non-finite row is then walked field by field only to raise ParseError at
    the first missing, malformed or non-finite field (1-based row and column).
    """
    try:
        values = np.array(fields, dtype=float)
    except ValueError:
        # float() keeps the U+001F separator that str.strip() removes.
        try:
            values = np.array([text.strip() for text in fields], dtype=float)
        except ValueError:
            values = None
    if values is None or not np.isfinite(values).all():
        for c, text in enumerate(fields, start=first_column):
            text = text.strip()
            if text == "":
                raise ParseError("missing value", row=row, column=c)
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"not a number: {text!r}", row=row, column=c) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {text!r}", row=row, column=c)
    return values


def ingest(path, format: str = "csv", transform: str = "none") -> ExpressionMatrix:
    """Parse a delimited genes-by-cells table.

    The first row holds cell ids (its first field is ignored), the first
    column holds gene ids, and every remaining field must be a finite
    number; missing or malformed fields raise ParseError with the 1-based
    row and column, and a repeated gene id raises ParseError at the row of
    its second occurrence. transform="log2cpm1" scales every column to a million
    total counts and then applies log2(x + 1); a column summing to zero
    raises ZeroLibrarySize.
    """
    if format not in ("csv", "tsv"):
        raise ValueError(f"unknown format {format!r}")
    if transform not in ("none", "log2cpm1"):
        raise ValueError(f"unknown transform {transform!r}")
    delim = "," if format == "csv" else "\t"

    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError("empty file", row=1)
    header = lines[0].split(delim)
    if len(header) < 2:
        raise ParseError("header must name at least one cell", row=1)
    cell_ids = [h.strip() for h in header[1:]]

    first_rows = {}
    values = np.empty((len(lines) - 1, len(cell_ids)))
    for r, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            continue
        fields = line.split(delim)
        if len(fields) != len(header):
            raise DimensionMismatch(
                f"row {r} has {len(fields)} fields, expected {len(header)}"
            )
        gene_id = fields[0].strip()
        if gene_id in first_rows:
            raise ParseError(
                f"duplicate gene id {gene_id!r}, first seen on row {first_rows[gene_id]}", row=r
            )
        values[len(first_rows)] = _parse_fields(fields[1:], row=r, first_column=2)
        first_rows[gene_id] = r
    if not first_rows:
        raise ParseError("no data rows", row=2)

    values = values[: len(first_rows)]
    if transform == "log2cpm1":
        sums = values.sum(axis=0)
        dead = np.nonzero(sums == 0.0)[0]
        if dead.size:
            raise ZeroLibrarySize(f"column {cell_ids[dead[0]]!r} sums to zero")
        values /= sums
        values *= 1e6
        values += 1.0
        np.log2(values, out=values)
    return ExpressionMatrix(list(first_rows), cell_ids, values)


def write_expression(matrix: ExpressionMatrix, path, format: str = "csv") -> None:
    """Write an ExpressionMatrix back out (first header cell "gene", LF, UTF-8)."""
    delim = "," if format == "csv" else "\t"
    _write_table(path, delim, matrix.cell_ids, matrix.gene_ids, matrix.values)


def _write_table(path, delim: str, column_ids, row_ids, rows) -> None:
    """A "gene"-headed table, one line per row id, floats by `fmt_float`,
    LF, UTF-8. Unlike ExpressionMatrix, the rows may hold NaN (failed
    matrix cells)."""
    lines = [delim.join(["gene"] + list(column_ids))]
    for gid, row in zip(row_ids, rows):
        lines.append(delim.join([gid] + [fmt_float(v) for v in row]))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_pairs(path) -> PairedSample:
    """Read a two-column x,y CSV (optional header) into a PairedSample.

    Fields parse as in ingest: a missing, malformed or non-finite field
    raises ParseError with its 1-based row (the line in the file, blank
    lines included) and column.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    rows = [(r, line) for r, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not rows:
        raise ParseError("empty file", row=1)
    try:
        float(rows[0][1].split(",")[0])
    except ValueError:
        rows = rows[1:]
    table = [line.split(",") for _, line in rows]
    # One cast for the whole file; numpy's fixed cost per call outweighs two
    # fields. Only a file that fails is parsed row by row, so that the first
    # bad row in file order raises, with the text `_parse_fields` gives it.
    try:
        values = np.array(table, dtype=float)
        cast = values.shape == (len(rows), 2) and np.isfinite(values).all()
    except ValueError:
        cast = False
    if not cast:
        values = np.empty((len(rows), 2))
        for i, ((r, _), fields) in enumerate(zip(rows, table)):
            if len(fields) != 2:
                raise DimensionMismatch(f"row {r} has {len(fields)} fields, expected 2")
            values[i] = _parse_fields(fields, row=r, first_column=1)
    xs, ys = values.T.copy()
    return PairedSample(xs, ys)


def write_pairs(sample: PairedSample, path) -> None:
    """Write a PairedSample as an x,y CSV with ten significant digits."""
    lines = ["x,y"]
    for x, y in zip(sample.xs, sample.ys):
        lines.append(f"{fmt_float(x)},{fmt_float(y)}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _resolve_seed(flag_value, fallback: int = 0) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("DEPGAP_SEED")
    if env is None:
        return fallback
    try:
        return _int_at_least(0)(env)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"DEPGAP_SEED: {exc}") from None


def _make_rule(kind: str, t, seed: int) -> ThresholdRule:
    if kind != "fixed" and t is not None:
        raise _UsageError(f"--t applies only to --threshold-rule fixed, not {kind}")
    if kind == "fixed":
        if t is None:
            raise _UsageError("--threshold-rule fixed requires --t")
        if not t >= 0:
            raise _UsageError(f"--t must be a threshold >= 0, got {t}")
    return ThresholdRule(kind, t=t).reseeded(seed)


def _measure_kind(args, seed: int) -> MeasureKind:
    """The measure the flags ask for; the threshold flags apply to aldg alone."""
    if args.measure == "aldg":
        rule = _make_rule(args.threshold_rule or "auto", args.t, seed)
        return MeasureKind("aldg", {"rule": rule})
    if args.threshold_rule is not None or args.t is not None:
        raise _UsageError(
            f"--threshold-rule and --t apply only to --measure aldg, not {args.measure}")
    return MeasureKind(args.measure)


def cmd_measure(args) -> int:
    seed = _resolve_seed(args.seed)
    kind = _measure_kind(args, seed)
    table = ingest(args.data, args.format, args.transform)
    sample = PairedSample(table.row(args.x_row), table.row(args.y_row))
    t0 = time.perf_counter()
    if kind.tag == "aldg":
        result = aldg(sample, kind.params["rule"], threads=args.threads)
        payload = {
            "measure": "aldg",
            "value": result.value,
            "t_used": result.t_used,
            "rule": {
                "kind": result.rule.kind,
                "t": result.rule.t,
                "n_shuffles": result.rule.n_shuffles,
                "seed": result.rule.seed,
            },
        }
    else:
        payload = {
            "measure": args.measure,
            "value": measure(kind, sample),
        }
    payload["runtime_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_matrix(args) -> int:
    seed = _resolve_seed(args.seed)
    kind = _measure_kind(args, seed)
    table = ingest(args.data, args.format, args.transform)
    result = pairwise_matrix(table.values, kind, threads=args.threads, seed=seed)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_table(out, ",", table.gene_ids, table.gene_ids, result.matrix)

    diag_path = out.with_suffix(".diagnostics.json")
    diag_path.write_bytes(
        (json.dumps({"failed_pairs": result.diagnostics}, sort_keys=True, indent=2) + "\n").encode("utf-8")
    )
    print(
        json.dumps(
            {
                "out": str(out),
                "diagnostics": str(diag_path),
                "genes": len(table.gene_ids),
                "failed_pairs": len(result.diagnostics),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_simulate(args) -> int:
    doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    try:
        # str() so that a JSON float or boolean is refused, not truncated.
        spec_seed = _int_at_least(0)(str(doc.get("seed", 0)))
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"spec field 'seed': {exc}") from None
    seed = _resolve_seed(args.seed, fallback=spec_seed)
    doc["seed"] = seed
    spec = SynthSpec.from_dict(doc)
    sample = generate(spec)
    write_pairs(sample, args.out)
    print(json.dumps({"out": args.out, "family": spec.family, "n": spec.n, "seed": seed}, sort_keys=True))
    return 0


def cmd_test(args) -> int:
    seed = _resolve_seed(args.seed)
    kind = _measure_kind(args, seed)
    sample = read_pairs(args.data)
    result = permutation_test(kind, sample, n_perms=args.n_perms, seed=seed, threads=args.threads)
    print(
        json.dumps(
            {
                "measure": args.measure,
                "observed": result.observed,
                "p_value": result.p_value,
                "n_perms": result.n_perms,
                "seed": result.seed,
            },
            sort_keys=True,
        )
    )
    return 0


# Publication-size settings for experiments whose defaults are desk scale.
FULL_SCALE = {
    "power-suite": {"n_grid": (50, 100, 200, 500, 1000)},
    "robustness": {"trials": 100},
    "timing": {"n_grid": (100, 200, 400, 800, 1600, 3200), "repeats": 10},
}

def _list_of(cast, length: int | None = None, choices=None):
    """An argparse type: one or more comma-separated values read by cast,
    exactly length of them when length is given, each one of choices when
    those are given."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(cast(part.strip()) for part in text.split(",") if part.strip())
        except ValueError:
            values = ()
        if not values or length not in (None, len(values)):
            count = "" if length is None else f"{length} "
            raise argparse.ArgumentTypeError(
                f"expected {count}comma-separated {cast.__name__} values, got {text!r}"
            )
        unknown = [value for value in values if choices is not None and value not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"invalid choice {unknown[0]!r} (choose from {', '.join(choices)})"
            )
        return values

    return parse


def cmd_experiment(args) -> int:
    if args.name == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    fn = EXPERIMENTS[args.name]
    accepted = inspect.signature(fn).parameters

    kwargs = {"seed": _resolve_seed(args.seed)}
    if "threads" in accepted:
        kwargs["threads"] = args.threads
    if args.full_scale:
        for key, value in FULL_SCALE.get(args.name, {}).items():
            kwargs[key] = value

    requested = {
        "n": args.n,
        "trials": args.trials,
        "noise_level": args.noise_level,
        "level": args.level,
        "n_perms": args.n_perms,
        "small_n": args.small_n,
        "rho": args.rho,
        "d_n": args.d_n,
        "eps": args.eps,
        "repeats": args.repeats,
        "n_grid": args.n_grid,
        "c_grid": args.c_grid,
        "families": args.families,
        "kinds": args.measures,
        "point": args.point,
    }
    for key, value in requested.items():
        if value is None:
            continue
        if key not in accepted:
            flag = "--measures" if key == "kinds" else "--" + key.replace("_", "-")
            print(f"depgap: experiment {args.name!r} does not accept {flag}", file=sys.stderr)
            return 2
        kwargs[key] = value

    report = fn(**kwargs)
    paths = write_report(report, args.out, svg=args.svg)
    print(json.dumps(paths, sort_keys=True))
    return 0


def _add_ingest_flags(p):
    p.add_argument("data", help="input table path")
    p.add_argument("--format", choices=("csv", "tsv"), default="csv")
    p.add_argument("--transform", choices=("none", "log2cpm1"), default="none")


def _add_measure_flags(p):
    p.add_argument("--measure", choices=MEASURE_TAGS, default="aldg")
    p.add_argument("--threshold-rule", choices=RULE_KINDS, default=None,
                   help="threshold rule when --measure aldg (default: auto)")
    p.add_argument("--t", type=float, default=None, help="threshold for the fixed rule")


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _add_common_flags(p):
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="random seed (default: DEPGAP_SEED env var, else 0)")
    p.add_argument("--threads", type=_int_at_least(1), default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depgap",
        description="Dependence measurement via the averaged local density gap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one measure on two rows of a table")
    _add_ingest_flags(p)
    p.add_argument("--x-row", required=True, help="gene id or 0-based row index")
    p.add_argument("--y-row", required=True, help="gene id or 0-based row index")
    _add_measure_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("matrix", help="pairwise measure matrix over all rows")
    _add_ingest_flags(p)
    _add_measure_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common_flags(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("simulate", help="draw synthetic paired data from a JSON spec")
    p.add_argument("--spec", required=True, help="SynthSpec JSON file")
    p.add_argument("--out", required=True, help="output x,y CSV path")
    _add_common_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("test", help="permutation independence test on an x,y CSV")
    p.add_argument("data", help="two-column x,y CSV")
    _add_measure_flags(p)
    p.add_argument("--n-perms", type=_int_at_least(1), default=200)
    _add_common_flags(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("experiment", help="run a named experiment (or `list`)")
    p.add_argument("name", choices=tuple(EXPERIMENTS) + ("list",))
    p.add_argument("--out", default="depgap-reports", help="output directory")
    p.add_argument("--svg", action="store_true", help="also write an SVG plot")
    p.add_argument("--full-scale", action="store_true",
                   help="use publication-size grids instead of desk-scale defaults")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=_int_at_least(1), default=None)
    p.add_argument("--noise-level", type=float, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--n-perms", type=_int_at_least(1), default=None)
    p.add_argument("--small-n", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--d-n", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--repeats", type=_int_at_least(1), default=None)
    p.add_argument("--n-grid", type=_list_of(int), default=None,
                   help="comma-separated sample sizes")
    p.add_argument("--c-grid", type=_list_of(float), default=None,
                   help="comma-separated noise levels")
    p.add_argument("--families", type=_list_of(str, choices=tuple(FAMILIES)), default=None,
                   help="comma-separated family names")
    p.add_argument("--measures", type=_list_of(str, choices=MEASURE_TAGS), default=None,
                   help="comma-separated measure tags")
    p.add_argument("--point", type=_list_of(float, 2), default=None,
                   help="contamination point as x,y")
    _add_common_flags(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"depgap: {exc}", file=sys.stderr)
        return 2
    except DepgapError as exc:
        print(f"depgap: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"depgap: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
