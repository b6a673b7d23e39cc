"""Command line interface: parsing, seed resolution, artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depgap
from depgap import (
    DepgapError,
    DimensionMismatch,
    MeasureKind,
    PairedSample,
    ParseError,
    SynthSpec,
    ThresholdRule,
    ZeroLibrarySize,
    aldg,
    generate,
    measure,
    pairwise_matrix,
)
from depgap._util import fmt_float
from depgap.cli import (
    ExpressionMatrix,
    ingest,
    main,
    read_pairs,
    write_expression,
    write_pairs,
)


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("DEPGAP_SEED", raising=False)


def make_expression_file(path, n=30, seed=123):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=n)
    rows = {
        "g1": xs,
        "g2": 0.8 * xs + 0.2 * rng.normal(size=n),
        "g3": rng.normal(size=n),
        "g4": xs**2,
    }
    lines = ["gene," + ",".join(f"c{i}" for i in range(n))]
    for gid, vals in rows.items():
        lines.append(gid + "," + ",".join(format(v, ".17g") for v in vals))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_round_trip_values(self, tmp_path):
        path = make_expression_file(tmp_path / "expr.csv")
        table = ingest(path)
        assert table.gene_ids == ["g1", "g2", "g3", "g4"]
        assert table.cell_ids[0] == "c0" and len(table.cell_ids) == 30
        assert table.values.shape == (4, 30)

    def test_duplicate_gene_id(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,c1,c2\ng,1,2\nh,3,4\n\ng,5,6\n")
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert "'g'" in str(exc.value) and "row 5" in str(exc.value)

    def test_row_lookup(self, tmp_path):
        table = ingest(make_expression_file(tmp_path / "expr.csv"))
        assert np.array_equal(table.row("g2"), table.values[1])
        assert np.array_equal(table.row("1"), table.values[1])
        with pytest.raises(DepgapError):
            table.row("g9")
        with pytest.raises(DepgapError):
            table.row("7")

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("gene\tc1\tc2\ng1\t1.5\t2.5\ng2\t0\t1\n")
        table = ingest(path, format="tsv")
        assert table.values[0].tolist() == [1.5, 2.5]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,c1,c2\n\ng1,1,2\n\ng2,3,4\n")
        assert ingest(path).values.shape == (2, 2)

    def test_missing_value_location(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,c1,c2\ng1,1.0,\n")
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert "row 2" in str(exc.value) and "column 3" in str(exc.value)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,c1\ng1,abc\n")
        with pytest.raises(ParseError, match="not a number"):
            ingest(path)

    def test_non_finite_field(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,c1\ng1,inf\n")
        with pytest.raises(ParseError, match="non-finite"):
            ingest(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,c1,c2\ng1,1.0\n")
        with pytest.raises(DimensionMismatch):
            ingest(path)

    def test_degenerate_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError):
            ingest(empty)
        header_only = tmp_path / "h.csv"
        header_only.write_text("gene,c1\n")
        with pytest.raises(ParseError, match="no data rows"):
            ingest(header_only)
        no_cells = tmp_path / "n.csv"
        no_cells.write_text("gene\ng1\n")
        with pytest.raises(ParseError):
            ingest(no_cells)

    def test_log2cpm1_transform(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,c1,c2\ng1,1,3\ng2,3,1\n")
        table = ingest(path, transform="log2cpm1")
        raw = np.array([[1.0, 3.0], [3.0, 1.0]])
        want = np.log2(raw / raw.sum(axis=0) * 1e6 + 1.0)
        assert np.array_equal(table.values, want)

    def test_log2cpm1_zero_column(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,c1,c2\ng1,1,0\ng2,3,0\n")
        with pytest.raises(ZeroLibrarySize, match="c2"):
            ingest(path, transform="log2cpm1")

    def test_unknown_options(self, tmp_path):
        path = make_expression_file(tmp_path / "expr.csv")
        with pytest.raises(ValueError):
            ingest(path, format="parquet")
        with pytest.raises(ValueError):
            ingest(path, transform="zscore")

    def test_matrix_validation(self):
        with pytest.raises(DimensionMismatch):
            ExpressionMatrix(["g1"], ["c1", "c2"], np.ones((2, 2)))
        with pytest.raises(ParseError):
            ExpressionMatrix(["g1"], ["c1"], np.array([[np.nan]]))


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
PADDING = ("", " ", "\t", "\xa0", "\u2003", "\x1f")


@st.composite
def field_texts(draw):
    core = draw(
        st.one_of(
            st.sampled_from(
                ["0", "-0", "0.0", "-0.0", "+0", "5e-324", "-5e-324", "1.7976931348623157e308",
                 "-1.7976931348623157e308", "1_0", "1_000.25", "-2_5e-1_0"]
            ),
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.integers(-(10**6), 10**6).map(lambda k: str(k).translate(ARABIC_INDIC)),
            st.decimals(-1000, 1000, places=3).map(lambda d: str(d).translate(ARABIC_INDIC)),
        )
    )
    return draw(st.sampled_from(PADDING)) + core + draw(st.sampled_from(PADDING))


class TestIngestFields:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 4).flatmap(
        lambda cells: st.lists(st.lists(field_texts(), min_size=cells, max_size=cells),
                               min_size=1, max_size=4)))
    def test_values_equal_float_of_each_field(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("fields") / "expr.csv"
        lines = ["gene," + ",".join(f"c{j}" for j in range(len(rows[0])))]
        lines += [f"g{i}," + ",".join(row) for i, row in enumerate(rows)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = ingest(path).values
        want = [[float(text.strip()).hex() for text in row] for row in rows]
        assert [[float(v).hex() for v in row] for row in got] == want

    @pytest.mark.parametrize(
        "row, message, column",
        [
            ("g1,1,1e400", "non-finite value '1e400'", 3),
            ("g1, nan ,1", "non-finite value 'nan'", 2),
            ("g1,1,-inf", "non-finite value '-inf'", 3),
            ("g1,1,", "missing value", 3),
            ("g1, ,2", "missing value", 2),
            ("g1,abc,1", "not a number: 'abc'", 2),
            ("g1,1,inf,abc", "non-finite value 'inf'", 3),
            ("g1,abc,inf,1", "not a number: 'abc'", 2),
            ("g1,1,,nan", "missing value", 3),
        ],
    )
    def test_first_bad_field_is_named(self, tmp_path, row, message, column):
        path = tmp_path / "expr.csv"
        width = row.count(",")
        header = "gene," + ",".join(f"c{j}" for j in range(width))
        path.write_text(f"{header}\ng0,{','.join(['1'] * width)}\n\n{row}\n")
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert str(exc.value) == f"{message} (row 4, column {column})"
        assert (exc.value.row, exc.value.column) == (4, column)


def run_python(code: str) -> str:
    """stdout of `python -c code` in a fresh process that imports this checkout's depgap."""
    src = str(Path(depgap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_leaves_scipy_special_and_stats_unloaded():
    # scipy.stats is imported only by nb_mix3, and scipy.special only by
    # the asymptotic-norm rule, avgcsn and nb_mix3.
    code = ("import sys, depgap.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.special', 'scipy.stats'))))")
    assert run_python(code).strip() == "[]"


def test_rank_measures_leave_scipy_stats_unloaded(tmp_path):
    sample = generate(SynthSpec("linear", 40, noise_level=0.5, seed=3))
    write_pairs(sample, tmp_path / "xy.csv")
    expr = make_expression_file(tmp_path / "expr.csv")
    runs = [
        ["test", str(tmp_path / "xy.csv"), "--measure", "spearman", "--n-perms", "5"],
        ["test", str(tmp_path / "xy.csv"), "--measure", "kendall", "--n-perms", "5"],
        ["matrix", str(expr), "--measure", "kendall", "--out", str(tmp_path / "m.csv")],
    ]
    code = (f"import sys, depgap.cli as c; codes = [c.main(argv) for argv in {runs!r}];"
            " print(codes, sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert run_python(code).splitlines()[-1] == "[0, 0, 0] []"


class TestExpressionOutput:
    def test_header_and_round_trip(self, tmp_path):
        table = ExpressionMatrix(
            ["g1", "g2"], ["c1", "c2"], np.array([[0.5, 1.25], [2.0, -3.5]])
        )
        out = tmp_path / "out.csv"
        write_expression(table, out)
        text = out.read_text()
        assert text.splitlines()[0] == "gene,c1,c2"
        again = ingest(out)
        assert np.array_equal(again.values, table.values)
        assert b"\r" not in out.read_bytes()


class TestPairsIo:
    def test_round_trip(self, tmp_path):
        sample = PairedSample([0.5, 1.25, -2.0], [1.0, 0.0, 3.5])
        path = tmp_path / "pairs.csv"
        write_pairs(sample, path)
        assert path.read_text().splitlines()[0] == "x,y"
        again = read_pairs(path)
        assert np.array_equal(again.xs, sample.xs)
        assert np.array_equal(again.ys, sample.ys)

    def test_headerless_input(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        sample = read_pairs(path)
        assert sample.xs.tolist() == [1.0, 3.0]

    def test_headerless_input_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_bytes(b"\xef\xbb\xbf0.5,1.0\n1.5,2.0\n2.5,2.5\n3.5,4.0\n")
        sample = read_pairs(path)
        assert sample.xs.tolist() == [0.5, 1.5, 2.5, 3.5]
        assert sample.ys.tolist() == [1.0, 2.0, 2.5, 4.0]

    def test_errors(self, tmp_path):
        bad_width = tmp_path / "w.csv"
        bad_width.write_text("x,y\n1,2,3\n")
        with pytest.raises(DimensionMismatch):
            read_pairs(bad_width)
        bad_value = tmp_path / "v.csv"
        bad_value.write_text("x,y\n1,oops\n")
        with pytest.raises(ParseError):
            read_pairs(bad_value)

    def test_first_bad_row_in_file_order_wins(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("x,y\n1,2\n3,abc\n5,6,7\n")
        with pytest.raises(ParseError) as exc:
            read_pairs(path)
        assert str(exc.value) == "not a number: 'abc' (row 3, column 2)"
        path.write_text("x,y\n1,2\n5,6,7\n3,abc\n")
        with pytest.raises(DimensionMismatch, match="row 3 has 3 fields, expected 2"):
            read_pairs(path)

    def test_field_that_only_strip_accepts(self, tmp_path):
        # float() rejects the U+001F padding that str.strip() removes, so
        # the whole-file cast fails and the rows are parsed one by one.
        path = tmp_path / "pairs.csv"
        path.write_text("x,y\n1,\x1f2\n3,4\n")
        sample = read_pairs(path)
        assert sample.xs.tolist() == [1.0, 3.0]
        assert sample.ys.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize(
        "text, message, row, column",
        [
            ("x,y\n3,inf\n", "non-finite value 'inf'", 2, 2),
            ("x,y\n1,2\nnan,4\n", "non-finite value 'nan'", 3, 1),
            ("x,y\n1,2\n3,\n", "missing value", 3, 2),
            ("1,2\n3,1e400\n", "non-finite value '1e400'", 2, 2),
            ("x,y\n1, oops \n", "not a number: 'oops'", 2, 2),
            ("x,y\n\n1,2\n\n3,abc\n", "not a number: 'abc'", 5, 2),
        ],
    )
    def test_bad_field_location(self, tmp_path, text, message, row, column):
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_pairs(path)
        assert str(exc.value) == f"{message} (row {row}, column {column})"


class TestMeasureCommand:
    def test_pearson_payload(self, tmp_path, capsys):
        path = make_expression_file(tmp_path / "expr.csv")
        code, out, _ = run_cli(
            capsys, "measure", str(path), "--x-row", "g1", "--y-row", "g2",
            "--measure", "pearson",
        )
        assert code == 0
        payload = json.loads(out)
        table = ingest(path)
        want = measure("pearson", PairedSample(table.row("g1"), table.row("g2")))
        assert payload["measure"] == "pearson"
        assert payload["value"] == pytest.approx(want, rel=1e-12)
        assert "runtime_ms" in payload

    def test_aldg_payload_matches_library(self, tmp_path, capsys):
        path = make_expression_file(tmp_path / "expr.csv")
        code, out, _ = run_cli(
            capsys, "measure", str(path), "--x-row", "g1", "--y-row", "g2",
            "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        table = ingest(path)
        sample = PairedSample(table.row("g1"), table.row("g2"))
        want = aldg(sample, ThresholdRule.auto(seed=3))
        assert payload["value"] == want.value
        assert payload["t_used"] == want.t_used
        # auto resolves by sample size; 30 points select the shuffle rule
        assert payload["rule"]["kind"] == "uniform-error"
        assert payload["rule"]["seed"] == 3

    def test_fixed_rule_threshold(self, tmp_path, capsys):
        path = make_expression_file(tmp_path / "expr.csv")
        code, out, _ = run_cli(
            capsys, "measure", str(path), "--x-row", "g1", "--y-row", "g4",
            "--threshold-rule", "fixed", "--t", "0.1",
        )
        assert code == 0
        assert json.loads(out)["t_used"] == 0.1

    def test_fixed_rule_without_t_is_usage_error(self, tmp_path, capsys):
        path = make_expression_file(tmp_path / "expr.csv")
        code, _, err = run_cli(
            capsys, "measure", str(path), "--x-row", "g1", "--y-row", "g2",
            "--threshold-rule", "fixed",
        )
        assert code == 2
        assert "requires --t" in err

    @pytest.mark.parametrize("command", ["measure", "matrix", "test"])
    @pytest.mark.parametrize("flags, message", [
        (["--threshold-rule", "fixed", "--t", "-0.1"], "--t must be a threshold >= 0"),
        (["--threshold-rule", "fixed", "--t", "nan"], "--t must be a threshold >= 0"),
        (["--threshold-rule", "auto", "--t", "0.3"], "--t applies only to --threshold-rule fixed"),
        (["--t", "0.3"], "--t applies only to --threshold-rule fixed"),
        (["--measure", "pearson", "--threshold-rule", "auto"], "apply only to --measure aldg"),
        (["--measure", "mr", "--threshold-rule", "fixed", "--t", "0.1"],
         "apply only to --measure aldg"),
        (["--measure", "avgcsn", "--t", "0.3"], "apply only to --measure aldg"),
    ])
    def test_threshold_flag_misuse_is_usage_error(self, tmp_path, capsys, command, flags, message):
        if command == "test":
            path = tmp_path / "pairs.csv"
            write_pairs(PairedSample([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 5.0]), path)
            argv = ["test", str(path)]
        else:
            path = make_expression_file(tmp_path / "expr.csv")
            argv = [command, str(path)]
            argv += (["--x-row", "g1", "--y-row", "g2"] if command == "measure"
                     else ["--out", str(tmp_path / "m.csv")])
        code, out, err = run_cli(capsys, *argv, *flags)
        assert code == 2
        assert out == "" and message in err
        assert not (tmp_path / "m.csv").exists()

    def test_unknown_gene_is_runtime_error(self, tmp_path, capsys):
        path = make_expression_file(tmp_path / "expr.csv")
        code, _, err = run_cli(
            capsys, "measure", str(path), "--x-row", "nope", "--y-row", "g2"
        )
        assert code == 1
        assert err.startswith("depgap:")

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "measure", str(tmp_path / "ghost.csv"),
            "--x-row", "g1", "--y-row", "g2",
        )
        assert code == 1
        assert "depgap:" in err

    def test_usage_errors_from_argparse(self, tmp_path, capsys):
        path = make_expression_file(tmp_path / "expr.csv")
        code, _, _ = run_cli(capsys, "measure", str(path), "--x-row", "g1")
        assert code == 2
        code, _, _ = run_cli(
            capsys, "measure", str(path), "--x-row", "g1", "--y-row", "g2",
            "--measure", "magic",
        )
        assert code == 2
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2
        code, out, err = run_cli(
            capsys, "measure", str(path), "--x-row", "g1", "--y-row", "g2", "--seed", "-1"
        )
        assert code == 2
        assert out == "" and "--seed" in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_threads_is_usage_error(self, tmp_path, capsys, threads):
        path = make_expression_file(tmp_path / "expr.csv")
        code, out, err = run_cli(
            capsys, "measure", str(path), "--x-row", "g1", "--y-row", "g2",
            "--threads", threads,
        )
        assert code == 2
        assert out == ""
        assert "--threads" in err

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        path = make_expression_file(tmp_path / "expr.csv")
        # A negative seed is as unusable as a non-integer one.
        for value in ("abc", "-1"):
            monkeypatch.setenv("DEPGAP_SEED", value)
            code, out, err = run_cli(
                capsys, "measure", str(path), "--x-row", "g1", "--y-row", "g2"
            )
            assert code == 2
            assert out == ""
            assert "DEPGAP_SEED" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_env_seed_matches_flag_seed(self, tmp_path, capsys, monkeypatch):
        path = make_expression_file(tmp_path / "expr.csv")
        argv = ["measure", str(path), "--x-row", "g1", "--y-row", "g3"]
        _, flagged, _ = run_cli(capsys, *argv, "--seed", "11")
        monkeypatch.setenv("DEPGAP_SEED", "11")
        _, from_env, _ = run_cli(capsys, *argv)
        a, b = json.loads(flagged), json.loads(from_env)
        assert a["value"] == b["value"] and a["t_used"] == b["t_used"]

    def test_flag_seed_beats_env_seed(self, tmp_path, capsys, monkeypatch):
        path = make_expression_file(tmp_path / "expr.csv")
        argv = ["measure", str(path), "--x-row", "g1", "--y-row", "g3"]
        monkeypatch.setenv("DEPGAP_SEED", "99")
        _, overridden, _ = run_cli(capsys, *argv, "--seed", "5")
        monkeypatch.delenv("DEPGAP_SEED")
        _, plain, _ = run_cli(capsys, *argv, "--seed", "5")
        assert json.loads(overridden)["rule"]["seed"] == 5
        assert json.loads(overridden)["value"] == json.loads(plain)["value"]


class TestMatrixCommand:
    def test_matrix_file_matches_library(self, tmp_path, capsys):
        path = make_expression_file(tmp_path / "expr.csv")
        out = tmp_path / "matrix.csv"
        code, stdout, _ = run_cli(
            capsys, "matrix", str(path), "--measure", "pearson", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["genes"] == 4 and payload["failed_pairs"] == 0

        table = ingest(path)
        want = pairwise_matrix(table.values, MeasureKind("pearson")).matrix
        lines = out.read_text().splitlines()
        assert lines[0] == "gene,g1,g2,g3,g4"
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == table.gene_ids[i]
            assert cells[1:] == [fmt_float(v) for v in want[i]]

        diag = json.loads((tmp_path / "matrix.diagnostics.json").read_text())
        assert diag == {"failed_pairs": []}

    def test_failed_pairs_reported(self, tmp_path, capsys):
        path = tmp_path / "expr.csv"
        path.write_text(
            "gene,c1,c2,c3,c4,c5\n"
            "g1,1,2,3,4,5\n"
            "flat,7,7,7,7,7\n"
            "g3,5,4,3,2,1\n"
        )
        out = tmp_path / "matrix.csv"
        code, stdout, _ = run_cli(
            capsys, "matrix", str(path), "--measure", "pearson", "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout)["failed_pairs"] == 2
        assert "nan" in out.read_text()
        diag = json.loads((tmp_path / "matrix.diagnostics.json").read_text())
        assert {d["error"] for d in diag["failed_pairs"]} == {"ZeroVariance"}

    def test_thread_count_does_not_change_bytes(self, tmp_path, capsys):
        path = make_expression_file(tmp_path / "expr.csv")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "matrix", str(path), "--out", str(a), "--seed", "2",
                "--threads", "1")
        run_cli(capsys, "matrix", str(path), "--out", str(b), "--seed", "2",
                "--threads", "8")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.diagnostics.json").read_bytes() == (
            tmp_path / "b.diagnostics.json"
        ).read_bytes()


class TestSimulateCommand:
    def write_spec(self, path, **overrides):
        doc = {"family": "sine", "n": 40, "noise_level": 0.1,
               "params": {"freq": 2.0}, "seed": 7}
        doc.update(overrides)
        path.write_text(json.dumps(doc))
        return path

    def test_output_matches_library(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path / "spec.json")
        out = tmp_path / "pairs.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout) == {
            "family": "sine", "n": 40, "out": str(out), "seed": 7,
        }
        want = tmp_path / "want.csv"
        write_pairs(
            generate(SynthSpec("sine", 40, 0.1, {"freq": 2.0}, seed=7)), want
        )
        assert out.read_bytes() == want.read_bytes()

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path / "spec.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "simulate", "--spec", str(spec_path), "--out", str(a))
        run_cli(capsys, "simulate", "--spec", str(spec_path), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_priority(self, tmp_path, capsys, monkeypatch):
        spec_path = self.write_spec(tmp_path / "spec.json", seed=7)
        flagged, enved, specced = (tmp_path / n for n in ("f.csv", "e.csv", "s.csv"))
        run_cli(capsys, "simulate", "--spec", str(spec_path), "--out", str(flagged),
                "--seed", "11")
        monkeypatch.setenv("DEPGAP_SEED", "11")
        run_cli(capsys, "simulate", "--spec", str(spec_path), "--out", str(enved))
        monkeypatch.delenv("DEPGAP_SEED")
        run_cli(capsys, "simulate", "--spec", str(spec_path), "--out", str(specced))
        assert flagged.read_bytes() == enved.read_bytes()
        assert flagged.read_bytes() != specced.read_bytes()

    @pytest.mark.parametrize("bad", [-1, "abc", 1.5])
    def test_bad_spec_seed_is_parse_error(self, tmp_path, capsys, bad):
        spec_path = self.write_spec(tmp_path / "spec.json", seed=bad)
        code, _, err = run_cli(
            capsys, "simulate", "--spec", str(spec_path),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "spec field 'seed'" in err and "Error" not in err

    def test_bad_family_is_runtime_error(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path / "spec.json", family="helix", params={})
        code, _, err = run_cli(
            capsys, "simulate", "--spec", str(spec_path),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "depgap:" in err


class TestTestCommand:
    def test_dependent_data_rejects(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=60)
        path = tmp_path / "pairs.csv"
        write_pairs(PairedSample(xs, xs), path)
        code, out, _ = run_cli(
            capsys, "test", str(path), "--measure", "pearson", "--n-perms", "200"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_value"] == pytest.approx(1.0 / 201.0, rel=1e-12)
        assert payload["n_perms"] == 200
        assert payload["observed"] == pytest.approx(1.0, rel=1e-12)

    def test_independent_data_high_p(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "pairs.csv"
        write_pairs(PairedSample(rng.normal(size=50), rng.normal(size=50)), path)
        code, out, _ = run_cli(
            capsys, "test", str(path), "--measure", "spearman",
            "--n-perms", "50", "--seed", "4",
        )
        assert code == 0
        assert json.loads(out)["p_value"] > 0.05

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_nonpositive_n_perms_is_usage_error(self, tmp_path, capsys, value):
        path = tmp_path / "pairs.csv"
        write_pairs(PairedSample([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]), path)
        code, out, err = run_cli(capsys, "test", str(path), "--n-perms", value)
        assert code == 2
        assert out == "" and "--n-perms" in err


class TestExperimentCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "list")
        assert code == 0
        assert out.split() == [
            "nonlinearity-grid",
            "noise-monotonicity",
            "mixture-accumulation",
            "power-suite",
            "threshold-comparison",
            "robustness",
            "timing",
        ]

    def test_run_writes_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "nonlinearity-grid", "--out", str(tmp_path),
            "--n", "20", "--trials", "1", "--families", "linear",
            "--measures", "pearson", "--seed", "1",
        )
        assert code == 0
        paths = json.loads(out)
        assert (tmp_path / "nonlinearity-grid.csv").exists()
        assert (tmp_path / "nonlinearity-grid.meta.json").exists()
        assert paths["csv"].endswith("nonlinearity-grid.csv")

    def test_svg_flag(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "noise-monotonicity", "--out", str(tmp_path),
            "--n", "20", "--trials", "1", "--c-grid", "0.0,0.5",
            "--families", "linear", "--svg",
        )
        assert code == 0
        assert "svg" in json.loads(out)
        assert (tmp_path / "noise-monotonicity.svg").exists()

    def test_unaccepted_flag_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "noise-monotonicity", "--out", str(tmp_path),
            "--rho", "0.5",
        )
        assert code == 2
        assert "does not accept --rho" in err

    def test_unknown_name_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "experiment", "warp-drive", "--out", str(tmp_path)
        )
        assert code == 2

    @pytest.mark.parametrize("name, flag", [
        ("nonlinearity-grid", "--trials"),
        ("noise-monotonicity", "--trials"),
        ("threshold-comparison", "--trials"),
        ("power-suite", "--n-perms"),
        ("timing", "--repeats"),
    ])
    @pytest.mark.parametrize("value", ["0", "-2", "1.5"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, name, flag, value):
        code, out, err = run_cli(
            capsys, "experiment", name, "--out", str(tmp_path), flag, value
        )
        assert code == 2
        assert out == "" and flag in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name, flag, value", [
        ("timing", "--n-grid", "1,x"),
        ("timing", "--n-grid", ","),
        ("noise-monotonicity", "--families", ""),
        ("robustness", "--point", "1"),
        ("robustness", "--point", "1,2,3"),
    ])
    def test_malformed_list_is_usage_error(self, tmp_path, capsys, name, flag, value):
        code, out, err = run_cli(
            capsys, "experiment", name, "--out", str(tmp_path), flag, value
        )
        assert code == 2
        assert out == "" and flag in err
        assert not any(tmp_path.iterdir())

    def test_full_scale_flag_passes_through(self, tmp_path, capsys):
        # mixture-accumulation has no full-scale preset; the flag is a no-op.
        code, _, _ = run_cli(
            capsys, "experiment", "mixture-accumulation", "--out", str(tmp_path),
            "--n", "20", "--trials", "1", "--full-scale",
        )
        assert code == 0
