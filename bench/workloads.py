"""Inputs, commands and output checks of the benchmark's three workloads.

Every input comes from the run seed. A workload's `setup` writes its input
files and returns a `Plan`: the groups of CLI commands one round runs (one
fresh process per group), a digest of a round's outputs that every round
must reproduce, and the checks made on one round's outputs. The
checks use the brute-force oracles in tests/oracles.py, the benchmark's own
parse and transform of the inputs, or properties the method must have.
"""

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

MEASURES = (
    "pearson", "spearman", "kendall", "hoeffd", "dcor",
    "hsic", "hhg", "mr", "avgcsn", "mean-t",
)
SIGNED = ("pearson", "spearman", "kendall")
LEVEL = 0.05
# A statistical check fails a correct program at most this often per run.
CHECK_TAIL = 1e-5

# Input sizes. "smoke" runs every workload and every check in seconds.
SIZES = {
    "full": {
        "matrix": {"genes": 60, "cells": 500, "module_size": 6, "checked": 40},
        "test": {
            "aldg": {"ns": (100, 200), "independent": 2, "perms": 200},
            "competitors": {"n": 100, "tiny_n": 10, "perms": 39},
        },
        "measure-wide": {"genes": 2000, "cells": 2000, "calls": 4},
    },
    "smoke": {
        "matrix": {"genes": 20, "cells": 300, "module_size": 2, "checked": 8},
        "test": {
            "aldg": {"ns": (100,), "independent": 2, "perms": 39},
            "competitors": {"n": 24, "tiny_n": 8, "perms": 19},
        },
        "measure-wide": {"genes": 40, "cells": 300, "calls": 2},
    },
}


class CheckFailed(Exception):
    """A workload output disagrees with its reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Command:
    """One depgap CLI call: its argv, the measure evaluations it performs,
    and whether it runs single-threaded."""

    argv: list
    evals: int
    serial: bool = True


@dataclass
class Plan:
    groups: list  # command groups of one round; one process per group
    digest: object  # stdouts -> comparable value; taken right after each round
    check: object  # (stdouts, digest) -> None, raises CheckFailed
    ops: object  # (command, stdout or None) -> (attempted, failed)
    notes: dict  # make-up of the inputs, printed with the result


def rng_for(seed, *names):
    words = [seed % 2**63] + [zlib.crc32(name.encode()) for name in names]
    return np.random.default_rng(np.random.SeedSequence(words))


# ---------------------------------------------------------------------------
# generated inputs


def counts_table(rng, genes, cells, module_size, modules=3):
    """Genes-by-cells counts with planted co-expression modules.

    Each module follows one latent gamma factor (mean 1, variance 2/3): even
    members linearly, odd members through the squared factor. Module genes
    are expressed higher than the rest, which only follow the cell's
    sequencing depth. Poisson and negative-binomial noise alternate by gene,
    so the table has the lattice ties of real counts.
    """
    factors = rng.gamma(1.5, 1.0 / 1.5, size=(modules, cells))
    depth = rng.lognormal(0.0, 0.3, size=cells)
    base = rng.uniform(1.0, 12.0, size=genes)
    base[: modules * module_size] = rng.uniform(10.0, 40.0, size=modules * module_size)
    mu = base[:, None] * depth[None, :]
    members = []
    for m in range(modules):
        rows = list(range(m * module_size, (m + 1) * module_size))
        for k, g in enumerate(rows):
            # E[d^2] = 1 + 2/3 keeps the mean expression of squared responders.
            mu[g] *= factors[m] if k % 2 == 0 else factors[m] ** 2 / (5.0 / 3.0)
        members.append(rows)
    counts = np.empty((genes, cells), dtype=np.int64)
    counts[0::2] = rng.poisson(mu[0::2])
    counts[1::2] = rng.negative_binomial(2.0, 2.0 / (2.0 + mu[1::2]))
    gene_ids = [f"g{i:04d}" for i in range(genes)]
    return counts, gene_ids, members


def write_new(path, text):
    # A new file, not one truncated and rewritten: ext4 starts writeback of
    # a truncated file when it is closed, so rewriting in place makes every
    # repeated set-up wait on the disk.
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8")


def write_table(path, counts, gene_ids):
    lines = ["gene," + ",".join(f"c{j:04d}" for j in range(counts.shape[1]))]
    for gid, row in zip(gene_ids, counts.tolist()):
        lines.append(gid + "," + ",".join(map(str, row)))
    write_new(path, "\n".join(lines) + "\n")


def load_table(path):
    """The benchmark's own parse of a genes-by-cells CSV."""
    with open(path, encoding="utf-8") as fh:
        cells = len(fh.readline().split(",")) - 1
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, cells + 1), ndmin=2)


def log2cpm1(values):
    return np.log2(values / values.sum(axis=0) * 1e6 + 1.0)


def pair_sample(rng, family, n, noise=0.2):
    if family == "independent":
        return rng.standard_normal(n), rng.standard_normal(n)
    xs = rng.uniform(-1.0, 1.0, n)
    shape = {"sine": np.sin(2.0 * np.pi * xs), "quadratic": xs**2, "linear": xs}[family]
    return xs, shape + noise * rng.standard_normal(n)


def write_pairs(path, xs, ys):
    # repr is the shortest text that parses back to the same float.
    lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in zip(xs.tolist(), ys.tolist())]
    write_new(path, "\n".join(lines) + "\n")


def read_pairs(path):
    """The benchmark's own parse of an x,y CSV."""
    rows = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    xs, ys = zip(*(map(float, row.split(",")) for row in rows))
    return list(xs), list(ys)


# ---------------------------------------------------------------------------
# references


def bandwidth(values):
    values = np.asarray(values, dtype=float)
    return float(np.std(values, ddof=1)) * values.size ** (-1.0 / 6.0)


def asymptotic_threshold(xs, ys):
    n = len(xs)
    sx = float(np.std(xs, ddof=1))
    sy = float(np.std(ys, ddof=1))
    return max(float(ndtri(1.0 - 1.0 / n)) / (math.sqrt(sx * sy) * n ** (1.0 / 3.0)), 0.0)


def aldg_reference(oracles, xs, ys):
    """aLDG under the asymptotic-norm threshold, from the brute-force oracle."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return oracles.aldg_fixed_brute(
        xs.tolist(), ys.tolist(), bandwidth(xs), bandwidth(ys), asymptotic_threshold(xs, ys)
    )


def exact_level(perms):
    """Null rejection probability of an add-one p-value at LEVEL."""
    return math.floor(LEVEL * (perms + 1)) / (perms + 1)


def rejection_bound(tests, level):
    """Most rejections among `tests` independent null tests that a correct
    test exceeds with probability at most CHECK_TAIL."""
    tail = 1.0
    for k in range(tests + 1):
        tail -= math.comb(tests, k) * level**k * (1.0 - level) ** (tests - k)
        if tail <= CHECK_TAIL:
            return k
    return tests


def check_p_value(p, perms, where):
    k = p * (perms + 1)
    require(abs(k - round(k)) < 1e-9 and 1 <= round(k) <= perms + 1,
            f"{where}: p-value {p} is not on the grid k/{perms + 1}")


def parse_json(stdout, where):
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise CheckFailed(f"{where}: no JSON result on stdout") from None
    require(isinstance(doc, dict), f"{where}: the result on stdout is not an object")
    return doc


# ---------------------------------------------------------------------------
# matrix: `depgap matrix --measure aldg --transform log2cpm1`, threads 1 and 2


def setup_matrix(work, seed, size, oracles):
    counts, gene_ids, members = counts_table(
        rng_for(seed, "matrix"), size["genes"], size["cells"], size["module_size"])
    table = work / "counts.csv"
    write_table(table, counts, gene_ids)
    p, n = counts.shape
    cells = p * (p + 1) // 2  # pairs plus diagonal
    outs = {threads: work / f"matrix-t{threads}.csv" for threads in (1, 2)}
    groups = [
        [Command(["matrix", str(table), "--measure", "aldg", "--transform", "log2cpm1",
                  "--threads", str(threads), "--out", str(out)],
                 evals=cells, serial=threads == 1)]
        for threads, out in outs.items()
    ]

    def digest(stdouts):
        # The files are removed once read, so every round must write them anew.
        files = []
        for out in outs.values():
            diag = out.with_suffix(".diagnostics.json")
            files.append((out.read_bytes(), diag.read_bytes()))
            out.unlink()
            diag.unlink()
        return files, [parse_json(s, "matrix").get("failed_pairs") for s in stdouts]

    def ops(command, stdout):
        # A command that failed or printed no count failed every cell.
        if stdout is None:
            return cells, cells
        try:
            failed = parse_json(stdout, "matrix")["failed_pairs"]
        except (CheckFailed, KeyError):
            return cells, cells
        return cells, failed if isinstance(failed, int) else cells

    def check(stdouts, digest):
        for s in stdouts:
            doc = parse_json(s, "matrix")
            require(doc.get("failed_pairs") == 0 and doc.get("genes") == p, f"matrix: stdout {doc}")
        (csv1, diag1), (csv2, diag2) = digest[0]
        require(csv1 == csv2 and diag1 == diag2,
                "matrix: --threads 1 and --threads 2 outputs differ")
        require(json.loads(diag1) == {"failed_pairs": []}, "matrix: failed pairs in diagnostics")
        lines = csv1.decode("utf-8").splitlines()
        require(lines[0].split(",") == ["gene"] + gene_ids, "matrix: header row")
        fields = [line.split(",") for line in lines[1:]]
        require([f[0] for f in fields] == gene_ids and all(len(f) == p + 1 for f in fields),
                "matrix: row labels or widths")
        text = [f[1:] for f in fields]
        require(all(text[i][j] == text[j][i] for i in range(p) for j in range(i)),
                "matrix: not symmetric")
        m = np.array(text, dtype=float)
        require(bool(np.all((m >= 0.0) & (m <= 1.0))), "matrix: entry outside [0, 1]")

        module_of = {g: k for k, rows in enumerate(members) for g in rows}
        within, unrelated = [], []
        for i in range(p):
            for j in range(i + 1, p):
                same = i in module_of and module_of.get(j) == module_of[i]
                (within if same else unrelated).append(m[i, j])
        typical, ceiling = float(np.median(within)), float(np.quantile(unrelated, 0.99))
        require(typical > ceiling,
                f"matrix: the median planted module pair scores {typical}, not above the "
                f"99th percentile {ceiling} of unrelated pairs")

        values = log2cpm1(load_table(table))
        rng = rng_for(seed, "matrix-check")
        sample = [(int(g), int(g)) for g in rng.choice(p, 2, replace=False)]
        sample += [tuple(rows[:2]) for rows in members]
        while len(sample) < size["checked"]:
            i, j = sorted(int(g) for g in rng.choice(p, 2, replace=False))
            sample.append((i, j))
        for i, j in sample:
            ref = aldg_reference(oracles, values[i], values[j])
            require(abs(m[i, j] - ref) < 0.5 / n,
                    f"matrix: entry ({gene_ids[i]}, {gene_ids[j]}) = {m[i, j]}, oracle {ref}")

    return Plan(groups, digest, check, ops,
                {"table": f"{p} x {n}", "modules": len(members), "cells": cells})


# ---------------------------------------------------------------------------
# test: `depgap test` for every measure, all in one process per round


def perm_test_command(path, measure, perms, seed):
    argv = ["test", str(path), "--measure", measure, "--n-perms", str(perms), "--seed", str(seed)]
    return Command(argv, evals=perms + 1)


def stdout_digest(stdouts):
    return stdouts


def one_op(command, stdout):
    """One call: failed if it exited non-zero or printed no JSON result."""
    if stdout is None:
        return 1, 1
    try:
        parse_json(stdout, command.argv[0])
    except CheckFailed:
        return 1, 1
    return 1, 0


def aldg_tests(work, seed, size, oracles):
    """aLDG tests with the default auto rule: (commands, check).

    The check returns the number of independent inputs the tests rejected.
    """
    rng = rng_for(seed, "aldg-test")
    perms = size["perms"]
    cases = []  # (family, n, path)
    for n in size["ns"]:
        for family in ["independent"] * size["independent"] + ["sine", "quadratic"]:
            path = work / f"aldg-{family}-{n}-{len(cases)}.csv"
            write_pairs(path, *pair_sample(rng, family, n))
            cases.append((family, n, path))
    seeds = [int(s) for s in rng.integers(0, 2**31, len(cases))]
    commands = [perm_test_command(path, "aldg", perms, s) for (_, _, path), s in zip(cases, seeds)]

    def check(stdouts):
        null_rejections = 0
        for (family, n, path), s in zip(cases, stdouts):
            doc = parse_json(s, path.name)
            require(doc["measure"] == "aldg" and doc["n_perms"] == perms, f"{path.name}: {doc}")
            check_p_value(doc["p_value"], perms, path.name)
            k = doc["observed"] * n
            require(0 <= doc["observed"] <= 1 and abs(k - round(k)) < 1e-9,
                    f"{path.name}: aLDG {doc['observed']} is not a multiple of 1/{n}")
            if family == "sine":
                require(doc["p_value"] <= LEVEL, f"{path.name}: aLDG does not reject a sine")
            if family == "independent":
                null_rejections += doc["p_value"] <= LEVEL
        return null_rejections

    return commands, check


def oracle_value(oracles, tag, xs, ys):
    if tag in ("avgcsn", "mean-t"):
        hx, hy = bandwidth(xs), bandwidth(ys)
        if tag == "avgcsn":
            return oracles.avgcsn_brute(xs, ys, hx, hy, 0.01)
        return oracles.mean_t_brute(xs, ys, hx, hy)
    if tag == "mr":
        return oracles.mr_brute(xs, ys, 3)
    name = {"kendall": "kendall_taub_brute"}.get(tag, f"{tag}_brute")
    value = getattr(oracles, name)(xs, ys)
    return abs(value) if tag in SIGNED else value


def competitor_tests(work, seed, size, oracles):
    """Tests of the ten other registry measures: (commands, check).

    The check returns the number of independent inputs the tests rejected.
    """
    rng = rng_for(seed, "competitor-test")
    n, perms = size["n"], size["perms"]
    shared = {"dep": ("sine", n), "tiny": ("linear", size["tiny_n"])}
    paths = {}
    for key, (family, m) in shared.items():
        paths[key] = work / f"comp-{key}.csv"
        write_pairs(paths[key], *pair_sample(rng, family, m))
    cases = []  # (measure, file key, path)
    for tag in MEASURES:
        # Each measure gets its own independent input, so their null tests
        # are independent and the rejection count is binomial.
        own = work / f"comp-ind-{tag}.csv"
        write_pairs(own, *pair_sample(rng, "independent", n))
        cases += [(tag, "ind", own), (tag, "dep", paths["dep"]), (tag, "tiny", paths["tiny"])]
    seeds = [int(s) for s in rng.integers(0, 2**31, len(cases))]
    commands = [perm_test_command(path, tag, perms, s) for (tag, _, path), s in zip(cases, seeds)]
    # mr's oracle enumerates every 3-subset in Python: check the n=10 file and
    # one of the two n=100 files, chosen by the seed.
    mr_checked = {"tiny", str(rng.choice(["ind", "dep"]))}

    def check(stdouts):
        null_rejections = 0
        for (tag, key, path), s in zip(cases, stdouts):
            where = f"{tag} on {path.name}"
            doc = parse_json(s, where)
            require(doc["measure"] == tag and doc["n_perms"] == perms, f"{where}: {doc}")
            check_p_value(doc["p_value"], perms, where)
            observed = doc["observed"]
            if key == "ind":
                null_rejections += doc["p_value"] <= LEVEL
            if tag == "hoeffd" and key != "tiny":
                # The oracle averages over all ordered 5-tuples: n=10 only.
                require(-0.5 <= observed <= 1.0, f"{where}: D = {observed} outside [-0.5, 1]")
                continue
            if tag == "mr" and key not in mr_checked:
                continue
            xs, ys = read_pairs(path)
            ref = oracle_value(oracles, tag, xs, ys)
            require(math.isclose(observed, ref, rel_tol=1e-9, abs_tol=1e-12),
                    f"{where}: observed {observed!r}, oracle {ref!r}")
        return null_rejections

    return commands, check


def null_tests(size):
    """Independent-input tests of one `test` round and the most of them that
    may reject: (tests, bound).

    Every independent input is drawn apart and tested with its own seed, so
    the rejections of a correct program are a sum of independent Bernoulli
    draws, each with the exact level of its add-one p-value. The binomial
    tail at the largest of those levels bounds them.
    """
    aldg, other = size["aldg"], size["competitors"]
    tests = len(aldg["ns"]) * aldg["independent"] + len(MEASURES)
    level = max(exact_level(aldg["perms"]), exact_level(other["perms"]))
    return tests, rejection_bound(tests, level)


def setup_test(work, seed, size, oracles):
    aldg_commands, aldg_check = aldg_tests(work, seed, size["aldg"], oracles)
    other_commands, other_check = competitor_tests(work, seed, size["competitors"], oracles)
    commands = aldg_commands + other_commands
    split = len(aldg_commands)
    nulls, bound = null_tests(size)

    def check(stdouts, digest):
        rejected = aldg_check(stdouts[:split]) + other_check(stdouts[split:])
        require(rejected <= bound,
                f"test: {rejected} of {nulls} independent inputs rejected (bound {bound})")

    return Plan([commands], stdout_digest, check, one_op,
                {"aldg tests": split, "aldg perms": size["aldg"]["perms"],
                 "other tests": len(other_commands), "other perms": size["competitors"]["perms"]})


# ---------------------------------------------------------------------------
# measure-wide: `depgap measure --transform log2cpm1`, one process per call


def setup_measure_wide(work, seed, size, oracles):
    rng = rng_for(seed, "measure-wide")
    counts, gene_ids, members = counts_table(rng, size["genes"], size["cells"], module_size=2)
    table = work / "wide.csv"
    write_table(table, counts, gene_ids)
    # Half the calls score a planted module pair, the rest random genes;
    # no gene appears in two calls.
    pairs = [tuple(rows) for rows in members][: size["calls"] // 2]
    used = {g for pair in pairs for g in pair}
    others = [g for g in rng.permutation(len(gene_ids)).tolist() if g not in used]
    while len(pairs) < size["calls"]:
        pairs.append((others.pop(), others.pop()))
    groups = [
        [Command(["measure", str(table), "--transform", "log2cpm1",
                  "--x-row", gene_ids[i], "--y-row", gene_ids[j]], evals=1)]
        for i, j in pairs
    ]

    def digest(stdouts):
        docs = [parse_json(s, "measure") for s in stdouts]
        return [{k: v for k, v in d.items() if k != "runtime_ms"} for d in docs]

    def check(stdouts, digest):
        values = log2cpm1(load_table(table))
        for (i, j), s in zip(pairs, stdouts):
            where = f"measure {gene_ids[i]} {gene_ids[j]}"
            doc = parse_json(s, where)
            require(doc["measure"] == "aldg" and doc["rule"]["kind"] == "asymptotic-norm",
                    f"{where}: {doc}")
            t_ref = asymptotic_threshold(values[i], values[j])
            require(math.isclose(doc["t_used"], t_ref, rel_tol=1e-12),
                    f"{where}: threshold {doc['t_used']!r}, expected {t_ref!r}")
            ref = aldg_reference(oracles, values[i], values[j])
            require(abs(doc["value"] - ref) < 0.5 / values.shape[1],
                    f"{where}: value {doc['value']!r}, oracle {ref!r}")

    return Plan(groups, digest, check, one_op,
                {"table": f"{counts.shape[0]} x {counts.shape[1]}", "bytes": table.stat().st_size})


SETUPS = {
    "matrix": setup_matrix,
    "test": setup_test,
    "measure-wide": setup_measure_wide,
}
