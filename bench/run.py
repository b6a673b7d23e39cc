"""depgap benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout: the program under test is the checkout's
own src/depgap, and the output checks use its tests/oracles.py. The run
writes its inputs and outputs under .bench_out/ and removes them at the end.

--trace 0 runs whole rounds of the workload's CLI commands, each command
group in a fresh interpreter, until S seconds of rounds have passed, and
checks every output. The inputs are set up in timed blocks of repeats:
one before the first round, and after the command processes for a fixed
share of their wall time; setup_s is the median block's time per set-up.
--trace 1 runs one such round
for the process-level figures, then runs the same commands in this process
three times: untraced, traced and untraced again; the traced round gives
the per-layer metrics and its difference from the untraced rounds the
tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A missing src/ or tests/oracles.py exits 2.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import SETUPS, SIZES, CheckFailed  # noqa: E402
SRC = ROOT / "src"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
WORKLOADS = ("matrix", "test", "measure-wide")
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s
# A set-up of a few milliseconds is shorter than the swings in CPU speed of
# a shared host, so it is timed in blocks of repeats lasting this long.
SETUP_BLOCK_S = 1.0
# Set-up blocks run between the command processes for this share of their
# wall time, so they sample the host's speed over the run as the rounds do.
SETUP_SHARE = 0.2


class RunError(Exception):
    """The benchmark cannot produce a result."""


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("depgap_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Runner:
    """Runs a plan's command groups, in fresh processes or in this one."""

    def __init__(self, work, started):
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "DEPGAP_SEED"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.peak_rss_kib = 0

    def subprocess_round(self, groups, between=None):
        """One round, one fresh interpreter per group; `between(wall)` is
        called once each process has ended.

        Returns each command's stdout (None if it failed) and the round's
        process figures: wall times, import times, minor faults, CPU seconds.
        """
        stdouts, imports, walls = [], [], []
        faults = cpu = 0.0
        for index, group in enumerate(groups):
            jobs = self.work / f"jobs-{index}.json"
            results = self.work / f"results-{index}.json"
            jobs.write_text(json.dumps([c.argv for c in group]), encoding="utf-8")
            results.unlink(missing_ok=True)
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            with open(self.work / "stderr.txt", "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, str(LAUNCH), str(jobs), str(results)],
                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=err)
                try:
                    proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise RunError(f"{group[0].argv[0]} did not finish in time") from None
                proc_wall = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            self.peak_rss_kib = max(self.peak_rss_kib, after.ru_maxrss)
            faults += after.ru_minflt - before.ru_minflt
            cpu += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            walls.append(proc_wall)
            if between is not None:
                between(proc_wall)
            if not results.exists():
                detail = (self.work / "stderr.txt").read_text(errors="replace")[-2000:]
                raise RunError(f"launcher exited {proc.returncode} without results:\n{detail}")
            doc = json.loads(results.read_text(encoding="utf-8"))
            imports.append(doc["import_s"])
            stdouts += [c["stdout"] if c["rc"] == 0 else None for c in doc["calls"]]
        return stdouts, {"wall": sum(walls), "walls": walls, "imports": imports,
                         "faults": faults, "cpu": cpu}

    def inprocess_round(self, groups):
        """One round in this process: each command's stdout (None if it
        failed) and the round's wall time."""
        import depgap.cli  # noqa: F401 - the module is looked up by name below

        main = sys.modules["depgap.cli"].main
        stdouts = []
        t0 = time.perf_counter()
        for group in groups:
            for command in group:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = main(list(command.argv))
                stdouts.append(out.getvalue() if rc == 0 else None)
        return stdouts, time.perf_counter() - t0


def setup_block(setup):
    """Repeat `setup` for at least SETUP_BLOCK_S: (its last result, seconds per call)."""
    calls = 0
    t0 = time.perf_counter()
    while not calls or elapsed < SETUP_BLOCK_S:
        plan = setup()
        calls += 1
        elapsed = time.perf_counter() - t0
    return plan, elapsed / calls


def count_ops(plan, commands, stdouts):
    attempted = failed = 0
    for command, stdout in zip(commands, stdouts):
        a, f = plan.ops(command, stdout)
        attempted += a
        failed += f
    return attempted, failed


def median(values):
    return statistics.median(values)


def digest(plan, stdouts):
    """The round's digest, or None if a command failed or its output is unusable."""
    if None in stdouts:
        return None
    try:
        return plan.digest(stdouts)
    except (CheckFailed, OSError):
        return None


def run_untraced(setup, runner, seconds):
    plan, per_setup = setup_block(setup)
    setup_times = [per_setup]
    owed = 0.0  # set-up seconds still due

    def set_up_between(wall):
        # It rewrites the same inputs, which the next process reads.
        nonlocal owed
        owed += SETUP_SHARE * wall
        while owed > 0.0:
            t0 = time.perf_counter()
            setup_times.append(setup_block(setup)[1])
            owed -= time.perf_counter() - t0

    groups = plan.groups
    commands = [c for group in groups for c in group]
    rounds = []
    timed = 0.0
    while not rounds or timed < seconds:
        stdouts, proc = runner.subprocess_round(groups, set_up_between)
        timed += proc["wall"]
        rounds.append((stdouts, proc, digest(plan, stdouts)))
    attempted = failed = 0
    for stdouts, _, _ in rounds:
        a, f = count_ops(plan, commands, stdouts)
        attempted += a
        failed += f
    # Throughput of the single-threaded processes, start to exit.
    serial = [all(c.serial for c in group) for group in groups]
    evals = sum(c.evals for group, s in zip(groups, serial) if s for c in group)
    serial_rate = [evals / sum(w for w, s in zip(proc["walls"], serial) if s)
                   for _, proc, _ in rounds]
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median([proc["wall"] for _, proc, _ in rounds]), "s"),
        "peak_rss_mib": (runner.peak_rss_kib / 1024.0, "MiB"),
        "evals_per_s": (median(serial_rate), "1/s"),
        "call_s_p50": (median([w for _, proc, _ in rounds for w in proc["walls"]]), "s"),
    }
    return plan, rounds, attempted, failed, metrics


def run_traced(plan, runner):
    from tracing import Tracer

    groups = plan.groups
    commands = [c for group in groups for c in group]
    stdouts, proc = runner.subprocess_round(groups)
    rounds = [(stdouts, proc, digest(plan, stdouts))]
    attempted, failed = count_ops(plan, commands, stdouts)

    sys.path.insert(0, str(SRC))
    os.environ.pop("DEPGAP_SEED", None)
    untraced = []
    tracer = Tracer()
    traced_wall = None
    for traced in (False, True, False):
        if traced:
            for name in tracer.install():
                print(f"bench: {name} not found; its layer metrics read 0", file=sys.stderr)
        try:
            stdouts, wall = runner.inprocess_round(groups)
        finally:
            tracer.uninstall()
        if traced:
            traced_wall = wall
        else:
            untraced.append(wall)
        a, f = count_ops(plan, commands, stdouts)
        attempted += a
        failed += f
        rounds.append((stdouts, None, digest(plan, stdouts)))

    base = statistics.fmean(untraced)
    metrics = {
        "proc.import_s": (median(proc["imports"]), "s"),
        "proc.minor_faults": (proc["faults"], "count"),
        "proc.cpu_s": (proc["cpu"], "s"),
    }
    metrics.update(tracer.layers(threading.main_thread().ident))
    metrics["trace.overhead_s"] = (traced_wall - base, "s")
    metrics["trace.overhead_share"] = (traced_wall / base - 1.0, "ratio")
    return rounds, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: every workload and check in seconds")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "depgap" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"bench: no depgap checkout at {ROOT} (need src/depgap and tests/oracles.py)",
              file=sys.stderr)
        return 2
    oracles = load_oracles()
    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        def setup():
            return SETUPS[args.workload](work, args.seed, size, oracles)

        runner = Runner(work, started)
        if args.trace:
            plan = setup()
            rounds, attempted, failed, metrics = run_traced(plan, runner)
        else:
            plan, rounds, attempted, failed, metrics = run_untraced(setup, runner, args.seconds)

        correct, reason = True, "all checks passed"
        try:
            digests = [d for _, _, d in rounds]
            if None in digests:
                raise CheckFailed("a command failed or printed no usable result")
            if any(d != digests[0] for d in digests):
                raise CheckFailed("outputs differ between rounds")
            plan.check(rounds[0][0], digests[0])
        # The checks read the program's output: one it cannot parse fails them.
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            correct, reason = False, f"CHECK FAILED: {exc!r}"
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy
    import scipy

    print(f"depgap benchmark  workload={args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''} rounds={len(rounds)} nproc={os.cpu_count()}"
          f" python={platform.python_version()} numpy={numpy.__version__}"
          f" scipy={scipy.__version__}")
    print(f"  inputs: {json.dumps(plan.notes)}")
    print(f"  attempted {attempted}, failed {failed}; {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
