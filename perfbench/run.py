"""charmat benchmark: seeded workloads, end-to-end metrics and a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload operator-cli --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one summary each

A run writes the workload's seeded inputs and warms up (see :func:`setup`),
then repeats passes for ``--seconds`` as a closed loop: one client, every
invocation a fresh ``python`` child started only after the previous one
ended, BLAS pinned to one thread in each child.  Every output is read back
and checked.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it replays each pass in-process under :mod:`tracer` and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs,
outputs, spans and a full result record (with the machine it ran on) go to
``.perfbench_work/<workload>/``.  README.md next to this file explains the
workloads and metrics.
"""

import os

#: Set before numpy loads BLAS, in this process and in every child.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
API_CHILD = os.path.join(HERE, "api_child.py")

#: A child still running after this many seconds is killed and counted failed.
CHILD_TIMEOUT_S = 120.0
#: Set-up is repeated this often per run; setup_s is the median.
SETUP_REPEATS = 5
#: Fresh ``-X importtime`` children per traced run; import.* take the median.
IMPORT_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "compute_s": "s", "startup_s": "s",
                    "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    """One invocation: its timings, and what went wrong, if anything."""

    label: str
    wall: float
    command: float | None = None
    maxrss_mb: float = 0.0
    problems: list = field(default_factory=list)  # broken or missing outputs
    verdict: list = field(default_factory=list)   # labels the program itself failed

    @property
    def failed(self) -> bool:
        return bool(self.problems or self.verdict)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CHARMAT_LOG")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list, outdir: str) -> tuple:
    """Run one child to completion; return (wall seconds, exit code, max RSS in MB)."""
    with open(os.path.join(outdir, "_stdout.txt"), "wb") as out, \
            open(os.path.join(outdir, "_stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _stderr_tail(outdir: str) -> str:
    try:
        with open(os.path.join(outdir, "_stderr.txt"), encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def judge(inv, outdir: str, code: int, outcome: Outcome) -> Outcome:
    """Read the invocation's report back and fill in its command time and failures."""
    name = "report.json" if inv.kind == "cli" else "api_result.json"
    try:
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"exit {code}, no readable {name}: {exc} {_stderr_tail(outdir)}")
        return outcome
    try:
        if inv.kind == "cli":
            outcome.command = report["wall_time_ms"] / 1000.0
            if report["pass"] is not True:
                outcome.verdict = sorted(k for k, v in report["residuals"].items()
                                         if v > report["tolerances"][k])
            if code != (0 if report["pass"] is True else 1):
                outcome.problems.append(f"exit {code} with pass={report['pass']}")
        else:
            outcome.command = report["command_s"]
            if code != 0:
                outcome.problems.append(f"exit {code}: {_stderr_tail(outdir)}")
    except (KeyError, TypeError) as exc:
        outcome.problems.append(f"malformed {name}: {exc!r}")
        return outcome
    outcome.problems += inv.check(outdir, report)
    return outcome


def child_argv(inv, outdir: str) -> list:
    if inv.kind == "cli":
        return [sys.executable, "-m", "charmat", *inv.args, "--out", outdir]
    return [sys.executable, API_CHILD, inv.args[0], os.path.join(outdir, "api_result.json")]


def run_pass(invocations: list, passdir: str) -> list:
    outcomes = []
    for i, inv in enumerate(invocations):
        outdir = fresh_dir(os.path.join(passdir, f"inv{i}"))
        wall, code, rss = run_child(child_argv(inv, outdir), outdir)
        outcomes.append(judge(inv, outdir, code, Outcome(inv.label, wall, maxrss_mb=rss)))
    return outcomes


def closed_loop(seconds: float, one_pass) -> list:
    """Repeat ``one_pass`` while the next one is expected to end near ``seconds``."""
    results, start, last = [], time.perf_counter(), 0.0
    while not results or time.perf_counter() - start + last / 2.0 < seconds:
        t = time.perf_counter()
        results.append(one_pass())
        last = time.perf_counter() - t
    return results


def _digest(indir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(indir)):
        with open(os.path.join(indir, name), "rb") as fh:
            digest.update(name.encode() + fh.read())
    return digest.hexdigest()


def setup(workload, seed: int, workdir: str) -> tuple:
    """Write the seeded inputs and warm up, ``SETUP_REPEATS`` times.

    The warm-up is one child that imports charmat (compiling the checkout's
    ``.pyc`` files and paging in numpy, scipy and OpenBLAS) plus a read of
    every input file.  Returns (input records, invocations, median seconds).
    """
    indir, warmdir = os.path.join(workdir, "inputs"), os.path.join(workdir, "warmup")
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        fresh_dir(indir)
        start = time.perf_counter()
        records, invocations = workload.build(np.random.default_rng(seed), indir)
        _, code, _ = run_child([sys.executable, "-c", "import charmat"], fresh_dir(warmdir))
        for name in os.listdir(indir):
            with open(os.path.join(indir, name), "rb") as fh:
                fh.read()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"import charmat failed: {_stderr_tail(warmdir)}")
        digests.add(_digest(indir))
    if len(digests) != 1:
        raise RuntimeError(f"seed {seed} did not reproduce the same inputs")
    return records, invocations, statistics.median(times)


def by_invocation(passes: list) -> list:
    """Regroup outcomes per pass into outcomes per invocation, across passes."""
    return [list(column) for column in zip(*passes)]


def untraced_metrics(setup_s: float, passes: list) -> dict:
    """Pass times are sums over invocations of each one's median over passes."""
    columns = by_invocation(passes)
    outcomes = [o for column in columns for o in column]
    timed = [o for o in outcomes if o.command is not None]
    values = {
        "setup_s": setup_s,
        "wall_s": sum(statistics.median(o.wall for o in column) for column in columns),
        "compute_s": sum(statistics.median(o.command or 0.0 for o in column)
                         for column in columns),
        "startup_s": statistics.median(o.wall - o.command for o in timed) if timed else 0.0,
        "peak_rss_mb": max(o.maxrss_mb for o in outcomes),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def import_layer(workdir: str) -> dict:
    """import.* seconds: medians over fresh ``python -X importtime -c 'import charmat'``."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        outdir = fresh_dir(os.path.join(workdir, "import"))
        _, code, _ = run_child([sys.executable, "-X", "importtime", "-c", "import charmat"], outdir)
        if code != 0:
            raise RuntimeError(f"import charmat failed: {_stderr_tail(outdir)}")
        with open(os.path.join(outdir, "_stderr.txt"), encoding="utf-8") as fh:
            samples.append(tracer.import_times(fh.read()))
    return {f"import.{k}_s": v for k, v in tracer.median_totals(samples).items()}


def replay_pass(invocations: list, passdir: str, traced: bool) -> tuple:
    """Replay one pass in-process: CLI calls through ``charmat.cli.main``, API calls
    through ``api_child.run_chain``.  With ``traced`` the charmat wrappers are
    installed; without, only the root span of each invocation is recorded."""
    import api_child
    import charmat.cli

    t = tracer.Tracer()
    walls, codes, outdirs = [], [], []
    with t.installed() if traced else contextlib.nullcontext():
        for i, inv in enumerate(invocations):
            outdir = fresh_dir(os.path.join(passdir, f"inv{i}"))
            operator = np.load(inv.args[0]) if inv.kind == "api" else None
            result = None
            start = time.perf_counter()
            with t.root(inv.kind, label=inv.label), \
                    open(os.path.join(outdir, "_stdout.txt"), "w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out):
                try:
                    if inv.kind == "cli":
                        code = charmat.cli.main([*inv.args, "--out", outdir])
                    else:
                        result, code = api_child.run_chain(operator), 0
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash in charmat fails the invocation, not the run
                    code = f"raised {exc!r}"
            walls.append(time.perf_counter() - start)
            if result is not None:
                result["command_s"] = walls[-1]
                with open(os.path.join(outdir, "api_result.json"), "w", encoding="utf-8") as fh:
                    json.dump(result, fh)
            codes.append(code)
            outdirs.append(outdir)
    outcomes = [judge(inv, d, c, Outcome(inv.label, w))
                for inv, d, c, w in zip(invocations, outdirs, codes, walls)]
    records = t.to_records()
    totals = tracer.layer_totals(records)
    totals["trace.wall_s"] = sum(walls)
    totals["trace.unaccounted_s"] = tracer.unaccounted(records, walls)
    return outcomes, totals, records


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"io.bytes_read": "bytes", "io.bytes_written": "bytes",
            "linalg.factorized_n3": "n3"}.get(name, "count")


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git (None outside a clone)."""
    head = read_text(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[len("ref: "):]
    loose = read_text(os.path.join(ROOT, ".git", ref)).strip()
    if loose:
        return loose
    for line in read_text(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                read_text("/proc/cpuinfo").splitlines() if line.startswith("model name")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "thread_pins": THREAD_PINS,
        "commit": git_commit(),
        "loadavg_before": read_text("/proc/loadavg").split()[:3],
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(WORK, workload.name)
    env = environment()
    start = time.perf_counter()
    records, invocations, setup_s = setup(workload, seed, workdir)
    passdir = os.path.join(workdir, "pass")

    if trace:
        metrics = import_layer(workdir)
        pairs = closed_loop(seconds, lambda: (replay_pass(invocations, passdir, False),
                                              replay_pass(invocations, passdir, True)))
        measured = [outcomes for pair in pairs for outcomes, _, _ in pair]
        layers = tracer.median_totals([totals for _, (_, totals, _) in pairs])
        plain_wall = statistics.median(totals["trace.wall_s"] for (_, totals, _), _ in pairs)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - plain_wall
        metrics.update(layers)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        spans = [r for _, (_, _, records) in pairs for r in records]
        with open(os.path.join(workdir, f"trace-seed{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": seed, "spans": spans}, fh)
        slack = max(abs(layers["trace.overhead_s"]), 1e-3)
        trace_problems = [] if layers["trace.unaccounted_s"] <= slack else [
            f"self times miss {layers['trace.unaccounted_s']:.3e} s of the traced wall"]
    else:
        measured = closed_loop(seconds, lambda: run_pass(invocations, passdir))
        metrics = untraced_metrics(setup_s, measured)
        trace_problems = []

    # An operation is one invocation of the workload, however often the loop
    # repeated it; it failed if any repetition failed.  So the counts depend
    # on the seed alone, not on how many passes fitted into the run.
    columns = by_invocation(measured)
    outcomes = [o for column in columns for o in column]
    problems = trace_problems + [f"{o.label}: {p}" for o in outcomes for p in o.problems]
    verdicts = sorted({f"{o.label}: {v}" for o in outcomes for v in o.verdict})
    env["loadavg_after"] = read_text("/proc/loadavg").split()[:3]
    result = {
        "correct": not problems,
        "attempted": len(columns),
        "failed": sum(any(o.failed for o in column) for column in columns),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "run_s": time.perf_counter() - start, "env": env, "inputs": records,
        "passes": len(measured), "executions": len(outcomes), "problems": problems,
        "failed_verdicts": verdicts,
        "invocations": [vars(o) for o in outcomes], **result,
    }
    with open(os.path.join(workdir, f"result-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_summary(record)
    return result


def print_summary(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"passes={record['passes']} run={record['run_s']:.1f}s")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for rec in record["inputs"]:
        print(f"  input {rec['file']}: n={rec['n']} m={rec['m']} bytes={rec['bytes']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    share = record["failed"] / record["attempted"]
    print(f"  {'failed_share':36s} {share:>16.6g} ({record['failed']}/{record['attempted']} "
          f"invocations, {record['executions']} executions)")
    for line in record["failed_verdicts"] + record["problems"]:
        print(f"  FAILED {line}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "charmat", "__init__.py")):
        print(f"perfbench: no charmat sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.trace:
        sys.path.insert(0, SRC)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
