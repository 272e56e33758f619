#!/usr/bin/env python3
"""pipevuln benchmark: end-to-end CLI timings, output checks and a traced run.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload attack_sim --seed 1 --seconds 40 --trace 0

The workload's spec files are generated from ``--seed`` into
``perfbench/out/``. Each command then runs as a fresh
``python -m pipevuln.cli ...`` process, one at a time (a closed loop with
one client), repeatedly until ``--seconds`` have been spent. Every output
is checked (``checks.py``) and must be byte-identical across repeats and
across runs of the same source tree.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of an in-process run of ``pipevuln.cli.main`` on the same
argv, with spans around every public layer function (``tracer.py``),
alternating untraced and traced passes. The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full record,
with the environment, goes to ``perfbench/out/results-*.json``.

This driver never imports pipevuln when it spawns the timed children, so a
child's peak RSS (``ru_maxrss``, which counts the parent's resident memory
at fork) is the child's own; the driver's RSS is recorded beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import yaml

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Whole-run limit; a command still running at this point is killed and
#: counted as failed.
RUN_LIMIT_S = 165.0
MIN_PASSES = 2
IMPORT_REPS = {"full": 5, "tiny": 2}
REFERENCE_OBJECTS = {"full": 300_000, "tiny": 3_000}
#: Run time of ``reference.py`` on an uncontended host (2-vCPU VM,
#: Python 3.11); end-to-end timings are scaled to this host speed.
REFERENCE_S = 0.8

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "sim_items_per_s": "1/s",
    "paths_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "specio.self_s": "s", "specio.spec_bytes": "bytes",
    "model.build_graph_s": "s", "model.topological_order.calls": "count",
    "model.topological_order_s": "s",
    "ranking.enumerate_paths.calls": "count", "ranking.enumerate_paths_s": "s",
    "ranking.paths": "count", "ranking.rank_self_s": "s", "ranking.us_per_path": "us",
    "propagation.propagate.calls": "count", "propagation.propagate_self_s": "s",
    "propagation.cost.calls": "count", "propagation.amplify_self_s": "s",
    "simulate.runs": "count", "simulate.self_s": "s", "simulate.host_us_per_item": "us",
    "simulate.items_created": "count", "simulate.items_processed": "count",
    "simulate.items_dropped": "count", "simulate.useful_ratio": "ratio",
    "simulate.sim_s": "sim-s", "trace.overhead_s": "s",
}
EXACT_METRICS = ("cli.out_bytes", "specio.spec_bytes") + tracer.COUNT_METRICS


class Run:
    """Book-keeping of one benchmark run: failures, outputs, deadline."""

    def __init__(self, workload: workloads.Workload, rundir: Path):
        self.wl = workload
        self.rundir = rundir
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}  # command name -> sha256 of output
        self.checked: dict[str, checks.Checked] = {}

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def record(self, command: workloads.Command, code: int, text: str) -> None:
        """Count one execution; check its output (first time) or its digest."""
        self.attempted += 1
        if code != 0:
            self.fail(f"{command.name}: exit {code}")
            return
        digest = hashlib.sha256(text.encode()).hexdigest()
        if command.name not in self.digests:
            self.digests[command.name] = digest
            spec = command.argv[1]
            result = checks.check(command.kind, text, self.wl.specs[spec],
                                  self.wl.expected_paths[spec])
            self.checked[command.name] = result
            if result.errors:
                self.fail("; ".join(result.errors[:5]))
        elif self.digests[command.name] != digest:
            self.fail(f"{command.name}: output differs from the first pass")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PIPEVULN_PATH_CAP"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cwd: Path, timeout: float, out_path: Path):
    """Run one child to completion; return (wall s, peak RSS MB, exit code).

    ``os.wait4`` gives this child's own resource usage. A timer kills the
    child after ``timeout`` seconds; the exit code is then -9.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env())
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(command: workloads.Command) -> list[str]:
    return [sys.executable, "-m", "pipevuln.cli", *command.argv]


def run_command(run: Run, command: workloads.Command, tag: str):
    out_path = run.rundir / f"{command.name.replace('/', '_')}.{tag}.out"
    wall, rss, code = spawn(cli_argv(command), run.rundir, run.remaining(), out_path)
    run.record(command, code, out_path.read_text(encoding="utf-8", errors="replace"))
    return wall, rss


def reference_time(run: Run) -> float:
    """Wall time of one ``reference.py`` process (the host-speed probe)."""
    wall, _, code = spawn(
        [sys.executable, str(HERE / "reference.py"),
         str(REFERENCE_OBJECTS[run.wl.size])],
        run.rundir, run.remaining(), run.rundir / "reference.out")
    if code != 0:
        run.fail(f"reference.py: exit {code}")
    return wall


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Run the workload's commands until ``seconds`` are spent.

    The host is shared: neighbours slow every process by up to 2x, in
    bursts of a second and in stretches of minutes. So ``reference.py``, a
    fixed pipevuln-independent workload, runs right before every command,
    and the command's wall time is scaled by ``REFERENCE_S`` over that
    reference time: seconds at the reference host speed. A command's
    figure is the median of its scaled samples. ``setup_s`` is the median
    of fresh ``validate`` runs of the workload spec, taken (and scaled)
    with the first and the middle command.

    Each step runs the command with the fewest samples (list order breaks
    ties) among those that have fewer than ``MIN_PASSES`` samples or are
    expected to end within ``seconds``. Raw samples go to the results file.
    """
    setup = workloads.Command("setup/validate", ("validate", run.wl.setup_spec),
                              "validate")
    setup_before = {run.wl.commands[0].name,
                    run.wl.commands[len(run.wl.commands) // 2].name}
    setup_s: list[float] = []
    samples: dict[str, list[tuple[float, float, float]]] = {
        c.name: [] for c in run.wl.commands}  # (wall, peak RSS, reference) per run
    measure_start = time.perf_counter()

    def expected_end(command: workloads.Command) -> float:
        wall, _, reference = samples[command.name][-1]
        return time.perf_counter() - measure_start + reference + wall

    while True:
        pool = [c for c in run.wl.commands if len(samples[c.name]) < MIN_PASSES] or [
            c for c in run.wl.commands if expected_end(c) <= seconds]
        if not pool:
            break
        command = min(pool, key=lambda c: len(samples[c.name]))
        if samples[command.name] and expected_end(command) > run.remaining():
            break
        reference = reference_time(run)
        if command.name in setup_before:
            wall = run_command(run, setup, f"setup{len(setup_s)}")[0]
            setup_s.append(wall * REFERENCE_S / reference)
        wall, rss = run_command(run, command, str(len(samples[command.name])))
        samples[command.name].append((wall, rss, reference))

    median_s = {name: statistics.median(wall * REFERENCE_S / reference
                                        for wall, _, reference in runs)
                for name, runs in samples.items()}
    sims = [c.name for c in run.wl.commands if c.kind in ("simulate", "matrix")]
    ranks = [c.name for c in run.wl.commands if c.kind == "rank"]
    items = sum(run.checked[n].items for n in sims if n in run.checked)
    paths = sum(run.checked[n].paths for n in ranks if n in run.checked)
    metrics = {
        "wall_s": sum(median_s.values()),
        "setup_s": statistics.median(setup_s),
        "sim_items_per_s": items / sum(median_s[n] for n in sims),
        "paths_per_s": paths / sum(median_s[n] for n in ranks),
        "peak_rss_mb": max(rss for runs in samples.values() for _, rss, _ in runs),
    }
    detail = {name: {"raw_s": [wall for wall, _, _ in runs],
                     "reference_s": [reference for _, _, reference in runs],
                     "peak_rss_mb": max(rss for _, rss, _ in runs)}
              for name, runs in samples.items()}
    return metrics, {"commands": detail, "setup_scaled_s": setup_s,
                     "items_created": items, "paths_ranked": paths}


# ---------------------------------------------------------------------------
# Traced in-process run
# ---------------------------------------------------------------------------


def import_seconds(run: Run) -> float:
    """Median ``import pipevuln`` time beyond a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPS[run.wl.size]):
        for code, into in (("pass", bare), ("import pipevuln", full)):
            out = run.rundir / f"import.{len(into)}.out"
            wall, _, status = spawn([sys.executable, "-c", code], run.rundir,
                                    run.remaining(), out)
            if status != 0:
                run.fail(f"python -c {code!r}: exit code {status}")
            into.append(wall)
    return statistics.median(full) - statistics.median(bare)


def in_process_pass(run: Run, cli) -> tuple[float, int]:
    """Call ``cli.main`` once per command; return (seconds, stdout bytes).

    ``main`` is looked up on the module at each call, so a traced pass
    calls the wrapper.
    """
    elapsed, out_bytes = 0.0, 0
    for command in run.wl.commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = cli.main(list(command.argv))
            except Exception as exc:  # a crash is a failed command, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            elapsed += time.perf_counter() - start
        text = stdout.getvalue()
        out_bytes += len(text.encode())
        run.record(command, code, text)
    return elapsed, out_bytes


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    import_s = import_seconds(run)
    sys.path.insert(0, str(SRC))
    os.environ.pop("PIPEVULN_PATH_CAP", None)
    import pipevuln
    if not Path(pipevuln.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"pipevuln imported from {pipevuln.__file__}, not {SRC}")

    cli = importlib.import_module("pipevuln.cli")
    untraced, traced, layer_runs, fired = [], [], [], None
    os.chdir(run.rundir)  # the commands name their spec files relative to it
    measure_start = time.perf_counter()
    while True:
        # Untraced and traced passes alternate in ABBA order, so drift within
        # the run does not bias the overhead estimate.
        if len(traced) % 2 == 0:
            untraced.append(in_process_pass(run, cli)[0])
        trace = tracer.Tracer()
        with trace.patched():
            seconds_traced, out_bytes = in_process_pass(run, cli)
        traced.append(seconds_traced)
        if len(traced) % 2 == 0:
            untraced.append(in_process_pass(run, cli)[0])
        metrics = trace.layer_metrics()
        metrics["cli.out_bytes"] = out_bytes
        layer_runs.append(metrics)
        fired = trace.fired()
        elapsed = time.perf_counter() - measure_start
        pair_s = elapsed / len(traced)
        if len(traced) >= MIN_PASSES and elapsed + pair_s > seconds:
            break
        if pair_s > run.remaining():
            break

    for name in sorted(tracer.MUST_FIRE[run.wl.name]):
        if not fired[name]:
            run.fail(f"tracer: {name} never fired (wrapper missing or call moved)")
    metrics = {name: statistics.median(m[name] for m in layer_runs)
               for name in layer_runs[0]}
    for name in EXACT_METRICS:
        if name in layer_runs[0] and len({m[name] for m in layer_runs}) != 1:
            run.fail(f"count {name} differs across passes: "
                     f"{[m[name] for m in layer_runs]}")
        if name in metrics:
            metrics[name] = layer_runs[0][name]
    metrics["cli.import_s"] = import_s
    metrics["specio.spec_bytes"] = sum(
        (run.rundir / c.argv[1]).stat().st_size for c in run.wl.commands)
    # Contention only adds time, so the fastest passes are compared.
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    return metrics, {"passes": len(traced), "fired": dict(sorted(fired.items())),
                     "untraced_s": untraced, "traced_s": traced,
                     "unwrapped": tracer.UNWRAPPED}


# ---------------------------------------------------------------------------
# Environment, ledger, entry point
# ---------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pipevuln").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "pyyaml": yaml.__version__,
        "pyyaml_libyaml": bool(yaml.__with_libyaml__),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def check_ledger(run: Run, key: str, facts: dict) -> None:
    """Compare outputs and counts with earlier runs of the same source tree.

    The ledger lives in ``perfbench/out/ledger``, keyed by workload, size,
    seed and a digest of ``src/pipevuln``; a fact recorded by an earlier run
    must repeat exactly. Only runs without failures add facts.
    """
    path = OUT / "ledger" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    for name, value in facts.items():
        if name in known and known[name] != value:
            run.fail(f"{name} differs from an earlier run of the same source: "
                     f"{known[name]!r} != {value!r}")
        if not run.failed:
            known.setdefault(name, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny shrinks every input (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "pipevuln" / "cli.py").is_file():
        print(f"error: no pipevuln sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, args.size)
    rundir = OUT / f"run-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    rundir.mkdir(parents=True, exist_ok=True)
    for stale in rundir.iterdir():
        stale.unlink()
    for name, doc in wl.specs.items():
        (rundir / name).write_text(yaml.safe_dump(doc, sort_keys=False))

    run = Run(wl, rundir)
    # Untimed warm-up: compiles bytecode caches and fills the file cache.
    spawn([sys.executable, "-c", "import pipevuln"], rundir, run.remaining(),
          rundir / "warmup.out")
    if args.trace:
        metrics, detail = per_layer(run, args.seconds)
        units = PER_LAYER_UNITS
        facts = {f"count:{n}": metrics[n] for n in EXACT_METRICS if n in metrics}
    else:
        metrics, detail = end_to_end(run, args.seconds)
        units = END_TO_END_UNITS
        facts = {}
    facts.update({f"output:{n}": d for n, d in run.digests.items()
                  if not n.startswith("setup/")})
    env = environment(args.seed)
    check_ledger(run, f"{args.workload}-{args.size}-seed{args.seed}-"
                 f"{env['source_sha256'][:16]}", facts)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, size=args.size, trace=args.trace,
                  seconds=args.seconds, environment=env, errors=run.errors,
                  detail=detail, output_sha256=run.digests,
                  driver_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    (OUT / f"results-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    for message in run.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
