"""Layered benchmark of the qlogic CLI and library sweeps.

    python3 perfbench/run.py --workload cli_states --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; qlogic is imported from ./src.
Workloads (see README.md for why each exists and what it should show):

  cli_states     states / clone-search --all / hidden on carriers n <= 32
  cli_structure  validate / analyze / clone-search --all on 33 <= n <= 64,
                 plus validate / analyze on boolean_powerset(5) and on three
                 seeded invalid tables
  lib_sweep      one process checking SWEEP_COUNT seeded fuzz algebras

Every CLI op is a fresh `python -m qlogic.cli ... --format json` child and
every sweep pass a fresh `python perfbench/sweep.py` child. qlogic memoises
derive_order, atoms, incompatible_pairs and is_boolean in module-level
lru_caches keyed on the table; a timed unit that reused a process would
time cache hits, and calling cache_clear() would tie the bench to caches
that are due to be removed. Fresh processes avoid both.

The ops run one at a time (a closed loop with one client) in passes, in an
order shuffled by the seed, until --seconds have elapsed; the first pass
always completes. A CLI op is one timed part; a sweep pass has one part per
algebra plus one for the rest of the process (interpreter start, import,
reading the tables). Every part's wall time is scaled to reference speed
(speed.py) by the reference runs taken around and during it on its CPU, as
the host's CPU speed swings by up to ~40% within seconds and drifts for
minutes. A pass-level time is the sum over parts of each part's median
scaled time in the run. With --trace 0 the end-to-end metrics are printed;
with --trace 1 each op runs untraced and then traced (perfbench/launch.py
wraps the layer functions) and the per-layer metrics are printed. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import sweep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"

WORKLOADS = ("cli_states", "cli_structure", "lib_sweep")
COMMANDS = ("validate", "analyze", "clone-search", "states", "hidden")
# Set-up runs SETUP_REPEATS times before the ops and once more after each
# timed unit, so that its samples span the run's changes in CPU speed as the
# op samples do; one set-up of the catalog inputs takes only ~5 ms.
SETUP_REPEATS = 7
# The slowest op takes about 3.5 s on a 2-core x86 box; anything near this
# limit is a hang and counts as a failed op.
OP_TIMEOUT_S = 60.0
# How often the speed reference runs while a CLI op runs: the host's speed
# changes within a second or two, and analyze ops take up to ~3 s.
SAMPLE_EVERY_S = 0.1

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "states.enumerate_s": "s",
    "states.enumerate_calls": "count",
    "states.vertices": "count",
    "states.separation_s": "s",
    "algebra.load_s": "s",
    "algebra.load_calls": "count",
    "algebra.report_s": "s",
    "cloning.search_s": "s",
    "cloning.nodes": "count",
    "cloning.witnesses": "count",
    "cloning.witness_ratio": "ratio",
    "cloning.lemmas_s": "s",
    "mv.decompose_s": "s",
    "mv.construct_s": "s",
    "mv.verify_s": "s",
    "mv.states_checked": "count",
    "reports.digest_s": "s",
    "reports.emit_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "catalog.build_s": "s",
    "fuzz.generate_s": "s",
    "trace.overhead_s": "s",
    "validate_s": "s",
    "analyze_s": "s",
    "clone_search_s": "s",
    "states_s": "s",
    "hidden_s": "s",
    "algebras_per_s": "1/s",
    "failed_ratio": "ratio",
}


class Run:
    """Samples and failure counts of one benchmark run."""

    def __init__(self, workload: str, seed: int, workdir: Path, trace: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        # part id -> wall times at reference speed, untraced and traced
        self.plain: dict[str, list[float]] = {}
        self.traced: dict[str, list[float]] = {}
        self.layers: dict[str, list[dict]] = {}  # unit id -> layer totals
        self.attempted = 0
        self.failed = 0
        self.sweep_digest: str | None = None

    def fail(self, unit: str, why: str, count: int = 1) -> None:
        self.failed += count
        print(f"perfbench: {unit}: {why}", file=sys.stderr)

    def spawn(self, argv: list[str], sample: bool):
        """Run a child to its end; return (wall, exit code, stdout, reference
        times), or None when it does not exit within OP_TIMEOUT_S.

        The child runs at nice 19 on the run's CPU, so the reference taken
        before and after it (and, with `sample`, every SAMPLE_EVERY_S while
        it runs) preempts it at once. Those mid-run references are taken out
        of its wall time.
        """
        out_path = self.workdir / "stdout.txt"
        with open(out_path, "w+", encoding="utf-8") as out:
            refs = [speed.reference()]
            during = 0.0
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                stdout=out,
                stderr=subprocess.DEVNULL,
                env=self.env,
                cwd=self.workdir,
                preexec_fn=lambda: os.nice(19),
            )
            try:
                while True:
                    try:
                        proc.wait(timeout=SAMPLE_EVERY_S if sample else OP_TIMEOUT_S)
                        break
                    except subprocess.TimeoutExpired:
                        if time.perf_counter() - start > OP_TIMEOUT_S:
                            return None
                        ref = speed.reference()
                        refs.append(ref)
                        during += ref
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start - during
            refs.append(speed.reference())
            out.seek(0)
            return wall, proc.returncode, out.read(), refs

    def execute(self, unit, golden: dict) -> None:
        for traced in (False, True) if self.trace else (False,):
            spans_path = self.workdir / "spans.json"
            if self.workload == "lib_sweep":
                self._sweep(unit, golden, traced, spans_path)
            else:
                self._cli(unit, golden, traced, spans_path)

    def _record(
        self, unit_id: str, wall: float, parts: dict, traced: bool, spans_path: Path
    ) -> None:
        """Keep the scaled times of a unit's parts, given as part id -> (wall,
        scaled); for a traced unit also its layer totals, scaled alike."""
        samples = self.traced if traced else self.plain
        for part_id, (_, scaled) in parts.items():
            samples.setdefault(part_id, []).append(scaled)
        if not traced:
            return
        import tracing

        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        totals = tracing.layer_totals(spans)
        if self.workload != "lib_sweep":
            totals["cli.self_s"] = wall - tracing.top_level_time(spans)
        factor = sum(s for _, s in parts.values()) / sum(w for w, _ in parts.values())
        for key in totals:
            if key.endswith("_s"):
                totals[key] *= factor
        self.layers.setdefault(unit_id, []).append(totals)

    def _cli(self, op, golden, traced, spans_path) -> None:
        import workloads

        if traced:
            argv = [sys.executable, str(BENCH / "launch.py"), str(spans_path), op.id]
        else:
            argv = [sys.executable, "-m", "qlogic.cli"]
        # A traced op is not sampled while it runs: the references would
        # land inside its spans.
        done = self.spawn(argv + op.argv(), sample=not traced)
        self.attempted += 1
        if done is None:
            self.fail(op.id, f"no exit within {OP_TIMEOUT_S} s")
            return
        wall, code, stdout, refs = done
        why = workloads.check_cli(op, code, stdout, golden)
        if why is not None:
            self.fail(op.id, why)
            return
        parts = {op.id: (wall, speed.scale(wall, refs))}
        self._record(op.id, wall, parts, traced, spans_path)

    def _sweep(self, unit, golden, traced, spans_path) -> None:
        import workloads

        out = self.workdir / "sweep-out.json"
        argv = [sys.executable, str(BENCH / "sweep.py"), str(unit.path), str(out)]
        if traced:
            argv.append(str(spans_path))
        # No references from here while it runs: they would land inside the
        # algebras' own timings. The sweep takes its own between algebras.
        done = self.spawn(argv, sample=False)
        count = workloads.SWEEP_COUNT
        self.attempted += count
        if done is None or done[1] != 0:
            self.fail("sweep", "pass crashed or timed out", count)
            return
        wall, _, _, refs = done
        report = json.loads(out.read_text(encoding="utf-8"))
        want = golden["sweep"].get(str(self.seed), self.sweep_digest)
        if report["algebras"] != count or (want and report["digest"] != want):
            self.fail("sweep", "outcome digest differs", count)
            return
        self.sweep_digest = report["digest"]
        for why in report["failures"]:
            self.fail("sweep", why)
        # Each algebra is scaled by the references before and after its
        # chunk; the rest of the process by those the parent took around it.
        times, inner, chunk = report["times"], report["refs"], sweep.CHUNK
        parts = {
            f"sweep {i}": (t, speed.scale(t, inner[i // chunk : i // chunk + 2]))
            for i, t in enumerate(times)
        }
        rest = wall - sum(times) - sum(inner)
        parts["sweep process"] = (rest, speed.scale(rest, refs))
        self._record(unit.id, wall, parts, traced, spans_path)


class SweepUnit:
    id = "sweep"

    def __init__(self, path: Path):
        self.path = path


class Setup:
    """Generates a workload's inputs from the seed and times every generation,
    scaled to reference speed."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.walls: list[float] = []
        self.layer_runs: list[dict] = []

    def generate(self, workdir: Path) -> list:
        """Write the inputs into workdir; return the units that use them."""
        import tracing
        import workloads

        tracer = tracing.Tracer("setup") if self.trace else None
        before = speed.reference()
        start = time.perf_counter()
        if self.workload == "lib_sweep":
            tables = workdir / "fuzz.jsonl"
            workloads.write_sweep_tables(self.seed, tables, tracer)
            units = [SweepUnit(tables)]
        else:
            units = workloads.cli_ops(self.workload, self.seed, workdir, tracer)
        wall = time.perf_counter() - start
        factor = speed.scale(1.0, [before, speed.reference()])
        self.walls.append(wall * factor)
        if tracer is not None:
            totals = tracing.layer_totals(tracer.spans)
            for key in totals:
                if key.endswith("_s"):
                    totals[key] *= factor
            self.layer_runs.append(totals)
        return units

    def median_s(self) -> float:
        return statistics.median(self.walls)

    def median_layers(self) -> dict:
        return _median_dict(self.layer_runs)


def measure(units, seconds: float, rng: random.Random, execute) -> int:
    """Run units in passes until `seconds` have elapsed; return the passes completed.

    The first pass always completes. After it, the loop stops before a unit
    whose previous duration would carry it past the deadline.
    """
    deadline = time.perf_counter() + seconds
    last: dict[str, float] = {}
    order = list(units)
    passes = 0
    while True:
        for unit in order:
            now = time.perf_counter()
            if passes and now + last[unit.id] > deadline:
                return passes
            execute(unit)
            last[unit.id] = time.perf_counter() - now
        passes += 1
        rng.shuffle(order)


def _median_dict(rows: list[dict]) -> dict:
    keys = {k for row in rows for k in row}
    return {k: statistics.median(row.get(k, 0) for row in rows) for k in keys}


def _pass_total(samples: dict[str, list[float]], ids=None) -> float:
    """One pass's time: the sum over parts of each part's median scaled time."""
    return sum(
        statistics.median(walls)
        for part_id, walls in samples.items()
        if ids is None or part_id in ids
    )


def metrics(run: Run, units, setup_s: float, setup_layers: dict) -> dict:
    if not run.trace:
        values = {
            "wall_s": _pass_total(run.plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units_of = END_TO_END
    else:
        values = {name: 0 for name in PER_LAYER}
        layer = {}
        for rows in run.layers.values():
            for key, value in _median_dict(rows).items():
                layer[key] = layer.get(key, 0) + value
        for key, value in {**layer, **setup_layers}.items():
            if key in values:
                values[key] = value
        nodes = values["cloning.nodes"]
        values["cloning.witness_ratio"] = values["cloning.witnesses"] / nodes if nodes else 0
        values["trace.overhead_s"] = _pass_total(run.traced) - _pass_total(run.plain)
        for command in COMMANDS:
            ids = {u.id for u in units if getattr(u, "command", None) == command}
            values[command.replace("-", "_") + "_s"] = _pass_total(run.plain, ids)
        if run.workload == "lib_sweep" and run.plain:
            import workloads

            values["algebras_per_s"] = workloads.SWEEP_COUNT / _pass_total(run.plain)
        values["failed_ratio"] = run.failed / run.attempted
        units_of = PER_LAYER
    return {name: {"value": values[name], "unit": unit} for name, unit in units_of.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    import workloads

    golden = workloads.load_golden()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT))
    try:
        setup = Setup(workload, seed, trace)
        units = setup.generate(workdir)
        spare = workdir / "setup-repeats"  # repeats never touch the live inputs
        spare.mkdir()
        for _ in range(SETUP_REPEATS - 1):
            setup.generate(spare)
        run = Run(workload, seed, workdir, trace)

        def step(unit) -> None:
            run.execute(unit, golden)
            setup.generate(spare)

        passes = measure(units, seconds, random.Random(seed), step)
        print(f"perfbench: {workload}: {passes} passes", file=sys.stderr)
        result_metrics = metrics(run, units, setup.median_s(), setup.median_layers())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result_metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qlogic" / "__init__.py").is_file():
        print(f"perfbench: no qlogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    speed.pin_to_one_cpu()
    # On SIGTERM unwind normally: Run.spawn kills and reaps the running
    # child, and bench() removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
