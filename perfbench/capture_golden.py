"""Rewrite perfbench/golden.json from the qlogic sources in ./src.

    python3 perfbench/capture_golden.py

Records, for every valid-input CLI op of cli_states and cli_structure, the
exit code and a SHA-256 of its `results` object (the report header, which
carries the input digest and version, is left out), and the lib_sweep
outcome digest for the development and held-out seeds. Run it only on a
commit whose outputs are known to be right; the bench compares every later
commit against these copies.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 7


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    env = {"PYTHONPATH": str(run.SRC)}
    golden = {"cli": {}, "sweep": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        for workload in ("cli_states", "cli_structure"):
            for op in workloads.cli_ops(workload, DEVELOPMENT_SEED, workdir):
                if op.algebra is None:
                    continue
                proc = subprocess.run(
                    [sys.executable, "-m", "qlogic.cli", *op.argv()],
                    capture_output=True,
                    text=True,
                    env=env,
                    check=False,
                )
                results = json.loads(proc.stdout)["results"]
                golden["cli"][op.golden_key] = {
                    "exit": proc.returncode,
                    "results_sha256": workloads.results_digest(results),
                }
                print(op.golden_key, proc.returncode, file=sys.stderr)
        for seed in (DEVELOPMENT_SEED, HELD_OUT_SEED):
            tables, out = workdir / "fuzz.jsonl", workdir / "out.json"
            workloads.write_sweep_tables(seed, tables)
            subprocess.run(
                [sys.executable, str(run.BENCH / "sweep.py"), str(tables), str(out)],
                env=env,
                check=True,
            )
            report = json.loads(out.read_text(encoding="utf-8"))
            if report["failures"]:
                raise SystemExit(f"seed {seed}: {report['failures'][:3]}")
            golden["sweep"][str(seed)] = report["digest"]
    golden["cli"] = dict(sorted(golden["cli"].items()))
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
