"""Tiny-size self-check of run.py and its traced run.

    python3 -m pytest perfbench

Runs a handful of one-shot CLI ops and a 20-algebra sweep, untraced and
traced, through the same code the full benchmark uses.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (imports qlogic from ./src)


def _tiny_cli_ops(workdir: Path) -> list:
    from qlogic import catalog

    ops = []
    for alg in (workloads.STATE_ALGEBRAS[0], workloads.STATE_ALGEBRAS[3]):
        path = workdir / f"{len(ops)}.json"
        workloads.write_json(path, catalog.build_spec(alg.spec).to_json_dict())
        ops.append(workloads.Op(f"states {alg.spec}", "states", str(path), (), alg))
        ops.append(
            workloads.Op(f"hidden {alg.spec}", "hidden", str(path), (), alg)
        )
    base = catalog.boolean_powerset(5).to_json_dict()
    rng = random.Random(0)
    for invalid in workloads.INVALID:
        path = workdir / f"invalid-{invalid[0]}.json"
        workloads.write_json(path, workloads.corrupt(base, invalid[0], rng))
        ops.append(
            workloads.Op(f"validate {invalid[0]}", "validate", str(path), (), None, invalid)
        )
    return ops


def test_traced_cli_run_reports_every_layer(tmp_path):
    ops = _tiny_cli_ops(tmp_path)
    bench_run = run.Run("cli_states", 0, tmp_path, trace=True)
    golden = workloads.load_golden()
    run.measure(ops, 0, random.Random(0), lambda op: bench_run.execute(op, golden))
    values = run.metrics(bench_run, ops, 0.0, {})
    assert set(values) == set(run.PER_LAYER)
    assert bench_run.failed == 0 and bench_run.attempted == 2 * len(ops)
    v = {name: m["value"] for name, m in values.items()}
    # states on both algebras; hidden enumerates only on boolean_powerset(2)
    assert v["states.enumerate_calls"] == 3
    assert v["states.vertices"] == 2 + 2 + 4
    assert v["algebra.load_calls"] == len(ops)
    assert v["states.enumerate_s"] > 0 and v["cli.import_s"] > 0 and v["cli.self_s"] > 0
    assert v["mv.states_checked"] > 0  # hidden passes on boolean_powerset(2)
    assert v["states_s"] > 0 and v["hidden_s"] > 0 and v["validate_s"] > 0


def test_wrong_output_counts_as_failed(tmp_path):
    ops = _tiny_cli_ops(tmp_path)[:1]
    golden = workloads.load_golden()
    key = ops[0].golden_key
    tampered = {**golden, "cli": {**golden["cli"], key: {**golden["cli"][key], "exit": 1}}}
    bench_run = run.Run("cli_states", 0, tmp_path, trace=False)
    run.measure(ops, 0, random.Random(0), lambda op: bench_run.execute(op, tampered))
    assert (bench_run.attempted, bench_run.failed) == (1, 1)


def test_tiny_sweep_untraced_and_traced(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_COUNT", 20)
    setup = run.Setup("lib_sweep", 5, trace=True)
    units = setup.generate(tmp_path)
    setup_s, setup_layers = setup.median_s(), setup.median_layers()
    assert setup_s > 0 and setup_layers["fuzz.generate_s"] > 0
    bench_run = run.Run("lib_sweep", 5, tmp_path, trace=True)
    golden = workloads.load_golden()
    run.measure(units, 0, random.Random(5), lambda u: bench_run.execute(u, golden))
    assert (bench_run.attempted, bench_run.failed) == (40, 0)
    v = {k: m["value"] for k, m in run.metrics(bench_run, units, setup_s, setup_layers).items()}
    assert v["algebra.load_calls"] == 20 and v["states.enumerate_calls"] == 20
    assert v["algebras_per_s"] > 0 and v["cli.self_s"] == 0
    assert v["fuzz.generate_s"] > 0


def test_end_to_end_metrics_are_all_positive(tmp_path):
    ops = _tiny_cli_ops(tmp_path)[:2]
    bench_run = run.Run("cli_states", 0, tmp_path, trace=False)
    golden = workloads.load_golden()
    run.measure(ops, 0, random.Random(0), lambda op: bench_run.execute(op, golden))
    values = run.metrics(bench_run, ops, 0.01, {})
    assert set(values) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in values.values())


def test_scaling_to_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scale(2.0, [ref, ref]) == pytest.approx(2.0)
    # references that ran 1.5x slow mean the part ran on a 1.5x slow CPU
    assert speed.scale(3.0, [1.5 * ref, 1.5 * ref]) == pytest.approx(2.0)
    assert speed.reference() > 0


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_states",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("kind,_,error_class", workloads.INVALID)
def test_corruptions_hit_the_intended_check(kind, _, error_class):
    from qlogic import algebra, catalog

    base = catalog.boolean_powerset(5).to_json_dict()
    for seed in range(20):
        doc = workloads.corrupt(base, kind, random.Random(seed))
        with pytest.raises(algebra.AlgebraError) as info:
            algebra.from_json_dict(doc)
        assert type(info.value).__name__ == error_class
