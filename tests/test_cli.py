"""Command-line interface: one path per command, exit codes, report schema."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlogic
from qlogic import catalog
from qlogic.cli import EXIT_ABORTED, EXIT_BAD_INPUT, EXIT_FAIL, EXIT_OK, main
from qlogic.reports import REPORT_SCHEMA


@pytest.fixture
def bp2_file(tmp_path):
    path = tmp_path / "bp2.json"
    path.write_text(catalog.boolean_powerset(2).to_json() + "\n")
    return str(path)


@pytest.fixture
def mo2_file(tmp_path):
    path = tmp_path / "mo2.json"
    path.write_text(catalog.mo(2).to_json() + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def last_json(out):
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    return doc


def test_validate_ok(capsys, bp2_file):
    code, out = run(capsys, "validate", bp2_file, "--format", "json")
    assert code == EXIT_OK
    assert last_json(out)["results"] == {"valid": True}


def test_validate_axiom_failure(capsys, tmp_path):
    # two distinct supplements for a
    bad = {
        "elements": ["0", "a", "b", "c", "1"],
        "zero": "0",
        "unit": "1",
        "sums": [["0", x, x] for x in ["0", "a", "b", "c", "1"]]
        + [["a", "b", "1"], ["b", "a", "1"], ["a", "c", "1"], ["c", "a", "1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "validate", str(path), "--format", "json")
    assert code == EXIT_FAIL
    doc = last_json(out)
    assert doc["results"]["valid"] is False
    assert "Supplement" in doc["results"]["violation"]


def test_validate_malformed_input(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, out = run(capsys, "validate", str(path), "--format", "json")
    assert code == EXIT_BAD_INPUT


def test_validate_unknown_key_rejected(capsys, tmp_path, bp2_file):
    doc = json.loads(open(bp2_file).read())
    doc["plot"] = True
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "validate", str(path), "--format", "json")
    assert code == EXIT_BAD_INPUT


def test_analyze(capsys, mo2_file):
    code, out = run(capsys, "analyze", mo2_file, "--format", "json")
    assert code == EXIT_OK
    results = last_json(out)["results"]
    assert results["is_orthoalgebra"] is True
    assert results["is_boolean"] is False


def test_clone_search_witness(capsys, bp2_file):
    code, out = run(capsys, "clone-search", bp2_file, "--format", "json", "--all")
    assert code == EXIT_OK
    results = last_json(out)["results"]
    assert results["status"] == "witness-found"
    assert len(results["witnesses"]) == 1
    assert results["witness_symmetric"] == [True]
    assert results["lemma_checks"][0]["orthogonality_passed"] is True
    assert results["lemma_checks"][0]["idempotence_passed"] is True
    assert results["state_space_separating"] is True


def test_clone_search_no_witness(capsys, mo2_file):
    code, out = run(capsys, "clone-search", mo2_file, "--format", "json")
    assert code == EXIT_FAIL
    assert last_json(out)["results"]["status"] == "no-witness"


def test_clone_search_budget_abort(capsys, tmp_path):
    path = tmp_path / "bp4.json"
    path.write_text(catalog.boolean_powerset(4).to_json())
    code, out = run(
        capsys, "clone-search", str(path), "--format", "json", "--budget", "5"
    )
    assert code == EXIT_ABORTED
    assert last_json(out)["results"]["status"] == "aborted"


def test_states(capsys, bp2_file):
    code, out = run(capsys, "states", bp2_file, "--format", "json")
    assert code == EXIT_OK
    results = last_json(out)["results"]
    assert results["vertex_count"] == 2
    assert results["separating"] is True
    assert results["merged_pairs"] == []


def test_hidden(capsys, bp2_file):
    code, out = run(capsys, "hidden", bp2_file, "--format", "json", "--seed", "42")
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["seed"] == 42
    assert doc["results"]["hypothesis_met"] is True
    assert doc["results"]["verification"]["passed"] is True


def test_hidden_with_explicit_parts(capsys, bp2_file):
    code, out = run(
        capsys, "hidden", bp2_file, "--format", "json", "--parts", "{1},{2}"
    )
    assert code == EXIT_OK
    assert sorted(last_json(out)["results"]["model"]["decomposition"]) == [
        "{1}",
        "{2}",
    ]


def test_hidden_hypothesis_unmet(capsys, mo2_file):
    code, out = run(capsys, "hidden", mo2_file, "--format", "json")
    assert code == EXIT_FAIL
    results = last_json(out)["results"]
    assert results["hypothesis_met"] is False
    assert "witness" in results["reason"]


def test_catalog_stdout_round_trip(capsys):
    code, out = run(capsys, "catalog", "mo(2)")
    assert code == EXIT_OK
    assert json.loads(out)["elements"] == list(catalog.mo(2).labels)


def test_catalog_output_file(capsys, tmp_path):
    target = tmp_path / "chain3.json"
    code, out = run(
        capsys, "catalog", "chain(3)", "-o", str(target), "--format", "json"
    )
    assert code == EXIT_OK
    assert last_json(out)["results"]["written"] == str(target)
    assert json.loads(target.read_text())["unit"] == "1"


def test_catalog_bad_spec(capsys):
    code, _ = run(capsys, "catalog", "mystery(9)", "--format", "json")
    assert code == EXIT_BAD_INPUT


def run_process(*argv):
    """The CLI in a fresh interpreter, so an uncaught error prints a traceback."""
    src = str(Path(qlogic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qlogic.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


@pytest.mark.parametrize("sums", [[5], [[["x"], "0", "1"]]])
def test_validate_malformed_sum_entry(tmp_path, sums):
    path = tmp_path / "bad.json"
    doc = {"elements": ["0", "1"], "zero": "0", "unit": "1", "sums": sums}
    path.write_text(json.dumps(doc))
    proc = run_process("validate", str(path), "--format", "json")
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stdout + proc.stderr
    assert last_json(proc.stdout)["results"]["valid"] is False


def test_catalog_deeply_nested_spec():
    proc = run_process("catalog", "product(" * 1200, "--format", "json")
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "nests deeper" in last_json(proc.stdout)["results"]["error"]


def test_catalog_unwritable_output(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_process("catalog", "chain(2)", "-o", str(target), "--format", "json")
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "cannot write" in last_json(proc.stdout)["results"]["error"]


def _bad_input_file(tmp_path, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    elif kind == "huge-integer":
        path.write_text("1" * 5000)
    elif kind == "deep-nesting":
        path.write_text("[" * 100000 + "]" * 100000)
    return str(path)


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize(
    "kind", ["missing", "directory", "not-utf8", "huge-integer", "deep-nesting"]
)
def test_bad_input_file_exits_2(tmp_path, command, kind):
    proc = run_process(command, _bad_input_file(tmp_path, kind), "--format", "json")
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "error" in last_json(proc.stdout)["results"]


report_validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)
labels = st.sampled_from(["0", "a", "b", "1"])
# the four keys, with values drawn from anything or from near-valid shapes
algebra_documents = st.fixed_dictionaries(
    {
        "elements": json_values | st.lists(labels, max_size=5),
        "zero": json_values | labels,
        "unit": json_values | labels,
        "sums": json_values
        | st.lists(st.lists(labels | json_values, min_size=2, max_size=4), max_size=8),
    }
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    content=(json_values | algebra_documents).map(lambda doc: json.dumps(doc).encode())
    | st.binary(max_size=16),
    command=st.sampled_from(["validate", "analyze"]),
)
def test_exit_code_contract_on_arbitrary_input(content, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as handle:
            handle.write(content)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, path, "--format", "json"])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_BAD_INPUT)
    report_validator.validate(json.loads(out.getvalue()))


def test_text_format_renders(capsys, bp2_file):
    code, out = run(capsys, "validate", bp2_file)
    assert code == EXIT_OK
    assert "valid: true" in out


def test_golden_states_report(capsys, tmp_path):
    path = tmp_path / "chain2.json"
    path.write_text(catalog.chain(2).to_json())
    _, first = run(capsys, "states", str(path), "--format", "json")
    _, second = run(capsys, "states", str(path), "--format", "json")
    assert first == second
    results = json.loads(first)["results"]
    assert results["vertices"] == [{"0": "0/1", "1/2": "1/2", "1": "1/1"}]
