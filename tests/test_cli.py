"""Command-line interface: one path per command, exit codes, report schema."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlogic
from qlogic import catalog, cli, mv, reports
from qlogic.cli import EXIT_ABORTED, EXIT_BAD_INPUT, EXIT_FAIL, EXIT_OK, main
from qlogic.reports import MAX_INPUT_BYTES, REPORT_SCHEMA, render_text
from corpus import complete_quadrilateral, grid, stateless_pasting


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
    doc = json.loads(Path(bp2_file).read_text())
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


def test_hidden_budget_abort(capsys, bp2_file):
    code, out = run(capsys, "hidden", bp2_file, "--budget", "0", "--format", "json")
    assert code == EXIT_ABORTED
    assert last_json(out)["results"] == {"error": "cloning search aborted"}


@pytest.mark.parametrize("budget", ["-1", "abc"])
@pytest.mark.parametrize("command", ["clone-search", "hidden"])
def test_budget_not_a_node_count_exits_2(capsys, bp2_file, command, budget):
    with pytest.raises(SystemExit) as exit_info:
        main([command, bp2_file, "--budget", budget, "--format", "json"])
    assert exit_info.value.code == EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --budget: invalid budget value: '{budget}'" in err


def test_states(capsys, bp2_file):
    code, out = run(capsys, "states", bp2_file, "--format", "json")
    assert code == EXIT_OK
    results = last_json(out)["results"]
    assert results["vertex_count"] == 2
    assert results["separating"] is True
    assert results["merged_pairs"] == []


@pytest.fixture
def quadrilateral_file(tmp_path):
    # 3 vertex states that do not separate its 14 elements
    path = tmp_path / "quadrilateral.json"
    path.write_text(complete_quadrilateral().to_json())
    return str(path)


@pytest.fixture
def stateless_file(tmp_path, monkeypatch):
    # 44 elements and no states; the cap is raised so that they are enumerated
    monkeypatch.setattr(cli, "MAX_STATE_CARRIER", 64)
    path = tmp_path / "grid34.json"
    path.write_text(grid(3, 4).to_json())
    return str(path)


def test_clone_search_without_separating_states(capsys, quadrilateral_file):
    code, out = run(capsys, "clone-search", quadrilateral_file, "--format", "json")
    assert code == EXIT_FAIL
    results = last_json(out)["results"]
    assert results["status"] == "no-witness"
    assert results["state_space_separating"] is False
    assert "not separating" in results["interpretation"]


def test_states_not_separating(capsys, quadrilateral_file):
    code, out = run(capsys, "states", quadrilateral_file, "--format", "json")
    assert code == EXIT_OK
    results = last_json(out)["results"]
    assert results["vertex_count"] == 3
    assert results["separating"] is False
    assert results["merged_pairs"]


def test_states_empty_state_space(capsys, stateless_file):
    code, out = run(capsys, "states", stateless_file, "--format", "json")
    assert code == EXIT_FAIL
    results = last_json(out)["results"]
    assert results == {
        "empty_state_space": True,
        "detail": "the additivity constraints are inconsistent",
    }


def test_clone_search_without_states(capsys, stateless_file):
    code, out = run(capsys, "clone-search", stateless_file, "--format", "json")
    assert code == EXIT_FAIL
    results = last_json(out)["results"]
    assert results["state_space_separating"] is False
    assert "interpretation" in results


def test_hidden(capsys, bp2_file):
    code, out = run(capsys, "hidden", bp2_file, "--format", "json")
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["results"]["hypothesis_met"] is True
    assert doc["results"]["verification"]["passed"] is True
    # the mixture weights' seed is not an option: linearity fixes the verdict
    with pytest.raises(SystemExit) as exit_info:
        main(["hidden", bp2_file, "--seed", "42"])
    assert exit_info.value.code == EXIT_BAD_INPUT
    assert "unrecognized arguments: --seed 42" in capsys.readouterr().err


def test_hidden_with_explicit_parts(capsys, bp2_file):
    code, out = run(
        capsys, "hidden", bp2_file, "--format", "json", "--parts", "{1},{2}"
    )
    assert code == EXIT_OK
    assert sorted(last_json(out)["results"]["model"]["decomposition"]) == [
        "{1}",
        "{2}",
    ]


@pytest.fixture
def p11_file(tmp_path):
    path = tmp_path / "p11.json"
    path.write_text(
        catalog.product(catalog.boolean_powerset(1), catalog.boolean_powerset(1)).to_json()
    )
    return str(path)


def test_hidden_parts_with_commas_in_labels(capsys, p11_file):
    # product labels contain commas inside their parentheses and braces
    code, out = run(
        capsys, "hidden", p11_file, "--format", "json", "--parts", "({1},{}),({},{1})"
    )
    assert code == EXIT_OK
    assert last_json(out)["results"]["model"]["decomposition"] == ["({1},{})", "({},{1})"]


def test_hidden_unknown_part_label(capsys, p11_file):
    code, out = run(
        capsys, "hidden", p11_file, "--format", "json", "--parts", "({1},{}),({},{2})"
    )
    assert code == EXIT_BAD_INPUT
    assert last_json(out)["results"]["error"] == "unknown element label '({},{2})'"


def test_hidden_empty_parts_is_an_unknown_label(capsys, bp2_file):
    code, out = run(capsys, "hidden", bp2_file, "--format", "json", "--parts", "")
    assert code == EXIT_BAD_INPUT
    assert last_json(out)["results"]["error"] == "unknown element label ''"


def test_hidden_hypothesis_unmet(capsys, mo2_file):
    code, out = run(capsys, "hidden", mo2_file, "--format", "json")
    assert code == EXIT_FAIL
    results = last_json(out)["results"]
    assert results["hypothesis_met"] is False
    assert "witness" in results["reason"]


@pytest.mark.parametrize(
    "build, boolean",
    # the Boolean carriers of the bench's state workload, then two
    # pastings with no states at all, which have no witness either
    [(partial(catalog.boolean_powerset, k), True) for k in (2, 3, 4)]
    + [(partial(grid, 3, 4), False), (stateless_pasting, False)],
    ids=["bp2", "bp3", "bp4", "grid34", "stateless58"],
)
def test_hidden_hypothesis_met_exactly_on_boolean_carriers(
    capsys, tmp_path, build, boolean
):
    path = tmp_path / "alg.json"
    path.write_text(build().to_json())
    code, out = run(capsys, "hidden", str(path), "--format", "json")
    results = last_json(out)["results"]
    if boolean:
        assert code == EXIT_OK
        assert results["hypothesis_met"] is True
        assert results["verification"]["passed"] is True
    else:
        assert code == EXIT_FAIL
        assert results == {
            "hypothesis_met": False,
            "reason": "no cloning witness exists",
        }


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


@pytest.mark.parametrize(
    "spec, error",
    [
        pytest.param(
            "chain(\u00b2)", "unknown catalog constructor '\u00b2'",
            id="digit-int-cannot-read",
        ),
        pytest.param(
            "chain(" + "9" * 5000 + ")", "catalog argument with 5000 digits",
            id="past-int-digit-limit",
        ),
        pytest.param(
            "boolean_powerset(" + "9" * 4000 + ")",
            "boolean_powerset has at least 2^64 elements (cap 64)",
            id="huge-powerset-argument",
        ),
        # d + 1 has 4,301 digits, past Python's limit on printing an int
        pytest.param(
            "chain(" + "9" * 4300 + ")",
            "chain has at least 2^14284 elements (cap 64)",
            id="size-past-int-print-limit",
        ),
        pytest.param(
            "horizontal_sum(chain(2),2)", "horizontal_sum takes algebras",
            id="integer-for-algebra",
        ),
        pytest.param(
            "product(2,3)", "product takes algebras", id="integers-for-algebras"
        ),
        pytest.param(
            "chain(chain(2))", "chain takes integers", id="algebra-for-integer"
        ),
        pytest.param(
            "chain()", "chain takes 1 argument(s), got 0", id="too-few-arguments"
        ),
        pytest.param(
            "chain(1,2)", "chain takes 1 argument(s), got 2", id="too-many-arguments"
        ),
        pytest.param(
            "wright_triangle(3)", "wright_triangle takes 0 argument(s), got 1",
            id="argument-to-constant",
        ),
        pytest.param("mo()", "mo takes 1 argument(s), got 0", id="empty-argument-list"),
        pytest.param("mo(2", "catalog spec ended early", id="ends-after-argument"),
        pytest.param("mo(", "catalog spec ended early", id="ends-after-paren"),
        pytest.param("", "catalog spec ended early", id="empty-spec"),
        pytest.param(
            "mo(2,,3)", "cannot read catalog spec at ',3)'", id="empty-argument"
        ),
        pytest.param(
            "product(chain(2)", "catalog spec ended early", id="ends-inside-nested-call"
        ),
        pytest.param(
            "chain(-1)", "cannot read catalog spec at '-1)'", id="negative-argument"
        ),
        pytest.param(
            "product(chain(2) chain(2))",
            "expected ',' or ')' in catalog spec at 'chain(2))'",
            id="missing-comma",
        ),
        pytest.param(
            "mo(2,)", "cannot read catalog spec at ')'", id="trailing-comma"
        ),
    ],
)
def test_catalog_spec_with_bad_arguments(capsys, spec, error):
    code, out = run(capsys, "catalog", spec, "--format", "json")
    assert code == EXIT_BAD_INPUT
    assert error in last_json(out)["results"]["error"]


def cli_env():
    """The environment with this qlogic first on PYTHONPATH."""
    src = str(Path(qlogic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_process(*argv, stdout=subprocess.PIPE, stdin_text=None):
    """The CLI in a fresh interpreter, so an uncaught error prints a traceback."""
    return subprocess.run(
        [sys.executable, "-m", "qlogic.cli", *argv],
        input=stdin_text,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=cli_env(),
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


def test_validate_reads_piped_input():
    text = catalog.boolean_powerset(2).to_json() + "\n"
    proc = run_process("validate", "/dev/stdin", "--format", "json", stdin_text=text)
    assert proc.returncode == EXIT_OK
    doc = last_json(proc.stdout)
    assert doc["results"] == {"valid": True}
    assert doc["input_digest"] == hashlib.sha256(text.encode()).hexdigest()


def test_input_digest_is_the_file_digest(bp2_file):
    proc = run_process("validate", bp2_file, "--format", "json")
    assert proc.returncode == EXIT_OK
    expected = hashlib.sha256(Path(bp2_file).read_bytes()).hexdigest()
    assert last_json(proc.stdout)["input_digest"] == expected
    assert reports.digest_file(bp2_file)[0] == expected


@pytest.mark.parametrize("size", [0, 1, MAX_INPUT_BYTES, MAX_INPUT_BYTES + 1])
def test_digest_file_is_hashlib_sha256(tmp_path, size):
    data = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
    path = tmp_path / "input"
    path.write_bytes(data)
    if size > MAX_INPUT_BYTES:
        with pytest.raises(ValueError, match="larger than"):
            reports.digest_file(str(path))
    else:
        assert reports.digest_file(str(path)) == (hashlib.sha256(data).hexdigest(), data)


def test_digest_file_falls_back_to_hashlib(bp2_file):
    """With the built-in SHA-256 modules blocked, hashlib computes the digest."""
    src = str(Path(qlogic.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from qlogic.reports import digest_file\n"
        "digest, data = digest_file(sys.argv[1])\n"
        "loaded = 'hashlib' in sys.modules\n"
        "import hashlib\n"
        "print(loaded, digest == hashlib.sha256(data).hexdigest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, bp2_file],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


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


def test_closed_stdout_exits_quietly(bp2_file):
    # the read end is closed before the child starts, so its first write
    # to stdout fails with a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process("hidden", bp2_file, "--format", "json", stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (EXIT_OK, EXIT_FAIL, EXIT_BAD_INPUT, EXIT_ABORTED)


@pytest.fixture
def bp2_cubed_file(tmp_path):
    # a Boolean carrier whose clone-search --all report is about 456 KB,
    # many batches and several times a pipe's 64 KiB buffer
    spec = "product(boolean_powerset(2),boolean_powerset(2),boolean_powerset(2))"
    path = tmp_path / "bp2_cubed.json"
    path.write_text(catalog.build_spec(spec).to_json() + "\n")
    return str(path)


class RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_json_report_is_written_in_batches():
    rows = [[i, str(i)] for i in range(800)]
    doc = reports.make_report("states", results={"rows": rows})
    pieces = len(list(json.JSONEncoder(indent=2).iterencode(doc)))
    assert pieces > 2 * reports.EMIT_BATCH
    out = RecordingStream()
    reports.emit(doc, "json", out)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
    # one write per batch of pieces, then the newline
    assert len(out.writes) == -(-pieces // reports.EMIT_BATCH) + 1


def test_streamed_cli_report_is_the_indented_dump(capsys, bp2_cubed_file):
    code, out = run(capsys, "clone-search", bp2_cubed_file, "--all", "--format", "json")
    assert code == EXIT_OK
    assert len(out) > 400_000
    assert out == json.dumps(last_json(out), indent=2) + "\n"


def test_reader_closing_mid_report_exits_quietly(bp2_cubed_file):
    # the reader takes the first 4 KB and closes the pipe, so a later write
    # of the report fails with a broken pipe
    argv = ["clone-search", bp2_cubed_file, "--all", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, "-m", "qlogic.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    ) as proc:
        head = proc.stdout.read(4096)
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head.startswith(b'{\n  "command": "clone-search"')
    assert stderr == b""
    assert code == EXIT_OK


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
    elif kind == "utf8-bom":
        # a valid document behind a byte-order mark, which json refuses
        document = catalog.boolean_powerset(2).to_json().encode()
        path.write_bytes(b"\xef\xbb\xbf" + document)
    return str(path)


FILE_COMMANDS = ["validate", "analyze", "clone-search", "states", "hidden"]


@pytest.mark.parametrize("command", FILE_COMMANDS)
@pytest.mark.parametrize(
    "kind",
    ["missing", "directory", "not-utf8", "huge-integer", "deep-nesting", "utf8-bom"],
)
def test_bad_input_file_exits_2(tmp_path, command, kind):
    proc = run_process(command, _bad_input_file(tmp_path, kind), "--format", "json")
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stdout + proc.stderr
    error = last_json(proc.stdout)["results"]["error"]
    if kind == "utf8-bom":  # json.loads's own message
        assert error == (
            "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)"
        )


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_repeated_key_exits_2(capsys, tmp_path, command):
    # json keeps the last "sums", where another reader of the digested bytes
    # may keep the first
    path = tmp_path / "repeated.json"
    path.write_text(
        '{"elements": ["0", "1"], "zero": "0", "unit": "1", '
        '"sums": [["0", "0", "0"], ["0", "1", "1"]], "sums": []}'
    )
    code, out = run(capsys, command, str(path), "--format", "json")
    assert code == EXIT_BAD_INPUT
    error = last_json(out)["results"]["error"]
    assert error == "duplicate key 'sums' in algebra document"


def test_endless_input_exits_2():
    proc = run_process("validate", "/dev/zero", "--format", "json")
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stdout + proc.stderr
    doc = last_json(proc.stdout)
    assert doc["input_digest"] is None
    assert "larger than" in doc["results"]["error"]


@pytest.mark.parametrize("extra, code", [(0, EXIT_OK), (1, EXIT_BAD_INPUT)])
def test_input_byte_cap(tmp_path, extra, code):
    # a valid document padded with trailing whitespace to the cap, or past it
    text = catalog.boolean_powerset(2).to_json().encode()
    path = tmp_path / "padded.json"
    path.write_bytes(text.ljust(MAX_INPUT_BYTES + extra))
    proc = run_process("validate", str(path), "--format", "json")
    assert proc.returncode == code
    assert "Traceback" not in proc.stdout + proc.stderr
    assert (last_json(proc.stdout)["input_digest"] is None) == bool(extra)


@pytest.mark.parametrize("command, spec", [("states", "product(mo(2),mo(2))")])
def test_state_enumeration_cap_exits_3(tmp_path, command, spec):
    path = tmp_path / "big.json"
    path.write_text(catalog.build_spec(spec).to_json())
    proc = run_process(command, str(path), "--format", "json")
    assert proc.returncode == EXIT_ABORTED
    assert "Traceback" not in proc.stdout + proc.stderr
    error = last_json(proc.stdout)["results"]["error"]
    assert error.startswith("vertex enumeration supports carriers up to 32")


@pytest.mark.parametrize(
    "spec, parts, code, key, text",
    [
        # 36 elements, not Boolean: no witness
        ("product(mo(2),mo(2))", None, EXIT_FAIL, "reason", "no cloning witness exists"),
        # 64 elements, Boolean: a bad label
        (
            "product(boolean_powerset(1),boolean_powerset(5))",
            "nolabel",
            EXIT_BAD_INPUT,
            "error",
            "unknown element label 'nolabel'",
        ),
        # 64 elements, Boolean: the zero does not sum to the unit, so the
        # construction fails after the states are enumerated
        (
            "product(boolean_powerset(1),boolean_powerset(5))",
            "({},{})",
            EXIT_FAIL,
            "reason",
            "decomposition does not sum to the unit",
        ),
    ],
    ids=["mo2squared-no-witness", "bp1xbp5-bad-label", "bp1xbp5-no-unit"],
)
def test_hidden_refusals_on_large_carriers(tmp_path, spec, parts, code, key, text):
    path = tmp_path / "big.json"
    path.write_text(catalog.build_spec(spec).to_json())
    argv = ["hidden", str(path), "--format", "json"]
    if parts is not None:
        argv += ["--parts", parts]
    proc = run_process(*argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stdout + proc.stderr
    results = last_json(proc.stdout)["results"]
    assert results[key] == text
    assert "model" not in results


@pytest.mark.parametrize(
    "spec",
    [
        "boolean_powerset(6)",
        "product(boolean_powerset(1),boolean_powerset(5))",
        "product(boolean_powerset(2),boolean_powerset(2),boolean_powerset(2))",
    ],
    ids=["bp6", "bp1xbp5", "bp2cubed"],
)
def test_hidden_on_64_element_boolean_carriers(capsys, tmp_path, spec):
    # above MAX_STATE_CARRIER, but Boolean: the vertex states are the 6 atoms
    path = tmp_path / "big.json"
    path.write_text(catalog.build_spec(spec).to_json())
    code, out = run(capsys, "hidden", str(path), "--format", "json")
    assert code == EXIT_OK
    verification = last_json(out)["results"]["verification"]
    assert verification["passed"] is True
    assert verification["states_checked"] == 6


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


# catalog algebras with n <= 16
small_specs = st.sampled_from(
    [
        "boolean_powerset(2)",
        "boolean_powerset(4)",
        "chain(3)",
        "mo(3)",
        "wright_triangle()",
        "product(chain(2),chain(2))",
        "horizontal_sum(boolean_powerset(2),chain(3))",
    ]
)
# mutations the loader must reject as malformed (exit 2), and mutations that
# break an axiom of a well-formed document (never exit 2)
STRUCTURAL = [
    "unknown-label",
    "duplicate-label",
    "missing-key",
    "extra-key",
    "non-string-element",
    "non-string-sum-label",
    "zero-is-unit",
]
AXIOM_LEVEL = ["drop-entry", "conflicting-orientation"]


def mutate(doc: dict, kind: str, i: int) -> None:
    """Apply one mutation of the given kind; i picks the entry it touches."""
    elements, sums = doc["elements"], doc["sums"]
    k = i % len(sums)
    if kind == "unknown-label":
        sums[k][i % 3] = "no such label"
    elif kind == "duplicate-label":
        elements.append(elements[i % len(elements)])
    elif kind == "missing-key":
        del doc[sorted(doc)[i % 4]]
    elif kind == "extra-key":
        doc["comment"] = "an extra key"
    elif kind == "non-string-element":
        elements[i % len(elements)] = i
    elif kind == "non-string-sum-label":
        sums[k][i % 3] = [sums[k][i % 3]]
    elif kind == "zero-is-unit":
        doc["unit"] = doc["zero"]
    elif kind == "drop-entry":
        del sums[k]
    elif kind == "conflicting-orientation":
        a, b, c = sums[k]
        sums.append([b, a, next(x for x in elements if x != c)])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    spec=small_specs,
    kind=st.sampled_from(STRUCTURAL + AXIOM_LEVEL),
    i=st.integers(min_value=0, max_value=10**6),
)
def test_exit_2_exactly_when_malformed(spec, kind, i):
    doc = catalog.build_spec(spec).to_json_dict()
    mutate(doc, kind, i)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for command in FILE_COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, path, "--format", "json"])
            report_validator.validate(json.loads(out.getvalue()))
            if kind in STRUCTURAL:
                assert code == EXIT_BAD_INPUT, (command, kind)
            else:
                assert code in (EXIT_OK, EXIT_FAIL, EXIT_ABORTED), (command, kind)


constructor_names = st.sampled_from(sorted(catalog._CONSTRUCTORS))
numbers = st.sampled_from(["0", "1", "2", "3", "5", "12", "99"])
junk = st.text(max_size=2)
# token soup with junk, and well-formed constructor calls nested over numbers
catalog_specs = st.lists(
    constructor_names | numbers | st.sampled_from(["(", ")", ","]) | junk, max_size=12
).map("".join) | st.recursive(
    numbers,
    lambda args: st.builds(
        lambda name, inner: f"{name}({','.join(inner)})",
        constructor_names,
        st.lists(args, max_size=3),
    ),
    max_leaves=6,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spec=catalog_specs)
def test_catalog_exit_code_contract(spec):
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            target = os.path.join(tmp, "a.json")
            code = main(["catalog", "-o", target, "--format", "json", "--", spec])
    assert code in (EXIT_OK, EXIT_BAD_INPUT)
    report_validator.validate(json.loads(out.getvalue()))


bp2_labels = st.sampled_from(["{}", "{1}", "{2}", "{1,2}"])
# label lists, and token soup with brackets and junk
parts_strings = st.lists(bp2_labels, min_size=1, max_size=4).map(",".join) | st.lists(
    bp2_labels | st.sampled_from([",", "(", ")", "{", "}", "[", "]"]) | junk,
    min_size=1,
    max_size=6,
).map("".join)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(parts=parts_strings)
def test_hidden_parts_exit_code_contract(parts):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bp2.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(catalog.boolean_powerset(2).to_json())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["hidden", path, "--parts", parts, "--format", "json"])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_BAD_INPUT)
    report_validator.validate(json.loads(out.getvalue()))


def test_text_format_renders(capsys, bp2_file):
    code, out = run(capsys, "validate", bp2_file)
    assert code == EXIT_OK
    assert "valid: true" in out


def test_render_text_lists():
    doc = {
        "rows": [{"a": 1, "b": None}, {"a": True}],
        "labels": ["x", "y"],
        "pairs": [["p", "q"], []],
        "empty": [],
        "nothing": {},
    }
    assert render_text(doc) == "\n".join(
        [
            "rows:",
            "  -",
            "    a: 1",
            "    b: none",
            "  -",
            "    a: true",
            "labels:",
            "  - x",
            "  - y",
            "pairs:",
            "  -",
            "    - p",
            "    - q",
            "  - []",
            "empty: []",
            "nothing: {}",
        ]
    )


def test_golden_states_report(capsys, tmp_path):
    path = tmp_path / "chain2.json"
    path.write_text(catalog.chain(2).to_json())
    _, first = run(capsys, "states", str(path), "--format", "json")
    _, second = run(capsys, "states", str(path), "--format", "json")
    assert first == second
    results = json.loads(first)["results"]
    assert results["vertices"] == [{"0": "0/1", "1/2": "1/2", "1": "1/1"}]


def test_clone_search_above_state_cap_leaves_out_state_keys(tmp_path):
    # 36 elements, above cli.MAX_STATE_CARRIER: the search runs, the
    # separation check does not
    path = tmp_path / "big.json"
    path.write_text(catalog.build_spec("product(mo(2),mo(2))").to_json())
    proc = run_process("clone-search", str(path), "--format", "json")
    assert proc.returncode == EXIT_FAIL
    assert "Traceback" not in proc.stdout + proc.stderr
    results = last_json(proc.stdout)["results"]
    assert results["status"] == "no-witness"
    assert "state_space_separating" not in results
    assert "interpretation" not in results


# SHA-256 of json.dumps(results, indent=2) with the report's own key order,
# captured before the report records became named tuples
PINNED_RESULTS = {
    ("boolean_powerset(2)", "analyze"): "06b49551c44b8efa5a1a0506b7ca2c6af24cb98394d9da4fc80c1bfb15eaf813",
    ("boolean_powerset(2)", "clone-search --all"): "4402268e881314270582144d54e0f14c6bb578c79c81191889da101ad242768b",
    ("boolean_powerset(2)", "states"): "fc61a71eb2a6b7581201b27d2d712a29979fed8e7381643b1776d524cc9d6593",
    ("boolean_powerset(2)", "hidden"): "5d7e4fbfffa31c806a82ec4e7060fa2121e26dfa7f59ed0964f80e9061ef6639",
    ("boolean_powerset(2)", "hidden --parts {2},{1}"): "a6c6ca4fe6d151ef5a83a4ed1984dcd5193c1f81324b2deb2f55bb4391d1b0e1",
    ("boolean_powerset(3)", "hidden"): "2b8c6fc4d3272a2121d2a4cd8bdf157b5c70f2108ea7859f824a88701ed57a45",
    ("boolean_powerset(4)", "hidden"): "2548f7b7865e9af8d507553d58ddc50b1d9683360430ee10f418604e4202956d",
    ("mo(2)", "analyze"): "8aa28c60f5221e1adebd6480935a60c7eb71f468136763c351cbd712e10eb473",
    ("mo(2)", "clone-search --all"): "60891ad128fb4162195ca7b9f5f3883f0d00c0fd61f2f8041e1e8eb05758497b",
    ("mo(2)", "states"): "06e8b1434380f6a5a15fcc659314d9a49ee318afdf4670caa1e3d2bddc550c5e",
    ("mo(2)", "hidden"): "d5dcb2c4436978dc3c91a4b73856ec5afd2ab3bb9738a12fd6118f0f8812a8ec",
    # an orthoalgebra that is not an orthomodular poset, and a chain that is
    # not an orthoalgebra
    ("wright_triangle()", "analyze"): "8097c8fb389f9560c92b6049b5668231850c129b7aac0528be4a1823c0248542",
    ("chain(3)", "analyze"): "10bb6a4995252d884a988d5745efb704ada63e757c5a10577e15a2a0fa8607ad",
}


@pytest.mark.parametrize("spec, command", sorted(PINNED_RESULTS))
def test_report_json_pinned(capsys, tmp_path, spec, command):
    path = tmp_path / "alg.json"
    path.write_text(catalog.build_spec(spec).to_json() + "\n")
    name, *options = command.split()
    _, out = run(capsys, name, str(path), *options, "--format", "json")
    # json.loads keeps the key order, which sort_keys digests would not see
    text = json.dumps(last_json(out)["results"], indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_RESULTS[spec, command]


LAYER_MODULES = {"qlogic.catalog", "qlogic.cloning", "qlogic.mv", "qlogic.states"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["validate", "{file}"], LAYER_MODULES),
        (["analyze", "{file}"], LAYER_MODULES),
        (["states", "{file}"], {"qlogic.cloning", "qlogic.mv", "fractions"}),
        (["clone-search", "{file}", "--all"], {"fractions"}),
        # above the state cap clone-search leaves out the state keys
        (["clone-search", "{big}", "--all"], {"fractions", "qlogic.states"}),
        (["hidden", "{file}"], {"fractions"}),
        # catalog reads no file, so it loads no hash at all
        (["catalog", "mo(2)"], {"_sha2", "_sha256"}),
    ],
    ids=[
        "validate", "analyze", "states", "clone-search", "clone-search-36", "hidden",
        "catalog",
    ],
)
def test_commands_import_only_what_they_run(tmp_path, bp2_file, argv, absent):
    """Each command in a fresh interpreter, without site, lists sys.modules.

    {file} is bp(2) and {big} the 36-element product(mo(2),mo(2)).
    """
    big = tmp_path / "mo2squared.json"
    big.write_text(catalog.build_spec("product(mo(2),mo(2))").to_json())
    src = str(Path(qlogic.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "from qlogic.cli import main\n"
        "main(sys.argv[1:])\n"
        "sys.stderr.write(' '.join(sys.modules))\n"
    )
    argv = [a.format(file=bp2_file, big=big) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0
    loaded = set(proc.stderr.split())
    assert "qlogic.cli" in loaded
    # no command loads OpenSSL's libcrypto: file commands digest their
    # input with CPython's built-in SHA-256
    assert sorted(loaded & (absent | {"dataclasses", "hashlib", "_hashlib"})) == []


def test_hidden_seed_defaults_to_mv_default_seed(capsys, bp2_file):
    code, out = run(capsys, "hidden", bp2_file, "--format", "json")
    doc = last_json(out)
    assert code == EXIT_OK
    assert doc["seed"] == doc["results"]["verification"]["seed"] == mv.DEFAULT_SEED


# argparse help at 80 columns, as printed before the default of --budget
# moved out of the parser; Python 3.10 says "optional arguments"
PINNED_HELP = {
    "clone-search": """\
usage: qlogic clone-search [-h] [--format {text,json}] [--all]
                           [--budget BUDGET]
                           file

positional arguments:
  file                  algebra JSON file

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --all                 enumerate all witnesses
  --budget BUDGET       search node budget
""",
    "hidden": """\
usage: qlogic hidden [-h] [--format {text,json}] [--parts PARTS]
                     [--budget BUDGET]
                     file

positional arguments:
  file                  algebra JSON file

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --parts PARTS         comma-separated part labels for the decomposition;
                        commas inside (), {} or [] belong to a label
  --budget BUDGET       cloning search node budget
""",
}


@pytest.mark.parametrize("command", sorted(PINNED_HELP))
def test_help_text_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out.replace("optional arguments:", "options:")
    assert out == PINNED_HELP[command]
