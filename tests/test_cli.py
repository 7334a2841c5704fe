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
from qlogic import catalog, states
from qlogic.cli import EXIT_ABORTED, EXIT_BAD_INPUT, EXIT_FAIL, EXIT_OK, main
from qlogic.reports import MAX_INPUT_BYTES, REPORT_SCHEMA, render_text
from test_catalog import complete_quadrilateral, grid, stateless_pasting


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
    monkeypatch.setattr(states, "MAX_STATE_CARRIER", 64)
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
    ],
)
def test_catalog_spec_with_bad_arguments(capsys, spec, error):
    code, out = run(capsys, "catalog", spec, "--format", "json")
    assert code == EXIT_BAD_INPUT
    assert error in last_json(out)["results"]["error"]


def run_process(*argv, stdout=subprocess.PIPE, stdin_text=None):
    """The CLI in a fresh interpreter, so an uncaught error prints a traceback."""
    src = str(Path(qlogic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qlogic.cli", *argv],
        input=stdin_text,
        stdout=stdout,
        stderr=subprocess.PIPE,
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


FILE_COMMANDS = ["validate", "analyze", "clone-search", "states", "hidden"]


@pytest.mark.parametrize("command", FILE_COMMANDS)
@pytest.mark.parametrize(
    "kind", ["missing", "directory", "not-utf8", "huge-integer", "deep-nesting"]
)
def test_bad_input_file_exits_2(tmp_path, command, kind):
    proc = run_process(command, _bad_input_file(tmp_path, kind), "--format", "json")
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "error" in last_json(proc.stdout)["results"]


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


@pytest.mark.parametrize(
    "command, spec",
    [
        ("states", "product(mo(2),mo(2))"),
        # 64 elements, Boolean: the cloning search and the chain
        # decomposition succeed, and the state enumeration refuses
        ("hidden", "product(boolean_powerset(1),boolean_powerset(5))"),
    ],
)
def test_state_enumeration_cap_exits_3(tmp_path, command, spec):
    path = tmp_path / "big.json"
    path.write_text(catalog.build_spec(spec).to_json())
    proc = run_process(command, str(path), "--format", "json")
    assert proc.returncode == EXIT_ABORTED
    assert "Traceback" not in proc.stdout + proc.stderr
    error = last_json(proc.stdout)["results"]["error"]
    assert error.startswith("vertex enumeration supports carriers up to 32")


@pytest.mark.parametrize(
    "spec, parts, code",
    [
        # 36 elements, not Boolean: no witness comes before the cap
        ("product(mo(2),mo(2))", None, EXIT_FAIL),
        # 64 elements, Boolean: a bad label comes before the cap
        ("product(boolean_powerset(1),boolean_powerset(5))", "nolabel", EXIT_BAD_INPUT),
        # the zero does not sum to the unit, but the cap is checked before
        # the construction is tried
        ("product(boolean_powerset(1),boolean_powerset(5))", "({},{})", EXIT_ABORTED),
    ],
)
def test_hidden_checks_state_cap_before_construction(tmp_path, spec, parts, code):
    path = tmp_path / "big.json"
    path.write_text(catalog.build_spec(spec).to_json())
    argv = ["hidden", str(path), "--format", "json"]
    if parts is not None:
        argv += ["--parts", parts]
    proc = run_process(*argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stdout + proc.stderr
    results = last_json(proc.stdout)["results"]
    if code == EXIT_ABORTED:
        assert results["error"].startswith("vertex enumeration supports carriers up to 32")
    else:
        assert "model" not in results


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
    # 36 elements, above states.MAX_STATE_CARRIER: the search runs, the
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
