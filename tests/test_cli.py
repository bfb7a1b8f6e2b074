import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import pathecc.cli
import pathecc.suite
from pathecc.cli import cli_main
from pathecc.eccentricity import PeResult
from pathecc.families import clique, emit_graph6, fig_example_c, path_graph, subdivided_claw
from pathecc.graphs import format_edge_list
from pathecc.pqtree import format_matrix
from pathecc.suite import PROPERTIES
from pathecc.families import FIG_A_ADJACENCY


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_pe_on_graph6_argument(capsys):
    code, doc, _ = run_json(capsys, "pe", emit_graph6(subdivided_claw(2)))
    assert code == 0
    assert doc["schema"] == 1 and doc["pe"] == 2
    assert doc["witness"] == [0]


def test_pe_on_edge_list_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(format_edge_list(subdivided_claw(1)))
    code, doc, _ = run_json(capsys, "pe", str(f))
    assert code == 0 and doc["pe"] == 1


def test_pe_on_graph6_file(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text(emit_graph6(fig_example_c()) + "\n")
    code, doc, _ = run_json(capsys, "pe", str(f))
    assert code == 0 and doc["pe"] in (0, 1)


@pytest.mark.parametrize("line", ["0 1 2", "0 x"])
def test_pe_bad_edge_line_exits_2(tmp_path, capsys, line):
    f = tmp_path / "g.txt"
    f.write_text(f"3 2\n0 1\n{line}\n")
    code, out, err = run(capsys, "pe", str(f))
    assert code == 2 and out == ""
    assert f"bad edge on line 3: '{line}'" in err


def test_ecc_subcommand(capsys):
    code, doc, _ = run_json(capsys, "ecc", emit_graph6(subdivided_claw(2)), "2,1,0,3,4")
    assert code == 0 and doc["ecc"] == 2


@pytest.mark.parametrize("path, triple", [("0,,1", "0,,1,2"), ("0,1,", "0,1,2,")])
def test_empty_path_entries_exit_2(capsys, path, triple):
    # dropping the empty entry would leave a valid path or triple
    g6 = emit_graph6(subdivided_claw(2))
    for argv in (("ecc", g6, path), ("kat", g6, "--k", "1", "--triple", triple)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "bad path" in err


def test_kat_and_min_kat(capsys):
    g6 = emit_graph6(subdivided_claw(2))
    code, doc, _ = run_json(capsys, "kat", g6, "--k", "1")
    assert code == 0 and doc["witness"]["triple"] == [2, 4, 6]
    code, doc, _ = run_json(capsys, "kat", g6, "--k", "2")
    assert code == 0 and doc["witness"] is None
    code, doc, _ = run_json(capsys, "min-kat", g6)
    assert code == 0 and doc["min_k"] == 2
    code, doc, _ = run_json(capsys, "kat", g6, "--k", "1", "--triple", "2,4,6")
    assert code == 0 and doc["witness"] is not None


def test_c1p_subcommand(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text(format_matrix(FIG_A_ADJACENCY))
    code, doc, _ = run_json(capsys, "c1p", str(f))
    assert code == 0 and doc["permutation"] is not None


@pytest.mark.parametrize("header", ["0 0", "0 5", "3 0"])
def test_c1p_rejects_a_matrix_without_rows_or_columns(tmp_path, capsys, header):
    f = tmp_path / "m.txt"
    f.write_text(header + "\n")
    code, out, err = run(capsys, "c1p", str(f))
    assert code == 2 and out == ""
    assert "matrix must have at least one row and one column" in err


def test_star_c1p_subcommand(capsys):
    code, doc, _ = run_json(capsys, "star-c1p", "Dhc")  # C5
    assert code == 0 and doc["witness"] is None
    code, doc, _ = run_json(capsys, "star-c1p", emit_graph6(fig_example_c()))
    assert code == 0
    assert doc["witness"] == {"order": [0, 1, 2, 3, 4, 5], "diagonal": [3]}


def test_star_c1p_check_mode(tmp_path, capsys):
    g6 = emit_graph6(fig_example_c())
    good = '{"order": [0, 1, 2, 3, 4, 5], "diagonal": [3]}'
    code, doc, _ = run_json(capsys, "star-c1p", g6, "--check", good)
    assert code == 0 and doc["valid"] is True
    bad = tmp_path / "w.json"
    bad.write_text('{"order": [0, 1, 2, 3, 4, 5], "diagonal": []}')
    code, doc, _ = run_json(capsys, "star-c1p", g6, "--check", str(bad))
    assert code == 0 and doc["valid"] is False
    code, _, err = run(capsys, "star-c1p", g6, "--check", "{broken")
    assert code == 2
    mixed = '{"order": [0, 1, 2, 3, 4, "5"], "diagonal": [null]}'
    code, out, err = run(capsys, "star-c1p", g6, "--check", mixed)
    assert code == 2 and out == "" and "bad witness JSON" in err


def test_central_path_subcommand(capsys):
    g6 = emit_graph6(subdivided_claw(2))
    code, doc, err = run_json(capsys, "central-path", g6, "--k", "2", "--trace")
    assert code == 0
    assert doc["witness"] is None and doc["path"] is not None
    steps = [json.loads(line)["step"] for line in err.strip().splitlines()]
    assert steps[0] == "seed" and steps[-1] == "path_done"
    code, doc, _ = run_json(capsys, "central-path", g6, "--k", "1")
    assert code == 0 and doc["witness"]["triple"] == [2, 4, 6]


def test_gen_formats(capsys):
    code, doc, _ = run_json(capsys, "gen", "cycle", "5")
    assert code == 0 and doc["n"] == 5 and len(doc["edges"]) == 5
    code, out, _ = run(capsys, "gen", "cycle", "5", "--format", "graph6")
    assert code == 0 and out.strip() == "Dhc"
    code, out, _ = run(capsys, "gen", "subdivided_claw", "2", "--format", "edgelist")
    assert code == 0 and out.splitlines()[0] == "7 6"


@pytest.mark.parametrize(
    "argv",
    [
        ("pe", "Dhc"),
        ("ecc", "Dhc", "0,1,2"),
        ("kat", "Dhc"),
        ("min-kat", "Dhc"),
        ("c1p", "MATRIX"),
        ("star-c1p", "Dhc"),
        ("star-c1p", "Dhc", "--check", '{"order": [0, 1, 2, 3, 4], "diagonal": []}'),
        ("central-path", "Dhc", "--k", "1"),
        ("gen", "cycle", "5"),
        ("suite", "gen:cycle:5", "--props", "star_c1p_exists"),
        ("hunt", "exhaustive:4"),
    ],
    ids=lambda argv: argv[0] + ("-check" if "--check" in argv else ""),
)
def test_every_json_command_prints_one_envelope(tmp_path, capsys, argv):
    matrix = tmp_path / "m.txt"
    matrix.write_text(format_matrix(FIG_A_ADJACENCY))
    code, out, _ = run(capsys, *(str(matrix) if a == "MATRIX" else a for a in argv))
    assert code in (0, 1) and out.count("\n") == 1 and out.endswith("\n")
    doc = json.loads(out)
    assert (doc["schema"], doc["command"]) == (1, argv[0])


@pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
def test_gen_raw_formats_print_no_envelope(capsys, fmt):
    code, out, _ = run(capsys, "gen", "cycle", "5", "--format", fmt)
    assert code == 0 and out and "{" not in out and "schema" not in out


def test_suite_subcommand_pass_and_fail(capsys):
    code, doc, _ = run_json(capsys, "suite", "exhaustive:4", "--props", "theorem4")
    assert code == 0 and doc["passed"] is True
    assert doc["results"][0]["checked"] == 6

    code, doc, _ = run_json(
        capsys, "suite", "gen:cycle:5", "--props", "star_c1p_exists"
    )
    assert code == 1 and doc["passed"] is False
    assert doc["results"][0]["violations"][0]["graph6"] == "Dhc"


def test_suite_report_golden_stability(capsys):
    code1, doc1, _ = run_json(capsys, "suite", "exhaustive:4", "--props", "theorem4")
    code2, doc2, _ = run_json(capsys, "suite", "exhaustive:4", "--props", "theorem4")
    doc1.pop("wall_time_s")
    doc2.pop("wall_time_s")
    assert code1 == code2 == 0 and doc1 == doc2


def test_hunt_subcommand(capsys):
    code, doc, _ = run_json(capsys, "hunt", "exhaustive:6")
    assert code == 0
    assert doc["counterexample"] is None
    assert doc["searched"] == 112


def test_hunt_prints_a_counterexample_and_exits_1(monkeypatch, capsys):
    # make the path search miss and pe_exact report 2 on a witnessed graph
    monkeypatch.delenv("CPK_THREADS", raising=False)
    monkeypatch.setattr(pathecc.suite, "has_path_with_ecc_at_most", lambda g, k: None)
    monkeypatch.setattr(pathecc.suite, "pe_exact", lambda g: PeResult(2, (0,)))
    code, doc, _ = run_json(capsys, "hunt", "gen:path:4")
    assert code == 1
    assert (doc["searched"], doc["with_witness"]) == (1, 1)
    ce = doc["counterexample"]
    assert ce["graph6"] == emit_graph6(path_graph(4))
    assert sorted(ce["witness"]["order"]) == [0, 1, 2, 3]
    assert isinstance(ce["witness"]["diagonal"], list)
    assert (ce["pe"], ce["pe_witness"]) == (2, [0])


def test_hunt_corpus_file(tmp_path, capsys):
    f = tmp_path / "corpus.g6"
    f.write_text("Dhc\n" + emit_graph6(fig_example_c()) + "\n")
    code, doc, _ = run_json(capsys, "hunt", str(f))
    assert code == 0 and doc["searched"] == 2 and doc["with_witness"] == 1


def test_usage_and_parse_errors(capsys):
    assert run(capsys, "nope")[0] == 2
    assert run(capsys)[0] == 2
    code, _, err = run(capsys, "pe", "!!notagraph??")
    assert code == 2 and "pathecc:" in err
    code, _, err = run(capsys, "suite", "missing-corpus", "--props", "theorem4")
    assert code == 2
    code, _, err = run(capsys, "pe", emit_graph6(subdivided_claw(6)))  # n=19 > 16
    assert code == 2 and "limited" in err


@pytest.mark.parametrize(
    "command, cap",
    [("pe", 16), ("star-c1p", 20), ("ecc", None), ("min-kat", None), ("central-path", None)],
)
def test_huge_edge_list_header_exits_2_before_building(tmp_path, capsys, command, cap):
    f = tmp_path / "g.txt"
    f.write_text("3000000 0\n")
    extra = {"ecc": ["0"], "central-path": ["--k", "1"]}.get(command, [])
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(f), *extra)
    assert time.perf_counter() - start < 1.0  # the graph is never built
    assert code == 2 and out == ""
    if cap is None:  # a connected graph needs m >= n - 1 edges
        assert err.count("\n") == 1 and "requires a connected graph" in err
    else:
        assert f"limited to n <= {cap}, got n=3000000" in err


@pytest.mark.parametrize(
    "command, extra",
    [("pe", []), ("ecc", ["0"]), ("kat", []), ("min-kat", []), ("star-c1p", []),
     ("central-path", ["--k", "1"])],
)
@pytest.mark.parametrize("second", ["Dhc", "@@@"], ids=["graph", "unparsable"])
def test_graph6_file_with_several_lines_exits_2(tmp_path, capsys, command, extra, second):
    f = tmp_path / "two.g6"
    f.write_text(f"FkE?G\n\n{second}\n")
    code, out, err = run(capsys, command, str(f), *extra)
    assert code == 2 and out == ""
    assert err == f"pathecc: {f}: expected one graph6 line, found 2 non-blank lines\n"


@pytest.mark.parametrize("command", ["hunt", "suite"])
@pytest.mark.parametrize("spec", ["exhaustive:", "exhaustive:x", "gen:cycle:5:", "gen:cycle:y"])
def test_malformed_corpus_spec_names_the_spec(capsys, command, spec):
    extra = ["--props", "theorem1"] if command == "suite" else []
    code, out, err = run(capsys, command, spec, *extra)
    assert code == 2 and out == ""
    assert err.startswith(f"pathecc: corpus {spec!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["hunt", "suite"])
def test_corpus_parse_error_names_file_and_line(tmp_path, capsys, command):
    f = tmp_path / "corpus.g6"
    f.write_text("Bw\n\nxx\n")  # file line 3 is truncated graph6
    extra = ["--props", "theorem4"] if command == "suite" else []
    code, out, err = run(capsys, command, str(f), *extra)
    assert code == 2 and out == ""
    assert err == (f"pathecc: {f}:3: truncated graph6 payload at byte 2: "
                   f"need 266 bytes, have 1\n")


def test_corpus_file_is_read_one_graph_at_a_time(tmp_path):
    f = tmp_path / "corpus.g6"
    f.write_text("Bw\nnot graph6\n")
    graphs = pathecc.cli._load_corpus(str(f))
    assert next(graphs).n == 3
    with pytest.raises(ValueError, match=":2:"):
        next(graphs)


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_module_entry_point_prints_json():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "pathecc.cli", "pe", "FkE?G"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pe"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "cycle"),
        ("gen", "random_gnp", "5"),
        ("gen", "cycle", "5.7"),
        ("suite", "gen:cycle", "--props", "theorem1"),
        ("hunt", "gen:cycle"),
    ],
)
def test_bad_family_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("pathecc: ") and len(err.strip().splitlines()) == 1


def test_unexpected_error_exits_2_in_one_line(capsys, monkeypatch):
    def broken(g):
        raise KeyError("boom")

    monkeypatch.setattr(pathecc.cli, "pe_exact", broken)
    code, out, err = run(capsys, "pe", "FkE?G")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "internal error: KeyError" in err and "Traceback" not in err


@pytest.mark.parametrize("empty", [False, True], ids=["oversized", "empty-file"])
def test_hunt_with_nothing_checked_exits_2(tmp_path, capsys, empty):
    corpus = "gen:clique:17"
    if empty:
        (tmp_path / "empty.g6").write_text("")
        corpus = str(tmp_path / "empty.g6")
    code, out, err = run(capsys, "hunt", corpus)
    assert code == 2 and out == ""
    assert "checked no graph" in err
    assert ("is empty" in err) == empty
    assert ("oversized or disconnected" in err) != empty


def test_hunt_notes_skipped_graphs_on_stderr(tmp_path, capsys):
    f = tmp_path / "corpus.g6"
    f.write_text(emit_graph6(fig_example_c()) + "\n" + emit_graph6(clique(17)) + "\n")
    code, doc, err = run_json(capsys, "hunt", str(f))
    assert code == 0 and doc["searched"] == 2 and doc["with_witness"] == 1
    assert "skipped 1 of 2" in err and len(err.strip().splitlines()) == 1


def test_hunt_on_fully_checked_corpus_is_silent(capsys):
    code, doc, err = run_json(capsys, "hunt", "exhaustive:4")
    assert code == 0 and err == ""
    assert set(doc) == {"schema", "command", "corpus", "searched", "with_witness",
                        "counterexample"}


def test_invalid_worker_count_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CPK_THREADS", "abc")
    code, out, err = run(capsys, "hunt", "gen:cycle:5")
    assert code == 2 and out == "" and "CPK_THREADS" in err
    code, out, err = run(capsys, "suite", "gen:cycle:5", "--props", "theorem1")
    assert code == 2 and out == "" and "CPK_THREADS" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_skipped_graphs_are_not_violations_with_workers(tmp_path, capsys, monkeypatch, workers):
    f = tmp_path / "corpus.g6"
    f.write_text("C`\nBw\n")  # a disconnected graph, then a connected one
    monkeypatch.setenv("CPK_THREADS", workers)
    code, doc, _ = run_json(capsys, "suite", str(f), "--props", "theorem3")
    assert code == 0 and doc["passed"] is True
    (res,) = doc["results"]
    assert res["checked"] == 1 and res["skipped"] == 1 and res["violations"] == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_empty_graph_in_corpus_is_skipped(tmp_path, capsys, monkeypatch, workers):
    f = tmp_path / "corpus.g6"
    f.write_text("Bw\n?\n")  # a connected graph, then the 0-vertex graph
    monkeypatch.setenv("CPK_THREADS", workers)
    code, doc, _ = run_json(capsys, "suite", str(f), "--props", *sorted(PROPERTIES))
    assert code == 0 and doc["passed"] is True
    assert len(doc["results"]) == len(PROPERTIES)
    for res in doc["results"]:
        assert res["checked"] == 1 and res["skipped"] == 1 and res["violations"] == []
    code, doc, err = run_json(capsys, "hunt", str(f))
    assert code == 0 and doc["searched"] == 2 and doc["counterexample"] is None
    assert "skipped 1 of 2" in err and len(err.strip().splitlines()) == 1


def test_hunt_on_only_empty_graphs_exits_2(tmp_path, capsys):
    f = tmp_path / "corpus.g6"
    f.write_text("?\n")
    code, out, err = run(capsys, "hunt", str(f))
    assert code == 2 and out == ""
    assert "checked no graph: all 1" in err and "empty" in err
    assert len(err.strip().splitlines()) == 1


# --- fuzzing: malformed input is exit 2 with one stderr line -----------------

_FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
_junk_line = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    max_size=12,
)


def _file_text(pair, body):
    """A header line ('a b' with a, b drawn from pair, or junk) and up to 6 body lines."""
    head = st.one_of(st.builds("{} {}".format, pair, pair), _junk_line)
    return st.builds(
        lambda h, b: "\n".join([h] + b) + "\n", head, st.lists(body, max_size=6)
    )


def _clean_exit(code, out, err):
    """Success prints one JSON document; a rejected input one line of stderr."""
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
        return
    assert code == 2 and out == ""
    assert err.startswith("pathecc: ") and not err.startswith("pathecc: internal error")
    assert len(err.strip().splitlines()) == 1


@given(text=st.one_of(
    st.text(max_size=24),
    st.text(st.characters(min_codepoint=32, max_codepoint=127), max_size=24),
))
@_FUZZ
def test_fuzz_graph6_argument(capsys, text):
    assume(not os.path.exists(text))
    _clean_exit(*run(capsys, "pe", "--", text))


_VERTEX = st.integers(-2, 14).map(str)


@given(text=_file_text(_VERTEX, st.one_of(st.builds("{} {}".format, _VERTEX, _VERTEX),
                                          _junk_line)))
@_FUZZ
def test_fuzz_edge_list_file(tmp_path, capsys, text):
    f = tmp_path / "g.txt"
    f.write_text(text, encoding="utf-8")
    _clean_exit(*run(capsys, "pe", str(f)))


@given(text=_file_text(st.integers(-1, 7).map(str), st.one_of(st.text("01 ", max_size=8),
                                                              _junk_line)))
@_FUZZ
def test_fuzz_matrix_file(tmp_path, capsys, text):
    f = tmp_path / "m.txt"
    f.write_text(text, encoding="utf-8")
    _clean_exit(*run(capsys, "c1p", str(f)))


_json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 8), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=7), st.dictionaries(st.text(max_size=8), inner, max_size=3)
    ),
    max_leaves=10,
)
_witness_doc = st.fixed_dictionaries({
    "order": st.one_of(st.permutations(range(6)).map(list), _json_value),
    "diagonal": st.one_of(st.lists(st.integers(-1, 7), max_size=3), _json_value),
})


@given(raw=st.one_of(
    st.text(max_size=24), _json_value.map(json.dumps), _witness_doc.map(json.dumps)
))
@_FUZZ
def test_fuzz_star_c1p_check_json(capsys, raw):
    assume(not os.path.exists(raw))
    g6 = emit_graph6(fig_example_c())
    _clean_exit(*run(capsys, "star-c1p", g6, f"--check={raw}"))


def test_cli_import_loads_no_dataclasses_inspect_or_traceback():
    # a start-up guard that does no timing: importing the CLI must not pull
    # in these modules beyond what a bare interpreter (and its site .pth
    # files) already loaded
    src = str(Path(pathecc.cli.__file__).resolve().parents[1])
    probe = "import sys; print(' '.join(sorted(sys.modules)))"

    def loaded(code):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    bare = loaded(probe)
    cli = loaded(f"import sys; sys.path.insert(0, {src!r}); import pathecc.cli; {probe}")
    assert "pathecc.cli" in cli
    assert {"dataclasses", "inspect", "traceback"} & (cli - bare) == set()
