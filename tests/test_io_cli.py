from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_graphs
from coxhom.cli import main
from coxhom.errors import CoxhomError, GraphSyntaxError
from coxhom.graph import INFINITY, MAX_CATALOG_N, build_graph, from_catalog
from coxhom.invariants import MAX_SCAN_STEPS, homology_summary, invariant_profile
from coxhom.io import (
    parse_graph,
    render_graph,
    render_json,
    word_to_text,
)
from coxhom.oracles import catalog_sample
from coxhom.words import MAX_SPELLED_LABEL, free_reduce, omega_sets


def test_parse_simple_graph():
    g = parse_graph("vertex s1\nvertex s2\nedge s1 s2 3\n")
    assert g == from_catalog("A2")
    assert g == build_graph(["s1", "s2"], [("s1", "s2", 3)])


def test_parse_comments_blanks_and_inf():
    text = "# a comment\n\nvertex a\nvertex b\n  \nedge a b inf\n"
    g = parse_graph(text)
    assert g.label_ix(g.vertices.index("a"), g.vertices.index("b")) == INFINITY


def test_parse_self_loop():
    with pytest.raises(CoxhomError, match="self-loop at 'a'"):
        parse_graph("vertex a\nedge a a 3\n")


def test_parse_error_positions():
    with pytest.raises(GraphSyntaxError, match="unknown directive 'nonsense'") as info:
        parse_graph("vertex a\nnonsense here\n")
    assert info.value.line == 2
    with pytest.raises(GraphSyntaxError, match="expected `edge <u> <v> <m>`") as info:
        parse_graph("vertex a\nvertex b\nedge a b\n")
    assert info.value.line == 3


def test_parse_bad_labels():
    with pytest.raises(GraphSyntaxError, match="^line 3: label must be >= 2, got 1$") as info:
        parse_graph("vertex a\nvertex b\nedge a b 1\n")
    assert info.value.line == 3
    with pytest.raises(GraphSyntaxError, match="^line 3: label must be an integer >= 2 or `inf`, got 'x'$"):
        parse_graph("vertex a\nvertex b\nedge a b x\n")


def test_parse_structural_errors():
    with pytest.raises(CoxhomError, match="vertex 'a' declared twice"):
        parse_graph("vertex a\nvertex a\n")
    with pytest.raises(CoxhomError, match="unknown vertex 'b'"):
        parse_graph("vertex a\nedge a b 3\n")
    with pytest.raises(CoxhomError, match="listed with labels 3 and 4"):
        parse_graph("vertex a\nvertex b\nedge a b 3\nedge b a 4\n")


def test_build_errors_carry_the_line():
    for text, message, line in (
        ("vertex a\n# note\nvertex b\nvertex a\n", "vertex 'a' declared twice", 4),
        ("vertex a\nedge a b 3\nvertex b\nedge a c 3\n", "unknown vertex 'c'", 4),
        ("edge a a 3\nvertex a\n", "self-loop at 'a'", 1),
        ("vertex a\nvertex b\nedge a b 3\n\nedge b a 4\n", "pair ('b', 'a') listed with labels 3 and 4", 5),
    ):
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {line}: {message}"
        assert info.value.line == line
    with pytest.raises(CoxhomError, match="^vertex 'a' declared twice$"):
        build_graph(["a", "a"])


def test_cli_build_error_names_the_line(tmp_path, capsys):
    path = tmp_path / "twice.graph"
    path.write_text("vertex a\nvertex a\n", encoding="utf-8")
    assert main(["compute", "--file", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: vertex 'a' declared twice\n"


def test_round_trip_catalog_and_corpus():
    graphs = [from_catalog(n) for n in catalog_sample()] + corpus_graphs(100) + corpus_graphs(30, base_seed=70)
    for g in graphs:
        assert parse_graph(render_graph(g)) == g


def test_word_serialization():
    vertices = ("s1", "s2")
    assert word_to_text((), vertices) == "1"
    assert word_to_text(free_reduce([1, -2, 1]), vertices) == "s1 s2^-1 s1"


def _json_for(name, omegas_flavor=None):
    g = from_catalog(name)
    omegas = omega_sets(g, omegas_flavor) if omegas_flavor else None
    return json.loads(render_json(g, invariant_profile(g), homology_summary(g), omegas))


def test_render_json_affine_e6():
    doc = _json_for("~E6")
    assert doc["p"] == 1 and doc["q"] == 0
    assert doc["h2_artin_mod2_rank"] == 1
    assert doc["h2_artin_integral"] == {"free_rank": 0, "torsion2_rank": 1}
    assert doc["howlett_identity"] is True


def test_render_json_i24_integral_unknown():
    doc = _json_for("I2(4)")
    assert doc["h2_artin_integral"] is None
    assert doc["h2_artin_mod2_rank"] == 1
    assert doc["edges"] == [{"u": "s1", "v": "s2", "m": 4}]


def test_render_json_empty_graph():
    g = build_graph([])
    doc = json.loads(render_json(g, invariant_profile(g), homology_summary(g)))
    assert doc["p"] == doc["q"] == doc["h2_artin_mod2_rank"] == 0
    assert doc["vertices"] == [] and doc["edges"] == []


def test_render_json_key_order_fixed():
    doc = json.loads(
        render_json(
            from_catalog("A3"),
            invariant_profile(from_catalog("A3")),
            homology_summary(from_catalog("A3")),
        )
    )
    assert list(doc) == [
        "vertices", "edges", "p", "q1", "q2", "q3", "q", "n",
        "howlett_identity", "h1_artin_free_rank", "h2_orbit", "h2_coxeter",
        "h2_artin_mod2_rank", "corollary", "h2_artin_integral",
    ]
    assert list(doc["n"]) == ["n1", "n2", "n3", "n4"]
    assert list(doc["corollary"]) == ["all_torsion", "odd_equals_gamma", "tree", "applies"]


def test_render_json_inf_edges_are_strings():
    doc = _json_for("I2(inf)")
    assert doc["edges"] == [{"u": "s1", "v": "s2", "m": "inf"}]


def test_generators_json_section():
    doc = _json_for("A3", omegas_flavor="artin")
    gens = doc["generators"]
    assert gens["flavor"] == "artin"
    assert gens["counts"] == {
        "omega1": 1, "omega2": 0, "omega3": 0, "total": 1, "expected_total": 1,
    }
    assert gens["omega1"] == [
        {"word": "s1 s3 s1^-1 s3^-1", "abelianization_zero": True}
    ]


# -- command line --------------------------------------------------------------

def test_cli_compute_json(capsys):
    assert main(["compute", "--type", "~D4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 6


def test_cli_compute_text(capsys):
    assert main(["compute", "--type", "F4"]) == 0
    out = capsys.readouterr().out
    assert "q1 = 1  q2 = 1" in out
    assert "howlett identity: ok" in out


def test_cli_usage_errors(capsys):
    assert main([]) == 1
    assert main(["compute"]) == 1
    assert main(["compute", "--type", "A2", "--file", "x"]) == 1
    assert main(["nonsense"]) == 1


def test_cli_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex a\noops\n", encoding="utf-8")
    assert main(["compute", "--file", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["compute", "--type", "A0"]) == 2
    assert main(["compute", "--type", "Z9"]) == 2
    assert main(["compute", "--file", str(tmp_path / "missing.graph")]) == 2


def test_cli_accepts_a_leading_bom(tmp_path, capsys):
    path = tmp_path / "bom.graph"
    path.write_bytes(b"\xef\xbb\xbfvertex s1\nvertex s2\nedge s1 s2 3\n")
    assert main(["compute", "--file", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"] == ["s1", "s2"]
    assert main(["stability", "--seed-file", str(path), "--n-max", "4"]) == 0
    assert "stable for n >= 3" in capsys.readouterr().out


def test_cli_undecodable_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.graph"
    path.write_bytes(b"vertex a\nvertex \xff\n")
    for argv in (
        ["compute", "--file", str(path)],
        ["stability", "--seed-file", str(path), "--n-max", "4"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot decode ")
        assert "as UTF-8: invalid start byte at byte 16" in captured.err


def test_cli_generators(capsys):
    assert main(["generators", "--type", "I2(4)", "--flavor", "coxeter"]) == 0
    out = capsys.readouterr().out
    assert "flavor: coxeter" in out
    assert "s1 s2 s1 s2 s1^-1 s2^-1 s1^-1 s2^-1" in out
    assert main(["generators", "--type", "~A2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["generators"]["counts"]["total"] == 1


def test_cli_check(capsys):
    assert main(["check", "--type", "~D4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_cli_check_reports_failures_with_exit_3(monkeypatch, capsys):
    import coxhom.cli as cli

    monkeypatch.setattr(
        cli, "consistency_report", lambda g: [("broken_identity", False, "boom")]
    )
    assert main(["check", "--type", "A2"]) == 3
    assert "FAIL broken_identity" in capsys.readouterr().out


def test_check_fails_only_the_reducedness_row_on_an_unreduced_word(monkeypatch, capsys):
    import coxhom.oracles as oracles

    real_omega_sets = oracles.omega_sets

    def unreduced(g, flavor):
        # zero abelianization and the triangle's counts, but 2 next to -2
        return dataclasses.replace(real_omega_sets(g, flavor), omega3=((1, 2, -2, -1),))

    monkeypatch.setattr(oracles, "omega_sets", unreduced)
    rows = oracles.consistency_report(from_catalog("~A2"))
    assert [name for name, passed, _ in rows if not passed] == ["omega_freely_reduced"]
    assert main(["check", "--type", "~A2"]) == 3
    assert "FAIL omega_freely_reduced: 1 words" in capsys.readouterr().out


def test_cli_runs_pair_classes_once_per_graph(monkeypatch, capsys):
    import coxhom.invariants as invariants
    import coxhom.words as words

    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def count(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, count)

    counting(invariants, "pair_classes")
    counting(words, "fundamental_cycle_basis")
    for argv, classes, bases in (
        (["compute", "--type", "~D6", "--json"], 1, 0),
        (["generators", "--type", "~D6", "--json"], 1, 1),
        (["check", "--type", "~D6"], 1, 1),
    ):
        calls.clear()
        assert main(argv) == 0
        assert calls.count("pair_classes") == classes, argv
        assert calls.count("fundamental_cycle_basis") == bases, argv
    capsys.readouterr()


@pytest.mark.parametrize("label, on_cycle", [
    (MAX_SPELLED_LABEL + 2, False),
    (10**20, False),
    (MAX_SPELLED_LABEL + 1, True),  # odd, so spelled only because it lies on a cycle
])
def test_cli_refuses_to_spell_labels_above_the_limit(label, on_cycle, tmp_path, capsys):
    source = ["--type", f"I2({label})"]
    if on_cycle:
        path = tmp_path / "triangle.graph"
        path.write_text(f"vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\nedge a c {label}\n", encoding="utf-8")
        source = ["--file", str(path)]
    assert main(["compute", *source]) == 0
    capsys.readouterr()
    for command in (["generators"], ["generators", "--json", "--flavor", "coxeter"], ["check"]):
        tracemalloc.start()
        try:
            assert main([*command, *source]) == 2, command
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, command  # raised before the label's letters were allocated
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: label {label} is above the limit {MAX_SPELLED_LABEL} on spelled words\n"


def test_cli_stability(tmp_path, capsys):
    seed = tmp_path / "seed.graph"
    seed.write_text("vertex s1\n", encoding="utf-8")
    assert main(["stability", "--seed-file", str(seed), "--n-max", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is True
    assert doc["trajectory"][2] == {"n": 3, "rank": 1}
    assert main(["stability", "--seed-file", str(seed), "--n-max", "3"]) == 1


@pytest.mark.parametrize("argv, code, message", [
    (["stability", "--n-max", str(10**9)], 1, f"n_max must be <= {MAX_SCAN_STEPS}, got {10**9}"),
    (["compute", "--type", "A999999999999"], 2, f"A999999999999: parameter above the limit n <= {MAX_CATALOG_N}"),
    (["generators", "--type", "~D100000000000"], 2,
     f"~D100000000000: parameter above the limit n <= {MAX_CATALOG_N}"),
    (["compute", "--type", f"I2({'9' * 5000})"], 2, "label has 5000 digits, above the limit of 4300"),
    (["compute", "--file"], 2, "line 3: label has 5000 digits, above the limit of 4300"),
])
def test_cli_refuses_sizes_above_the_limits(argv, code, message, tmp_path, capsys):
    if argv[0] == "stability":
        seed = tmp_path / "seed.graph"
        seed.write_text("vertex a\nvertex b\nvertex c\nedge a b 3\n", encoding="utf-8")
        argv = [*argv, "--seed-file", str(seed)]
    if argv[-1] == "--file":
        path = tmp_path / "huge.graph"
        path.write_text(f"vertex a\nvertex b\nedge a b {'9' * 5000}\n", encoding="utf-8")
        argv = [*argv, str(path)]
    tracemalloc.start()
    try:
        assert main(argv) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # refused before any table of that size was built
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert len(captured.err) < 200


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "I2(<m>|inf)" in out
    assert "~D<n>" in out


def test_cli_output_is_deterministic(capsys):
    runs = []
    for _ in range(3):
        assert main(["compute", "--type", "~D4", "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] == runs[2]


_NAMES = st.sampled_from("abcde")
_LABELS = st.sampled_from(
    [str(m) for m in range(1, 8)] + ["inf", "0", "-3", "x", "3.0", "1000001", "12345678901234567890"]
)
_LINES = st.one_of(
    st.builds("vertex {}".format, _NAMES),
    st.builds("edge {} {} {}".format, _NAMES, _NAMES, _LABELS),
    st.sampled_from(["", "# note", "vertex", "vertex a b", "edge a b", "nonsense", "\t"]),
)
_GRAPH_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(_LINES, max_size=12).map(lambda lines: "\n".join(lines).encode("utf-8")),
)


@settings(max_examples=300, deadline=None)
@given(_GRAPH_BYTES)
def test_cli_ends_every_graph_file_in_a_documented_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.graph"
        path.write_bytes(data)
        for argv, codes in (
            (["compute", "--json", "--file", str(path)], (0, 2)),
            (["generators", "--file", str(path)], (0, 2)),
            (["check", "--file", str(path)], (0, 2)),
            (["stability", "--n-max", "5", "--seed-file", str(path)], (0, 1, 2)),
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in codes, (argv, data, err.getvalue())
            if code:
                assert err.getvalue().startswith("error: "), (argv, data)
