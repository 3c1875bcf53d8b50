from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DEFAULT_WEIGHTS, SPARSE_WEIGHTS, catalog_sample, corpus_graphs, free_reduce, label_ix,
                      random_coxeter_graph, reference_json, render_graph)
import limits
import coxhom.invariants
from coxhom.cli import _build_parser, _UsageError, main
from coxhom.errors import ECHO_LIMIT, CoxhomError, GraphSyntaxError
from coxhom.graph import INFINITY, MAX_CATALOG_N, MAX_LABEL_DIGITS, build_graph, from_catalog
from coxhom.invariants import StabilityReport, analyze, stability_scan
from coxhom.io import (
    parse_graph,
    render_json,
    render_stability,
    word_texts,
)
from coxhom.words import MAX_SPELLED_LABEL, omega_sets


def test_parse_simple_graph():
    g = parse_graph("vertex s1\nvertex s2\nedge s1 s2 3\n")
    assert g == from_catalog("A2")
    assert g == build_graph(["s1", "s2"], [("s1", "s2", 3)])


def test_parse_comments_blanks_and_inf():
    text = "# a comment\n\nvertex a\nvertex b\n  \nedge a b inf\n"
    g = parse_graph(text)
    assert label_ix(g, g.vertices.index("a"), g.vertices.index("b")) == INFINITY
    assert parse_graph("vertex a#b\n").vertices == ("a#b",)  # a later `#` is part of its token


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
    for token in ("1_000", "\u0667", "3.0", "0x10"):  # int() would take the first two
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph(f"vertex a\nvertex b\nedge a b {token}\n")
        assert str(info.value) == f"line 3: label must be an integer >= 2 or `inf`, got {token!r}"


def test_parse_reports_the_first_line_of_a_repeated_bad_label():
    # a label token is read once per file, and its fault stays with its first line
    for token, message in (("x", "label must be an integer >= 2 or `inf`, got 'x'"), ("1", "label must be >= 2, got 1")):
        text = f"vertex a\nvertex b\nedge a b {token}\nvertex c\nedge a c {token}\n"
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph(text)
        assert str(info.value) == f"line 3: {message}"
    with pytest.raises(GraphSyntaxError, match="^line 5: label must be >= 2, got 1$"):
        parse_graph("vertex a\nvertex b\nedge a b 3\nvertex c\nedge a c 1\nedge b c 3\n")
    g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\nedge a c inf\n")
    assert g.labels == {(0, 1): 3, (0, 2): INFINITY, (1, 2): 3}


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
        # a label below 2 is found when its edge is built, so an earlier line's fault comes first
        ("vertex a\nedge a b 3\nedge a a 1\n", "unknown vertex 'b'", 2),
        ("vertex a\nvertex b\nedge a b 3\nedge a b -7\n", "label must be >= 2, got -7", 4),
        # edges are listed, but a vertex row is refused before any is drawn
        ("edge a b 3\nvertex a\nvertex b\nvertex a\n", "vertex 'a' declared twice", 4),
        ("# note\n\nvertex a\n  \n# edges\nedge a b 3\nedge a a 3\n", "unknown vertex 'b'", 6),
        ("vertex a\r\nvertex b\r\n\r\nedge a b 3\r\nedge b a 5\r\n", "pair ('b', 'a') listed with labels 3 and 5", 5),
        ("vertex a\r# note\rvertex b\redge a c 3\r", "unknown vertex 'c'", 4),
        # `#` starts a comment only as a line's first token
        ("vertex a # note\n", "expected `vertex <name>`", 1),
    ):
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {line}: {message}"
        assert info.value.line == line
    with pytest.raises(CoxhomError, match="^vertex 'a' declared twice$"):
        build_graph(["a", "a"])


def test_parse_ends_lines_only_at_newlines():
    # \f and \u2028 end a line for str.splitlines(), not for an editor
    g = parse_graph("# c\fmore\nvertex a\nvertex b\nedge a b 3\n")
    assert g == build_graph(["a", "b"], [("a", "b", 3)])
    with pytest.raises(GraphSyntaxError, match="^line 1: expected `vertex <name>`$"):
        parse_graph("vertex a\u2028vertex b\n")
    for end in ("\r\n", "\r"):
        with pytest.raises(GraphSyntaxError, match="^line 4: unknown vertex 'b'$"):
            parse_graph(end.join(["# c\fmore", "vertex a", "", "edge a b 3", ""]))
        g = parse_graph(end.join(["vertex b", "# c\fmore", "vertex a", "", "edge a b 3", ""]))
        assert g == build_graph(["b", "a"], [("a", "b", 3)])


def test_cli_build_error_names_the_line(tmp_path, capsys):
    path = tmp_path / "twice.graph"
    path.write_text("vertex a\nvertex a\n", encoding="utf-8")
    assert main(["compute", "--file", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: vertex 'a' declared twice\n"


def test_round_trip_catalog_and_corpus():
    graphs = [from_catalog(n) for n in catalog_sample()] + corpus_graphs(100) + corpus_graphs(30, base_seed=70)
    # names of one token, odd characters included
    graphs.append(build_graph(["a", "é\x01", "#x", "vertex"], [("a", "#x", 5), ("é\x01", "vertex", INFINITY)]))
    for g in graphs:
        assert parse_graph(render_graph(g)) == g


@pytest.mark.parametrize("name", ["", "a b", "x\u2028y", "\x1c"])
def test_render_graph_refuses_names_the_format_cannot_spell(name):
    # parse_graph reads a name as one str.split() token, so these names
    # would render to a file it refuses or reads as another graph
    g = build_graph(["a", name], [("a", name, 3)])
    with pytest.raises(CoxhomError) as info:
        render_graph(g)
    assert str(info.value) == f"vertex {name!r} is empty or holds whitespace; the file format cannot spell it"


def test_word_serialization():
    vertices = ("s1", "s2")
    families = [[(), free_reduce([1, -2, 1])], [], [(-2,)]]
    assert [list(texts) for texts in word_texts(families, vertices)] == [["1", "s1 s2^-1 s1"], [], ["s2^-1"]]


def _json_for(name, omegas_flavor=None):
    g = from_catalog(name)
    profile = analyze(g)
    omegas = omega_sets(g, profile, omegas_flavor) if omegas_flavor else None
    return json.loads(render_json(g, profile, omegas))


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
    doc = json.loads(render_json(g, analyze(g)))
    assert doc["p"] == doc["q"] == doc["h2_artin_mod2_rank"] == 0
    assert doc["vertices"] == [] and doc["edges"] == []


def test_render_json_key_order_fixed():
    doc = json.loads(render_json(from_catalog("A3"), analyze(from_catalog("A3"))))
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


def test_generators_lists_one_word_per_class_of_an_edgeless_graph(tmp_path, capsys):
    # compute never lists an edgeless graph's classes, generators still does
    path = tmp_path / "edgeless.graph"
    path.write_text("".join(f"vertex v{i}\n" for i in range(1, 6)), encoding="utf-8")
    assert main(["generators", "--json", "--file", str(path)]) == 0
    gens = json.loads(capsys.readouterr().out)["generators"]
    assert gens["counts"]["omega1"] == 10
    assert [w["word"] for w in gens["omega1"]] == [
        f"v{s} v{t} v{s}^-1 v{t}^-1" for s in range(1, 6) for t in range(s + 1, 6)
    ]


def _assert_renders_as_the_reference(g, flavors=(None, "artin", "coxeter")):
    profile = analyze(g)
    for flavor in flavors:
        omegas = omega_sets(g, profile, flavor) if flavor else None
        args = (g, profile, omegas)
        assert render_json(*args) == reference_json(*args), (g.vertices, flavor)


def test_render_json_bytes_on_catalog_and_corpus():
    graphs = [from_catalog(name) for name in catalog_sample()] + corpus_graphs(100)
    for g in graphs + [build_graph([])]:
        _assert_renders_as_the_reference(g)
    a1 = from_catalog("A1")
    profile = analyze(a1)
    text = render_json(a1, profile, omega_sets(a1, profile, "artin"))
    assert '"omega1": [],' in text and '"omega3": [],' in text  # a graph with no words
    # the flag is computed per word, not assumed: a word off the commutator subgroup reads false
    g = from_catalog("~A2")
    profile = analyze(g)
    omegas = omega_sets(g, profile, "artin")._replace(omega2=((1, 2, 1), (1, -2, -1, 2)))
    args = (g, profile, omegas)
    text = render_json(*args)
    assert text == reference_json(*args)
    assert text.count('"abelianization_zero": false') == 1


def test_render_json_bytes_on_large_graphs_and_labels():
    huge = [10**(MAX_LABEL_DIGITS - 1) + k for k in range(4)]  # 4300 digits, both parities
    for seed in range(12):
        rng = random.Random(seed)
        n = 62 if seed % 3 == 0 else rng.randint(30, 62)
        g = random_coxeter_graph(rng, n, SPARSE_WEIGHTS if seed % 2 else DEFAULT_WEIGHTS)
        assert INFINITY in g.labels.values()
        _assert_renders_as_the_reference(g, (None, "artin"))
        labels = dict(g.labels)
        for pair in rng.sample(sorted(labels), 8):
            labels[pair] = rng.choice(huge)
        big = g._replace(labels=labels)
        _assert_renders_as_the_reference(big, (None,))  # too long to spell as words


def test_render_json_bytes_on_odd_vertex_names():
    names = ["a,", '"b\\', "}", "{x", "]", "é", "ü☃", "x\x01y", "\x7f", "tab\there", "new\nline",
             "\u2028", "\ud800", "𝔸", "v:1", "1", "null", "", "%", "%s", "%(x)s", "%%"]
    rng = random.Random(3)
    for seed in range(10):
        g = random_coxeter_graph(rng, len(names))
        order = rng.sample(names, len(names))
        edges = [(order[i], order[j], m) for (i, j), m in g.labels.items()]
        _assert_renders_as_the_reference(build_graph(order, edges))


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


_COMPUTE_TEXT = {
    # every descriptor text: Z2, Z, Z2^k, Z^k + Z2, and "not determined here"
    # on each failing corollary condition
    "~E6": """\
graph: 7 vertices, 6 edges
p  = 1
q1 = 0  q2 = 0  q3 = 0  q = 0
n1..n4 = 7 6 1 1  (howlett identity: ok)
H1(A; Z) free rank = 1
H2(N; Z)  = Z2
H2(W; Z)  = Z2
H2(A; Z2) rank = 1
corollary conditions: all_torsion=yes odd_equals_gamma=yes tree=yes -> applies=yes
H2(A; Z)  = Z2
""",
    "I2(4)": """\
graph: 2 vertices, 1 edges
p  = 0
q1 = 0  q2 = 1  q3 = 0  q = 1
n1..n4 = 2 1 0 2  (howlett identity: ok)
H1(A; Z) free rank = 2
H2(N; Z)  = Z
H2(W; Z)  = Z2
H2(A; Z2) rank = 1
corollary conditions: all_torsion=yes odd_equals_gamma=no tree=yes -> applies=no
H2(A; Z)  = not determined here
""",
    "~A2": """\
graph: 3 vertices, 3 edges
p  = 0
q1 = 0  q2 = 0  q3 = 1  q = 1
n1..n4 = 3 3 0 1  (howlett identity: ok)
H1(A; Z) free rank = 1
H2(N; Z)  = Z
H2(W; Z)  = Z2
H2(A; Z2) rank = 1
corollary conditions: all_torsion=yes odd_equals_gamma=yes tree=no -> applies=no
H2(A; Z)  = not determined here
""",
    "~D4": """\
graph: 5 vertices, 4 edges
p  = 6
q1 = 0  q2 = 0  q3 = 0  q = 0
n1..n4 = 5 4 6 1  (howlett identity: ok)
H1(A; Z) free rank = 1
H2(N; Z)  = Z2^6
H2(W; Z)  = Z2^6
H2(A; Z2) rank = 6
corollary conditions: all_torsion=yes odd_equals_gamma=yes tree=yes -> applies=yes
H2(A; Z)  = Z2^6
""",
    "B4": """\
graph: 4 vertices, 3 edges
p  = 1
q1 = 1  q2 = 1  q3 = 0  q = 2
n1..n4 = 4 3 2 2  (howlett identity: ok)
H1(A; Z) free rank = 2
H2(N; Z)  = Z^2 + Z2
H2(W; Z)  = Z2^3
H2(A; Z2) rank = 3
corollary conditions: all_torsion=no odd_equals_gamma=no tree=yes -> applies=no
H2(A; Z)  = not determined here
""",
}


@pytest.mark.parametrize("name", sorted(_COMPUTE_TEXT))
def test_cli_compute_text_bytes(name, capsys):
    assert main(["compute", "--type", name]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (_COMPUTE_TEXT[name], "")


def test_cli_compute_bytes_on_an_empty_graph_file(tmp_path, capsys):
    # no vertex and no edge: the empty graph is a forest, and every rank is 0
    path = tmp_path / "empty.graph"
    path.write_text("", encoding="utf-8")
    assert main(["compute", "--file", str(path)]) == 0
    assert capsys.readouterr() == (
        "graph: 0 vertices, 0 edges\n"
        "p  = 0\n"
        "q1 = 0  q2 = 0  q3 = 0  q = 0\n"
        "n1..n4 = 0 0 0 0  (howlett identity: ok)\n"
        "H1(A; Z) free rank = 0\n"
        "H2(N; Z)  = 0\n"
        "H2(W; Z)  = 0\n"
        "H2(A; Z2) rank = 0\n"
        "corollary conditions: all_torsion=yes odd_equals_gamma=yes tree=yes -> applies=yes\n"
        "H2(A; Z)  = 0\n",
        "",
    )
    assert main(["compute", "--json", "--file", str(path)]) == 0
    zero = {"free_rank": 0, "torsion2_rank": 0}
    doc = {
        "vertices": [], "edges": [], "p": 0, "q1": 0, "q2": 0, "q3": 0, "q": 0,
        "n": {"n1": 0, "n2": 0, "n3": 0, "n4": 0},
        "howlett_identity": True, "h1_artin_free_rank": 0, "h2_orbit": zero, "h2_coxeter": zero,
        "h2_artin_mod2_rank": 0,
        "corollary": {"all_torsion": True, "odd_equals_gamma": True, "tree": True, "applies": True},
        "h2_artin_integral": zero,
    }
    assert capsys.readouterr() == (json.dumps(doc, indent=2) + "\n", "")


def test_cli_stability_text_bytes(tmp_path, capsys):
    seed = tmp_path / "seed.graph"
    seed.write_text("vertex a\nvertex b\nedge a b 4\n", encoding="utf-8")
    assert main(["stability", "--seed-file", str(seed), "--n-max", "6"]) == 0
    assert capsys.readouterr() == (
        "n =  1  p+q = 1\n"
        "n =  2  p+q = 2\n"
        "n =  3  p+q = 3\n"
        "n =  4  p+q = 3\n"
        "n =  5  p+q = 3\n"
        "n =  6  p+q = 3\n"
        "stable for n >= 3: yes\n",
        "",
    )


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
    import coxhom.oracles  # check reads the report from here at each call

    monkeypatch.setattr(
        coxhom.oracles, "consistency_report", lambda g: [("broken_identity", False, "boom")]
    )
    assert main(["check", "--type", "A2"]) == 3
    assert "FAIL broken_identity" in capsys.readouterr().out


@pytest.mark.parametrize("command, message", [
    (["generators"], "internal error: generator count != p+q"),
    (["generators", "--json", "--flavor", "coxeter"], "internal error: generator count != p+q"),
])
def test_cli_exits_3_when_a_count_is_off_by_one(command, message, monkeypatch, capsys):
    import coxhom.cli as cli

    real_omega_sets = cli.omega_sets

    def off_words(g, profile, flavor):  # one omega2 word more than p + q
        omegas = real_omega_sets(g, profile, flavor)
        return omegas._replace(omega2=omegas.omega2 + ((1, 2, -1, -2),))

    monkeypatch.setattr(cli, "omega_sets", off_words)
    assert main([*command, "--type", "~A2"]) == 3
    assert capsys.readouterr() == ("", message + "\n")


def test_check_fails_only_the_reducedness_row_on_an_unreduced_word(monkeypatch, capsys):
    import coxhom.oracles as oracles

    real_omega_sets = oracles.omega_sets

    def unreduced(g, profile, flavor):
        # zero abelianization and the triangle's counts, but 2 next to -2
        return real_omega_sets(g, profile, flavor)._replace(omega3=((1, 2, -2, -1),))

    monkeypatch.setattr(oracles, "omega_sets", unreduced)
    rows = oracles.consistency_report(from_catalog("~A2"))
    assert [name for name, passed, _ in rows if not passed] == ["omega_freely_reduced"]
    assert main(["check", "--type", "~A2"]) == 3
    assert "FAIL omega_freely_reduced: 1 words" in capsys.readouterr().out


@pytest.mark.parametrize(
    "alter",
    [
        lambda classes, flags: (classes, (not flags[0],) + flags[1:]),
        lambda classes, flags: (classes[1::-1] + classes[2:], flags),
    ],
    ids=["one_flag", "two_classes_swapped"],
)
def test_check_fails_only_the_pair_class_row_when_either_half_differs(alter, monkeypatch, capsys):
    import coxhom.oracles as oracles

    g = from_catalog("~D4")  # six torsion singletons: swapping two keeps every flag
    classes, flags = oracles.naive_pair_closure(g)
    altered = alter(classes, flags)
    assert (altered[0] == classes) != (altered[1] == flags)  # exactly one half differs
    monkeypatch.setattr(oracles, "naive_pair_closure", lambda graph: altered)
    rows = oracles.consistency_report(g)
    assert [name for name, passed, _ in rows if not passed] == ["pair_classes_vs_naive_closure"]
    assert main(["check", "--type", "~D4"]) == 3
    assert "FAIL pair_classes_vs_naive_closure: 6 classes" in capsys.readouterr().out


def _merge_first_two(closure):
    classes, flags = closure
    return (tuple(sorted(classes[0] + classes[1])),) + classes[2:], (flags[0] or flags[1],) + flags[2:]


@pytest.mark.parametrize("name", ["~D4", "B4"])
@pytest.mark.parametrize(
    "oracle, disagree, own_row",
    [
        ("rational_cycle_rank", lambda rank: rank + 1, "cycle_rank_oracles"),
        ("naive_pair_closure", _merge_first_two, "pair_classes_vs_naive_closure"),
    ],
    ids=["cycle_rank_one_more", "first_two_classes_merged"],
)
def test_check_fails_both_howlett_rows_when_an_oracle_disagrees(name, oracle, disagree, own_row, monkeypatch, capsys):
    # the Howlett rows read n3 and n4 from the oracles, so an oracle that
    # counts one class fewer or one cycle more fails them with its own row
    import coxhom.oracles as oracles

    real = getattr(oracles, oracle)
    monkeypatch.setattr(oracles, oracle, lambda arg: disagree(real(arg)))
    rows = oracles.consistency_report(from_catalog(name))
    assert [row for row, passed, _ in rows if not passed] == ["howlett_identity", "howlett_term_identities", own_row]
    assert main(["check", "--type", name]) == 3
    out = capsys.readouterr().out
    assert out.count("FAIL ") == 3 and out.endswith("5/8 checks passed\n")


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


def test_cli_stability_exits_3_when_step_4_differs_from_step_3(tmp_path, capsys, monkeypatch):
    grow = coxhom.invariants._grow

    def broken(noncommuting, odd_lowers):
        counts, *arrays = grow(noncommuting, odd_lowers)
        counts[-1] += 1  # the last vertex grown is step 4's
        return (counts, *arrays)

    monkeypatch.setattr(coxhom.invariants, "_grow", broken)
    text = "vertex a\nvertex b\nedge a b 4\n"
    assert stability_scan(parse_graph(text), 6).stable is False
    seed = tmp_path / "seed.graph"
    seed.write_text(text, encoding="utf-8")
    for flags in ([], ["--json"]):
        assert main(["stability", "--seed-file", str(seed), "--n-max", "6", *flags]) == 3
        assert capsys.readouterr() == ("", "internal error: step 4's rank differs from step 3's\n")


def test_stability_json_bytes_match_json_dumps(tmp_path, capsys):
    def dumped(report):
        doc = {"trajectory": [{"n": n, "rank": rank} for n, rank in report.trajectory], "verdict": report.stable}
        return json.dumps(doc, indent=2) + "\n"

    for text in ("vertex s1\n", "vertex a\nvertex b\nvertex c\nedge a b 4\nedge b c 3\nedge a c inf\n"):
        seed = tmp_path / "seed.graph"
        seed.write_text(text, encoding="utf-8")
        assert main(["stability", "--seed-file", str(seed), "--n-max", "9", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == dumped(stability_scan(parse_graph(text), 9))
    for report in (StabilityReport((), True), StabilityReport(((1, 0), (2, 10**30)), False)):
        assert render_stability(report) == dumped(report)


# every refusal but relabelled1000's, a build refusal at the last of its 499501 edge rows, once the others are built
@pytest.mark.parametrize("row", [row for row in limits.ROWS if row.code and "@relabelled1000" not in row.command], ids=str)
def test_cli_refuses_sizes_above_the_limits(row, tmp_path, capsys):
    argv = row.argv(limits.write_inputs([row], tmp_path))
    tracemalloc.start()
    try:
        assert main(argv) == row.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # refused before any table of that size was built, a graph file while parsing
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == row.stderr
    assert len(captured.err) < 200


def test_limits_runner_exits_1_at_a_row_off_its_exit_code_or_budget():
    assert limits.run([limits.Row("catalog list", 10)]) == 0
    assert limits.run([limits.Row("catalog list", 10, 1)]) == 1
    assert limits.run([limits.Row("check --type A1000", 0.01)]) == 1


def test_limits_runner_ends_with_the_rows_run_their_seconds_and_the_slowest(capsys):
    rows = [limits.Row("catalog list", 10), limits.Row("catalog list", 10, 1), limits.Row("catalog list", 10)]
    assert limits.run(rows) == 1  # the second row is off its exit code, so the third is not run
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"rows run: 2 of 3, \d+\.\d s in all, slowest \d+\.\d\d s: catalog list", last)


def test_same_bytes_prints_the_same_lines_under_two_hash_seeds():
    # the digests cover every benchmark job; a run order or output that follows
    # string hashing would print different lines per process
    script = Path(__file__).resolve().parent / "same_bytes.py"
    runs = [
        subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, text=True,
                         env={**os.environ, "PYTHONHASHSEED": seed})
        for seed in ("1", "2")
    ]
    outs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outs[0] == outs[1]
    lines = [line.split() for line in outs[0].splitlines()]
    assert [name for name, _, _ in lines] == ["catalog_check", "dense_random", "sparse_family"]
    assert all(int(count) > 0 and len(sha) == 64 for _, count, sha in lines)


def test_ab_times_a_tree_against_itself():
    # a smoke run: one round on a short workload; the times are not asserted
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "tests" / "ab.py"), str(root), str(root),
                           "--workload", "sparse_family", "--seed", "1", "--repeat", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary, *table = done.stdout.splitlines()
    assert re.fullmatch(r"sparse_family seed 1: \d+ jobs, same bytes, best of 1", summary)
    assert [line.split()[0] for line in table] == ["check", "compute", "generators", "stability", "pass", "p50", "max"]
    assert all(re.fullmatch(r"\S+ +\d+\.\d{3} ms +\d+\.\d{3} ms +\d+\.\d{3}", line) for line in table)


def test_cli_reads_a_file_of_the_largest_catalog_diagram(tmp_path, capsys):
    name = f"~A{MAX_CATALOG_N}"
    path = tmp_path / "largest.graph"
    path.write_text(render_graph(from_catalog(name)), encoding="utf-8")
    assert main(["compute", "--json", "--type", name]) == 0
    expected = capsys.readouterr().out
    assert main(["compute", "--json", "--file", str(path)]) == 0
    assert capsys.readouterr().out == expected


# A graph file (with the line at fault) or a catalog name, each echoing one user token.
_ECHOED = {
    "label": ("vertex a\nvertex b\nedge a b {}\n", 3, "label must be an integer >= 2 or `inf`, got {}"),
    "unknown vertex": ("vertex a\nedge a {} 3\n", 2, "unknown vertex {}"),
    "repeated vertex": ("vertex {0}\nvertex a\nvertex {0}\n", 3, "vertex {} declared twice"),
    "unknown directive": ("vertex a\n{} here\n", 2, "unknown directive {}"),
    "catalog name": ("{}", None, "unknown catalog name {}"),
}


@pytest.mark.parametrize("case", sorted(_ECHOED))
def test_cli_errors_cut_long_tokens_short(case, tmp_path, capsys):
    source, line, message = _ECHOED[case]
    for length in (1, ECHO_LIMIT, ECHO_LIMIT + 1, 5000):
        token = "Q" + "c" * (length - 1)
        if line is None:
            argv = ["compute", "--type", source.format(token)]
            where = ""
        else:
            path = tmp_path / "echo.graph"
            path.write_text(source.format(token), encoding="utf-8")
            argv = ["compute", "--file", str(path)]
            where = f"line {line}: "
        shown = repr(token) if length <= ECHO_LIMIT else f"{token[:ECHO_LIMIT]!r}... ({length} characters)"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}{message.format(shown)}\n"
        assert len(captured.err.encode("utf-8")) < 200


def _full_parser():
    """A top parser built apart from main's cached one, which parses a
    command's arguments through its subcommand action."""
    return _build_parser.__wrapped__()[0]


@pytest.mark.parametrize(
    "argv, token",
    [
        (["generators", "--type", "A2", "--flavor", "x" * 5000], "x" * 5000),
        (["generators", "--type", "A2", "--flavor=" + "x" * 5000], "x" * 5000),
        (["stability", "--n-max", "y" * 5000, "--seed-file", "seed.graph"], "y" * 5000),
        (["check", "--type", "A3", "z" * 5000], "z" * 5000),
    ],
    ids=["choice", "choice after =", "int value", "extra argument"],
)
def test_cli_usage_errors_cut_long_tokens_short(argv, token, capsys):
    # argparse writes these messages; main cuts the echoed token as errors.echo does
    with pytest.raises(_UsageError) as info:
        _full_parser().parse_args(argv)
    assert token in str(info.value)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = f"{token[:ECHO_LIMIT]}... (5000 characters)"
    assert captured.err == f"usage error: {str(info.value).replace(token, shown)}\n"
    assert len(captured.err) < 200


def test_cli_usage_errors_cut_quoted_tokens_short(capsys):
    # argparse shows an invalid choice by its repr, which escapes a token holding both quotes
    token = "x'\"" * 2000
    assert main(["generators", "--type", "A2", "--flavor", token]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --flavor: invalid choice: ")
    assert "... (6000 characters)" in err and len(err) < 200


def test_cli_reuses_one_parser_and_keeps_its_bytes(capsys):
    assert _build_parser() is _build_parser()
    fresh = _full_parser
    assert main(["compute", "--type", "A3"]) == 0
    valid = capsys.readouterr()
    for argv in (
        [], ["nonsense"], ["compute"], ["compute", "--type", "A2", "--file", "x"],
        ["generators", "--type", "A2", "--flavor", "x"], ["stability", "--n-max", "x", "--seed-file", "y"],
        ["check", "--type", "A3", "extra"], ["catalog", "x"],
    ):
        with pytest.raises(_UsageError) as info:
            fresh().parse_args(argv)
        for _ in range(2):
            assert main(argv) == 1, argv
            assert capsys.readouterr() == ("", f"usage error: {info.value}\n")
            assert main(["compute", "--type", "A3"]) == 0
            assert capsys.readouterr() == valid
    for argv in (["--help"], ["generators", "-h"]):
        with pytest.raises(SystemExit):
            fresh().parse_args(argv)
        expected = capsys.readouterr()
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr() == expected


# argv forms main hands to a command's own parser, or to the top parser when
# argv[0] names no command; the file arguments are never opened here.
_DISPATCHED = [
    ["compute", "--json", "--type=A3"],
    ["generators", "--type=A2", "--flavor=coxeter", "--json"],
    ["check", "--file=g.txt"],
    ["stability", "--seed-file=s.txt", "--n-max=4", "--json"],
    ["compute", "--ty", "A3"],
    ["generators", "--fl", "coxeter", "--ty", "A2"],
    ["stability", "--n", "3", "--se", "s.txt"],
    ["check", "--fi", "g.txt"],
    ["compute", "--type", "A2", "--type", "A3"],
    ["generators", "--type", "A2", "--flavor", "coxeter", "--flavor", "artin"],
    ["stability", "--n-max", "4", "--seed-file", "s.txt"],
    ["generators", "--json", "--flavor", "coxeter", "--file", "g.txt"],
    ["catalog", "list"],
    ["catalog", "--", "list"],
    ["stability", "--n-max", "-5", "--seed-file", "s.txt"],
    ["compute", "--type", "A3", "--", "extra"],
    ["compute", "--", "--type", "A3"],
    ["catalog", "x"],
    ["catalog"],
    ["compute", "--type"],
    ["compute", "--type", "A2", "--fi", "x"],
    ["stability", "--n-max", "4"],
    ["stability", "--n-max", "four", "--seed-file", "s.txt"],
    ["generators", "--type", "A2", "--flavor=x"],
    ["check", "--type", "A3", "--json"],
    ["-h"],
    ["--help"],
    ["--he"],
    ["compute", "-h"],
    ["stability", "--he"],
    ["catalog", "list", "-h"],
    [],
    ["nonsense"],
    ["Compute"],
    ["-x"],
    ["--", "compute", "--type", "A3"],
    ["-h", "compute"],
]


def _full_run(argv):
    """Exit code, stdout, stderr and namespace as main would give them
    through a fresh top parser."""
    out, err = io.StringIO(), io.StringIO()
    args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = _full_parser().parse_args(argv)
            code = 0
        except _UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            code = 1
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue(), args


@pytest.mark.parametrize("argv", _DISPATCHED, ids=" ".join)
def test_cli_dispatches_what_the_full_parser_parses(argv, monkeypatch, capsys):
    import coxhom.cli as cli

    dispatched = []
    for name in ("compute", "generators", "check", "stability", "catalog"):
        monkeypatch.setitem(cli._COMMANDS, name, lambda args: dispatched.append(args) or 0)
    code, out, err, args = _full_run(list(argv))
    assert main(list(argv)) == code
    assert capsys.readouterr() == (out, err)
    assert dispatched == ([] if args is None else [args])


def test_cli_module_reads_its_arguments_from_sys_argv(capsys):
    # main() with no argv reads sys.argv, which only a fresh process sets
    src = Path(__file__).resolve().parents[1] / "src"

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "coxhom.cli", *argv], capture_output=True, text=True, cwd=src)

    shown = run("compute", "--json", "--type", "A3")
    assert main(["compute", "--json", "--type", "A3"]) == 0
    assert (shown.returncode, shown.stdout, shown.stderr) == (0, capsys.readouterr().out, "")
    cut = run("generators", "--type", "A2", "--flavor", "x" * 5000)
    assert (cut.returncode, cut.stdout) == (1, "")
    assert cut.stderr.startswith("usage error: argument --flavor: invalid choice: ")
    assert "... (5000 characters)" in cut.stderr and len(cut.stderr) < 200
    helped = run("--help")
    assert (helped.returncode, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: coxhom ")


@pytest.mark.parametrize("argv", [["compute", "--file", ""], ["stability", "--n-max", "3", "--seed-file", ""]])
def test_cli_empty_path_is_named_as_given(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")


def test_cli_import_loads_no_heavy_stdlib_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, and fractions
    # pulls in decimal: together about two thirds of a command's start-up.
    # Only check reads the oracles, so only check loads them
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; before = set(sys.modules); import coxhom.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, cwd=src)
    added = set(run.stdout.split())
    assert "coxhom.cli" in added
    assert not {"dataclasses", "fractions", "decimal", "inspect", "coxhom.oracles"} & added


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
