"""End-to-end runs of the command line interface through main()."""

import json
import random

import pytest

from _oracles import graph6_reference
from bicayley import census, cli
from bicayley.cli import main
from bicayley.construction import build, parse_spec
from bicayley.search import _Search
from bicayley.symmetry import _analyzed, certificate

GP125 = "H=[6,2]; R={(0,1)}; L={(3,0)}; S={(0,0),(1,1)}"
HEAWOOD = "H=7; S={0,1,3}"


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def test_build_writes_graph6(tmp_path, capsys):
    out = tmp_path / "gp125.g6"
    assert main(["build", GP125, "--graph6-out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "vertices: 24" in text and "connected: True" in text
    stored = out.read_text().strip()
    assert stored == graph6_reference(build(parse_spec(GP125)).graph)


def test_build_json(capsys):
    code, payload = run_json(capsys, ["build", GP125])
    assert code == 0
    assert payload["vertices"] == 24 and payload["edges"] == 36
    assert payload["connected"] and payload["predicted_connected"]


def test_analyze_with_selfcheck(capsys):
    code, payload = run_json(capsys, ["analyze", "H=3; S={0,1,2}", "--seed", "7"])
    assert code == 0
    assert payload["girth"] == 4
    assert payload["aut_order"] == 72
    assert payload["arc_type"] == 3 and payload["arc_regular"]
    assert payload["order_formula_ok"]
    assert payload["relabel_selfcheck"]
    assert payload["certificate"] == certificate(build(parse_spec("H=3; S={0,1,2}")).graph)


# the specs of the three relabeling self-checks in CI, at 1016, 968 and 1014 vertices
CI_SELFCHECK_SPECS = (
    "H=[254,2]; S={(0,0),(1,0),(147,1)}",
    "H=[22,22]; S={(0,0),(1,0),(0,1)}",
    "H=[39,13]; S={(0,0),(1,0),(38,1)}",
)


@pytest.mark.parametrize("spec", CI_SELFCHECK_SPECS)
def test_selfcheck_relabelings_at_the_search_bound_without_carried_seeds(spec):
    # `analyze SPEC --seed 7` certifies five relabelings after the original,
    # so each of its searches takes the original's generators as late seeds;
    # a direct search takes none, and must reach the same certificate: n and
    # the best leaf's packed edge keys, as the cache holds it
    g = build(parse_spec(spec)).graph
    cert = _analyzed(g)[1]
    rng = random.Random(7)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        search = _Search(g.relabel(perm))
        search.run()
        assert (g.n, search.best[0]) == cert


def test_iso_exit_codes(capsys):
    assert main(["iso", HEAWOOD, "H=7; S={0,1,5}"]) == 0
    assert "isomorphic: True" in capsys.readouterr().out
    assert main(["iso", HEAWOOD, "H=7; S={0,1,2}"]) == 1


def test_table_commands(capsys):
    code, payload = run_json(capsys, ["table1", "--max-vertices", "20"])
    assert code == 0 and payload["pass"]
    assert len(payload["instances"]) == 5
    assert all(rec["ok"] for rec in payload["instances"])
    code, payload = run_json(capsys, ["table2", "--max-vertices", "20"])
    assert code == 0 and payload["pass"]
    assert len(payload["instances"]) == 6


# the graphs theorem-a finds at a group-order bound: one over H has 2|H|
# vertices, so a bound below 12 misses the larger of K_4 (4), Q_3 (8),
# GP(8,3) (16) and GP(12,5) (24)
THEOREM_A_AT = {
    2: ["K_4"],
    3: ["K_4"],
    4: ["K_4", "Q_3"],
    7: ["K_4", "Q_3"],
    8: ["GP(8,3)", "K_4", "Q_3"],
    11: ["GP(8,3)", "K_4", "Q_3"],
    12: ["GP(12,5)", "GP(8,3)", "K_4", "Q_3"],
}


@pytest.mark.parametrize("bound", sorted(THEOREM_A_AT))
def test_theorem_a_bound_too_small(capsys, bound):
    code, payload = run_json(capsys, ["theorem-a", "--max-group-order", str(bound)])
    assert code == 0 and payload["pass"] is True
    assert sorted(rec["name"] for rec in payload["instances"]) == THEOREM_A_AT[bound]


def test_theorem_b_small(capsys):
    code, payload = run_json(capsys, ["theorem-b", "--max-vertices", "20"])
    assert code == 0 and payload["pass"]
    assert all(rec["is_bci"] for rec in payload["instances"])


def test_voltage_fig(capsys):
    code, payload = run_json(capsys, ["voltage-fig1", "--orders", "1,2,3"])
    assert code == 0 and payload["pass"] and payload["base_is_cube"]
    by_order = {rec["order"]: rec for rec in payload["instances"]}
    assert by_order[1]["alpha_lifts"] and by_order[1]["cover_vertices"] == 8
    assert not by_order[2]["alpha_lifts"]
    assert by_order[3]["alpha_lifts"] and by_order[3]["cover_is_gp_12_5"]


def test_bci_command(capsys):
    code, payload = run_json(capsys, ["bci", HEAWOOD, "--method", "cross"])
    assert code == 0 and payload["is_bci"]
    code, payload = run_json(capsys, ["bci", "H=8; S={0,1,2,5}", "--method", "oracle"])
    assert code == 1 and not payload["is_bci"]
    assert payload["counterexample"] == [[0], [1], [3], [4]]


def test_negative_controls_command(capsys):
    code, payload = run_json(capsys, ["negative-controls"])
    assert code == 0 and payload["ok"]
    assert payload["desargues_spoke_only_match"] is None


def test_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([command, "--max-vertices", "5"], id=command)
        for command in ("table1", "table2", "theorem-b")
    ]
    + [  # no group has order below 2
        pytest.param(["theorem-a", "--max-group-order", bound], id=f"theorem-a={bound}")
        for bound in ("0", "1", "-5")
    ],
)
def test_empty_selection_fails(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command, flag, bound = argv
    assert captured.err.strip() == f"bicayley {command}: no instances within {flag} {bound}"
    code, payload = run_json(capsys, argv)
    assert code == 2
    assert payload["pass"] is False and payload["instances"] == []


@pytest.mark.parametrize("orders", ["", ","])
def test_voltage_fig_without_orders_fails(capsys, orders):
    assert main(["voltage-fig1", "--orders", orders]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"bicayley voltage-fig1: no instances in --orders {orders!r}"
    code, payload = run_json(capsys, ["voltage-fig1", "--orders", orders])
    assert code == 2
    assert payload["pass"] is False and payload["instances"] == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "H=3; S={0,1"], "bad connection set"),
        (["analyze", "H=600; S={0,1,2}"], "exceeds the search bound 1024"),
        (["bci", "H=17; S={0,1,3}", "--method", "oracle"], "oracle is limited to groups"),
        (["voltage-fig1", "--orders", "0"], "voltage group order must be positive"),
        (["voltage-fig1", "--orders", "3,x"], "invalid literal"),
        (["bci", "H=9; S={0,3,6}"], "exceeds the enumeration bound 100000"),
        (
            ["build", "H=3; S={0,1,2}", "--graph6-out", "/nonexistent/dir/x.g6"],
            "No such file or directory",
        ),
        (["bci", "H=4; S={0.5}"], "bad connection set S={0.5}"),
        (["iso", "H=4; S={0,1}", "H=4; S={0,'a'}"], "bad connection set S={0,'a'}"),
        (["build", "H=4; R={1.0,3}; S={0}"], "bad connection set R={1.0,3}"),
        (["build", "H=4; S={0,1,None}"], "bad connection set S={0,1,None}"),
        (["build", "H=[2.5]; S={0}"], "bad group orders H=[2.5]"),
        (["build", "H=True; S={0}"], "bad group orders H=True"),
        (["build", "H=2; S={(0.0,)}"], "bad connection set S={(0.0,)}"),
        (["build", "H=2; S={(True,)}"], "bad connection set S={(True,)}"),
        (["build", "H=[100000]; S={0,1,2}"], "graph on 200000 vertices exceeds the search bound 1024"),
        (["bci", "H=17; S={0,1,3}", "--method", "cross"], "oracle is limited to groups"),
        # a repeated element is refused in a brace set as in a list, and
        # modulo the group order
        (["analyze", "H=4; S={0,1,1}"], "duplicate element in S"),
        (["analyze", "H=4; S=[0,1,1]"], "duplicate element in S"),
        (["analyze", "H=4; S={1,5}"], "duplicate element in S"),
        (["build", "H=4; R={1,3,1}; S={0}"], "duplicate element in R"),
        (["build", "H=[2,2]; L={(1,0),(1,0)}"], "duplicate element in L"),
    ],
)
def test_user_errors_are_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"bicayley {argv[0]}: ")
    assert message in lines[0]
    assert captured.out == ""


def test_failures_still_raise(monkeypatch):
    def disagree(args):
        raise RuntimeError("criterion and oracle disagree")

    monkeypatch.setattr(cli, "cmd_theorem_b", disagree)
    with pytest.raises(RuntimeError):
        main(["theorem-b"])


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "H=[600]; S={0,1,2}"],
        ["iso", "H=[600]; S={0,1,2}", "H=3; S={0,1,2}"],
        ["bci", "H=[600]; S={0,1,2}"],
        ["build", "H=[600]; S={0,1,2}"],
    ],
)
def test_oversized_spec_refused_before_build(monkeypatch, capsys, argv):
    def refuse(spec):
        raise AssertionError("built a graph past the search bound")

    monkeypatch.setattr(cli, "build", refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"bicayley {argv[0]}: graph on 1200 vertices exceeds the search bound 1024\n"


@pytest.mark.parametrize("command", ["table1", "theorem-b"])
def test_oversized_vertex_bound_refused_before_listing(monkeypatch, capsys, command):
    def refuse(spec):
        raise AssertionError("built a census member for a bound past the search bound")

    monkeypatch.setattr(census, "build", refuse)
    assert main([command, "--max-vertices", "2048", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"bicayley {command}: --max-vertices 2048 exceeds the search bound 1024\n"
    )
    assert captured.out == ""


def test_table2_takes_any_vertex_bound(capsys):
    # its largest member has 48 vertices, so no bound reaches the search bound
    code, payload = run_json(capsys, ["table2", "--max-vertices", "2048"])
    assert code == 0 and max(rec["vertices"] for rec in payload["instances"]) == 48


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_nonpositive_enumeration_bound_is_refused(monkeypatch, capsys, raw):
    monkeypatch.setenv("BICAYLEY_MAX_AUT", raw)
    assert main(["bci", "H=3; S={0,1,2}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"bicayley bci: BICAYLEY_MAX_AUT must be a positive integer, got '{raw}'\n"
    )
    assert captured.out == ""
