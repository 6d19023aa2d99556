"""Command-line interface: exit codes, JSON output, file side effects."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ohg
from ohg.cli import main
from ohg.model import OrientedHypergraph, dump, load, make_Lk, serialize
from ohg.shunting import generate_optimal_shunting

from instances import hypertree, plant_trap, random_hypergraph


def write(tmp_path, name, g):
    path = tmp_path / name
    dump(g, path)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    g = OrientedHypergraph.build(
        ["v1", "v2", "v3"], ["e1", "e2", "e3"],
        [("i1", "v1", "e1", 1), ("i2", "v2", "e1", -1),
         ("i3", "v2", "e2", 1), ("i4", "v3", "e2", -1),
         ("i5", "v3", "e3", 1), ("i6", "v1", "e3", 1)])
    return write(tmp_path, "triangle.json", g)


@pytest.fixture
def l3_file(tmp_path):
    return write(tmp_path, "l3.json", make_Lk(3, 3))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidateInfo:
    def test_validate_ok(self, capsys, triangle_file):
        code, out, _ = run(capsys, "validate", triangle_file)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_validate_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "error" in json.loads(err)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_info(self, capsys, triangle_file):
        code, out, _ = run(capsys, "info", triangle_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["vertices"] == 3
        assert payload["edges"] == 3
        assert payload["cyclomatic_number"] == 1
        assert payload["balanced"] is False
        assert payload["balanceable"] is True

    def test_info_runs_one_theta_scan(self, capsys, tmp_path, monkeypatch):
        scans = []
        scan = ohg.balance.detect_theta

        def counted(*args, **kwargs):
            scans.append(args[0])
            return scan(*args, **kwargs)

        monkeypatch.setattr(ohg.balance, "detect_theta", counted)
        trapped = write(tmp_path, "trapped.json", plant_trap(hypertree(20)))
        code, out, _ = run(capsys, "info", trapped)
        payload = json.loads(out)
        assert code == 0
        assert (payload["balanced"], payload["balanceable"]) == (False, False)
        assert len(scans) == 1

    def test_info_human(self, capsys, triangle_file):
        code, out, _ = run(capsys, "info", triangle_file, "--human")
        assert code == 0
        assert "vertices" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestMatrixGamma:
    def test_matrix_default_field(self, capsys, triangle_file):
        code, out, _ = run(capsys, "matrix", triangle_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["domain"] == "Q"
        assert payload["rows"] == ["v1", "v2", "v3"]
        assert payload["cols"] == ["e1", "e2", "e3"]
        assert payload["entries"] == [[1, 0, 1], [-1, 1, 0], [0, -1, 1]]

    def test_matrix_gf2_and_csv(self, capsys, tmp_path, triangle_file):
        csv_path = tmp_path / "m.csv"
        code, out, _ = run(capsys, "matrix", triangle_file,
                           "--field", "2", "--csv", str(csv_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["domain"] == "GF(2)"
        assert payload["entries"][0] == [1, 0, 1]
        text = csv_path.read_text()
        assert text.splitlines()[0] == ",e1,e2,e3"

    def test_matrix_bad_field(self, capsys, triangle_file):
        for field in ("4", "weird", "0", "00", "²"):
            code, _, err = run(capsys, "matrix", triangle_file,
                               "--field", field)
            assert code == 2
            assert json.loads(err)["kind"] == "input"

    def test_gamma_dot(self, capsys, tmp_path, triangle_file):
        dot = tmp_path / "g.dot"
        code, out, _ = run(capsys, "gamma", triangle_file,
                           "--dot", str(dot))
        assert code == 0
        assert "graph" in dot.read_text()


class TestBalanceCommands:
    def test_balance_negative(self, capsys, triangle_file):
        code, out, _ = run(capsys, "balance", triangle_file,
                           "--certificate")
        payload = json.loads(out)
        assert code == 1
        assert payload["balanced"] is False
        assert payload["certificate"]["sign"] == -1

    def test_balanceable_yes(self, capsys, triangle_file):
        code, out, _ = run(capsys, "balanceable", triangle_file)
        assert code == 0
        assert json.loads(out)["balanceable"] is True
        assert json.loads(out)["jobs"] == 1
        for jobs in ("0", "-3"):
            code, out, err = run(capsys, "balanceable", triangle_file,
                                 "--jobs", jobs)
            assert (code, out) == (2, "")
            assert json.loads(err)["kind"] == "input"
            assert err.count("\n") == 1

    def test_balanceable_no_with_certificate(self, capsys, l3_file):
        code, out, _ = run(capsys, "balanceable", l3_file,
                           "--certificate")
        payload = json.loads(out)
        assert code == 1
        assert payload["balanceable"] is False
        assert payload["certificate"]["kind"] == "cross"
        assert len(payload["certificate"]["paths"]) == 3

    def test_camion_roundtrip(self, capsys, tmp_path, triangle_file):
        out_path = tmp_path / "balanced.json"
        code, out, _ = run(capsys, "camion", triangle_file,
                           "--out", str(out_path))
        payload = json.loads(out)
        assert code == 0
        assert payload["balanced"] is True
        assert payload["strategy"] == "bfs"
        assert payload["seed"] == 0
        code2, out2, _ = run(capsys, "balance", str(out_path))
        assert code2 == 0
        assert json.loads(out2)["balanced"] is True

    def test_camion_unbalanceable_exit(self, capsys, l3_file):
        code, out, _ = run(capsys, "camion", l3_file)
        assert code == 1
        assert json.loads(out)["balanced"] is False

    def test_frustration_exact(self, capsys, triangle_file):
        code, out, _ = run(capsys, "frustration", triangle_file,
                           "--mode", "exact")
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == 1
        assert payload["exact"] is True
        assert len(payload["witness"]) == 1

    def test_frustration_undefined(self, capsys, l3_file, triangle_file):
        code, _, err = run(capsys, "frustration", l3_file,
                           "--mode", "exact")
        assert code == 2
        assert "balanceable" in json.loads(err)["error"]
        for mode in ("exact", "trees", "local-search"):
            code, _, err = run(capsys, "frustration", triangle_file,
                               "--mode", mode, "--budget", "-1")
            assert code == 2
            assert json.loads(err)["kind"] == "input"

    def test_frustration_seed_echoed(self, capsys, triangle_file):
        code, out, _ = run(capsys, "frustration", triangle_file,
                           "--mode", "local-search", "--seed", "7")
        payload = json.loads(out)
        assert code == 0
        assert payload["seed"] == 7
        assert payload["mode"] == "local-search"


class TestCircuits:
    def test_circuits_gf2(self, capsys, tmp_path):
        from ohg.model import make_complete_hypergraph
        path = write(tmp_path, "k3.json", make_complete_hypergraph(3, 1))
        code, out, _ = run(capsys, "circuits", path, "--field", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 14
        supports = {tuple(c["edges"]) for c in payload["circuits"]}
        assert ("e4", "e5", "e6") in supports

    def test_max_size(self, capsys, tmp_path):
        from ohg.model import make_complete_hypergraph
        path = write(tmp_path, "k3.json", make_complete_hypergraph(3, 1))
        code, out, _ = run(capsys, "circuits", path, "--field", "3",
                           "--max-size", "3")
        assert code == 0
        assert json.loads(out)["count"] == 6
        for size in ("0", "-2"):
            code, _, err = run(capsys, "circuits", path, "--field", "3",
                               "--max-size", size)
            assert code == 2
            assert json.loads(err)["kind"] == "input"

    def test_cap_exit_code(self, capsys, tmp_path, monkeypatch):
        from ohg.model import make_complete_hypergraph
        monkeypatch.setenv("OHG_MAX_SUBSETS", "5")
        path = write(tmp_path, "k3.json", make_complete_hypergraph(3, 1))
        code, _, err = run(capsys, "circuits", path, "--field", "q")
        assert code == 3
        assert "OHG_MAX_SUBSETS" in json.loads(err)["error"]

    def test_characteristic_past_2_to_the_64_is_an_input_error(
            self, capsys, tmp_path):
        """A 128-bit prime is refused at once, not tested for primality
        by a search that never returns."""
        from ohg.model import make_complete_hypergraph
        path = write(tmp_path, "k3.json", make_complete_hypergraph(3, 1))
        code, _, err = run(capsys, "circuits", path, "--field",
                           "340282366920938463463374607431768211507")
        assert code == 2
        payload = json.loads(err)
        assert payload["kind"] == "input"
        assert "2^64" in payload["error"]


class TestShuntVerify:
    def test_valid_decomposition(self, capsys, tmp_path):
        g, d = generate_optimal_shunting(2)
        g_path = write(tmp_path, "shunt.json", g)
        d_path = tmp_path / "decomp.json"
        d_path.write_text(d.to_json())
        code, out, _ = run(capsys, "shunt-verify", g_path, str(d_path))
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["balanceable"] is True
        assert payload["optimal"] is True

    def test_invalid_decomposition(self, capsys, tmp_path):
        g, d = generate_optimal_shunting(2)
        g_path = write(tmp_path, "shunt.json", g)
        broken = json.loads(d.to_json())
        broken["flowers"] = broken["flowers"][:-1]
        d_path = tmp_path / "decomp.json"
        d_path.write_text(json.dumps(broken))
        code, out, _ = run(capsys, "shunt-verify", g_path, str(d_path))
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False

    def test_scans_the_whole_input_once(self, capsys, tmp_path, monkeypatch):
        """Balanceability and S-minimality read one verdict on the input."""
        g, d = generate_optimal_shunting(1)
        scanned = []
        detect_theta = ohg.balance.detect_theta

        def counting(h, *args, **kwargs):
            scanned.append(h.incidences == g.incidences)
            return detect_theta(h, *args, **kwargs)

        monkeypatch.setattr(ohg.balance, "detect_theta", counting)
        g_path = write(tmp_path, "shunt.json", g)
        d_path = tmp_path / "decomp.json"
        d_path.write_text(d.to_json())
        code, out, _ = run(capsys, "shunt-verify", g_path, str(d_path))
        assert code == 0 and json.loads(out)["optimal"] is True
        assert scanned.count(True) == 1


class TestDemo:
    def test_fano_text(self, capsys):
        code, out, _ = run(capsys, "demo", "fano")
        assert code == 0
        assert "GF(2) circuits (14 total" in out
        assert "shared circuits: 13" in out

    def test_fano_deterministic(self, capsys):
        _, first, _ = run(capsys, "demo", "fano")
        _, second, _ = run(capsys, "demo", "fano")
        assert first == second

    def test_lk(self, capsys):
        code, out, _ = run(capsys, "demo", "lk", "--k", "5",
                           "--entrant", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["k"] == 5
        assert payload["minimum"] == 4
        assert payload["negative_circles"] == 4
        assert payload["verified"] is True

    def test_lk_bad_k(self, capsys):
        code, _, err = run(capsys, "demo", "lk", "--k", "1")
        assert code == 2

    def test_lk_past_memory_is_a_resource_error(self, capsys):
        """A witness of 10^18 signs is refused by the allocator at once;
        the refusal exits 3 with a resource payload, not a traceback."""
        code, out, err = run(capsys, "demo", "lk", "--k",
                             "1000000000000000000")
        assert code == 3
        assert out == ""
        assert json.loads(err)["kind"] == "resource"

    def test_lk_bad_entrant_is_refused_before_the_witness(self, capsys):
        """A bad --entrant is an input error even where k is too large for
        its witness."""
        code, out, err = run(capsys, "demo", "lk", "--k",
                             "1000000000000000000", "--entrant", "-1")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "kind": "input",
            "error": "entrant count must lie between 0 and k"}


class TestRepeatedCalls:
    def test_calls_in_one_process_match_fresh_processes(
            self, capsys, monkeypatch, triangle_file, l3_file):
        """One process serving many main() calls answers each of them as a
        fresh interpreter would, bad arguments included."""
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=str(Path(ohg.__file__).resolve().parents[1]))
        fresh_main = "import sys; from ohg.cli import main; sys.exit(main(sys.argv[1:]))"
        cases = [
            ("info", triangle_file),
            ("balanceable", "--certificate", l3_file),
            ("balance", "--bogus", triangle_file),
            ("matrix", triangle_file, "--field", "0"),
            ("frustration", triangle_file),
            ("demo", "lk", "--k", "4", "--human"),
            ("balanceable", "--jobs", "2", "--certificate", l3_file),
            ("info", triangle_file),
        ]
        for argv in cases:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-c", fresh_main, *argv],
                                   capture_output=True, text=True, env=env)
            assert (code, out.out, out.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv


# ---------------------------------------------------------------------------
# Fuzzing: every subcommand on degenerate and malformed input files.

_IDS = st.sampled_from(["a", "b", "c", "e", "f", ""])
_SIGNS = st.sampled_from([1, -1, 0, 2, True, "1", None, 1.0])


def _json_containers(inner):
    return (st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    _json_containers, max_leaves=6)


@st.composite
def _hypergraph_docs(draw):
    """Hypergraph-shaped JSON: small, often valid, often subtly wrong."""
    vertices = draw(st.lists(_IDS, max_size=3))
    edges = draw(st.lists(_IDS, max_size=3))
    incidences = draw(st.lists(st.fixed_dictionaries({
        "id": st.sampled_from(["i1", "i2", "i3", "i4", 7]),
        "vertex": _IDS, "edge": _IDS, "sign": _SIGNS}), max_size=5))
    doc = {"vertices": vertices, "edges": edges, "incidences": incidences}
    drop = draw(st.sampled_from([None, "vertices", "edges", "incidences"]))
    if drop is not None:
        doc[drop] = draw(_JSON)
    return json.dumps(doc)


@st.composite
def _decomposition_docs(draw):
    """A generated shunting's decomposition with one entry replaced."""
    doc = json.loads(generate_optimal_shunting(draw(st.integers(0, 3)))[1]
                     .to_json())
    key = draw(st.sampled_from(sorted(doc)))
    doc[key] = draw(_JSON | st.lists(st.lists(_IDS, max_size=2), max_size=2))
    return json.dumps(doc)


_VALID_GRAPHS = st.integers(0, 500).map(
    lambda seed: serialize(random_hypergraph(seed, max_incidences=8)))
# File contents as bytes: UTF-8 text, or raw bytes that are not UTF-8
# (0xff never occurs in it).
_NOT_UTF8 = st.binary(max_size=20).map(lambda raw: b"\xff" + raw)
_FILE_TEXT = (_hypergraph_docs() | _VALID_GRAPHS | _JSON.map(json.dumps)
              | st.text(max_size=20)
              | _hypergraph_docs().map(lambda text: text[:len(text) // 2])
              ).map(str.encode) | _NOT_UTF8
_DECOMPOSITION_TEXT = (_decomposition_docs() | _JSON.map(json.dumps)
                       | st.text(max_size=20)).map(str.encode) | _NOT_UTF8

_FILE_COMMANDS = [
    ["validate"], ["info"], ["info", "--human"], ["matrix"],
    ["matrix", "--field", "2", "--csv", "{dir}/m.csv"], ["matrix", "--field", "x"],
    ["gamma", "--dot", "{dir}/g.dot"], ["balance", "--certificate"],
    ["balanceable", "--certificate"], ["camion", "--out", "{dir}/c.json"],
    ["camion", "--tree", "random", "--seed", "3"],
    ["frustration", "--mode", "exact"], ["frustration", "--mode", "trees"],
    ["frustration", "--mode", "local-search", "--budget", "5"],
    ["circuits", "--field", "q"], ["circuits", "--field", "3", "--max-size", "2"],
    ["shunt-verify", "{decomposition}"],
]


def _file_argv(command, tmp, text, decomposition):
    """``command`` run on a graph file and a decomposition file holding
    ``text`` and ``decomposition`` (bytes), both written under ``tmp``."""
    graph_path = Path(tmp) / "g.json"
    graph_path.write_bytes(text)
    decomposition_path = Path(tmp) / "d.json"
    decomposition_path.write_bytes(decomposition)
    return [command[0], str(graph_path)] + [
        arg.format(dir=tmp, decomposition=decomposition_path)
        for arg in command[1:]]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_FILE_COMMANDS), _FILE_TEXT, _DECOMPOSITION_TEXT)
def test_fuzzed_files_keep_the_exit_code_contract(command, text, decomposition):
    """Whatever the files hold, every subcommand exits 0, 1, 2 or 3, and
    stderr is empty or one JSON error object."""
    with tempfile.TemporaryDirectory() as tmp:
        _assert_contract(_file_argv(command, tmp, text, decomposition))


# Valid JSON syntax past the parser's limits, which the fuzzer's small
# documents never reach: nesting past the recursion limit, and an
# integer literal past Python's digit limit for int().
_DEEP_JSON = b"[" * 200_000
_LONG_INTEGER_JSON = b"1" * 5_000


@pytest.mark.parametrize("text", [_DEEP_JSON, _LONG_INTEGER_JSON],
                         ids=["deep", "long-integer"])
@pytest.mark.parametrize("command", _FILE_COMMANDS,
                         ids=lambda command: " ".join(command))
def test_json_past_the_parser_limits_is_an_input_error(tmp_path, command,
                                                       text):
    """Exit 2 with one JSON error, from the graph file for every
    subcommand, and from the decomposition file for ``shunt-verify``."""
    valid = serialize(generate_optimal_shunting(0)[0]).encode()
    cases = [(text, valid)]
    if command[0] == "shunt-verify":
        cases.append((valid, text))
    for graph_text, decomposition_text in cases:
        argv = _file_argv(command, tmp_path, graph_text, decomposition_text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == 2, argv
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, argv
        assert json.loads(lines[0])["kind"] == "input", argv


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["fano", "lk"]), st.integers(-2, 6), st.integers(-2, 7),
       st.booleans())
def test_fuzzed_demo_arguments_keep_the_exit_code_contract(what, k, entrant,
                                                           human):
    argv = ["demo", what, f"--k={k}", f"--entrant={entrant}"]
    _assert_contract(argv + ["--human"] if human else argv)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), _DECOMPOSITION_TEXT)
def test_fuzzed_decompositions_keep_the_exit_code_contract(seed, decomposition):
    g, _ = generate_optimal_shunting(seed)
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "g.json"
        graph_path.write_text(serialize(g), encoding="utf-8")
        decomposition_path = Path(tmp) / "d.json"
        decomposition_path.write_bytes(decomposition)
        _assert_contract(["shunt-verify", str(graph_path),
                          str(decomposition_path)])


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if err.getvalue():
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, argv
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "kind"}, argv
        assert code in (2, 3), argv
