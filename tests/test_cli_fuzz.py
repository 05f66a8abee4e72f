"""Property tests of the CLI contract: whatever the graph file or the run
report holds, `compute` and `verify` exit with 0, 1, 2 or 3 and never
raise, and `verify` never says ok to a cut it did not check."""

import contextlib
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import path, petersen  # noqa: E402
from vcut.cli import ALGORITHMS, main  # noqa: E402
from vcut.graphs import Graph, serialize_graph  # noqa: E402
from vcut.oracle import random_digraph  # noqa: E402

EXIT_CODES = {0, 1, 2, 3}
FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# Tokens a graph file line may hold: small ids on both sides of the valid
# range, and values that are not decimal integers.
TOKEN = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(["x", "1.5", "", "-", "0x3", "1e2", "９", "p", "e", "w", "u", "d"]),
)
RECORD = st.one_of(
    st.tuples(st.just("p"), st.integers(-1, 8), st.integers(-1, 12), st.sampled_from("udx")),
    st.tuples(st.just("e"), st.integers(-2, 9), st.integers(-2, 9)),
    st.tuples(st.just("w"), st.integers(-2, 9), st.integers(-2, 70)),
    st.lists(TOKEN, max_size=5),
)


def _graph_text(records):
    return "\n".join(" ".join(map(str, rec)) for rec in records) + "\n"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code in EXIT_CODES, (argv, code, captured.err)
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


def _write(directory, name, data):
    p = os.path.join(directory, name)
    with open(p, "wb") as fh:
        fh.write(data if isinstance(data, bytes) else data.encode("utf-8"))
    return p


class TestParseGraphFuzz:
    @FUZZ
    @given(st.lists(RECORD, max_size=14))
    def test_compute_exit_codes(self, capsys, records):
        with tempfile.TemporaryDirectory() as tmp:
            g = _write(tmp, "g.txt", _graph_text(records))
            code, out, _ = _run(capsys, "compute", g)
            if code == 0:
                assert json.loads(out)["n"] >= 0

    @FUZZ
    @given(st.binary(max_size=60))
    def test_compute_on_raw_bytes(self, capsys, data):
        with tempfile.TemporaryDirectory() as tmp:
            _run(capsys, "compute", _write(tmp, "g.txt", b"p 3 1 u\n" + data))

    def test_undecodable_input_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_bytes(b"p 2 0 u\nc \xff\xfe\n")
        code, _, err = _run(capsys, "compute", str(p))
        assert code == 2 and err.startswith("parse error")


# A run report's fields, and values of the wrong kind for any of them.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 40), st.floats(allow_nan=False),
    st.text(max_size=4), st.lists(st.integers(-2, 12), max_size=4),
    st.dictionaries(st.sampled_from("LSRx"), st.lists(st.integers(-2, 12), max_size=4)),
)
FIELDS = [
    "schema", "input", "algorithm", "counters", "value", "cut", "complete", "k_connected", "k",
]


@st.composite
def report_edits(draw):
    """A list of edits to a valid report: drop, add, retype a field, or add
    an out-of-range or repeated vertex id to one side of the cut."""
    edit = st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(FIELDS)),
        st.tuples(st.just("set"), st.sampled_from(FIELDS + ["extra"]), JUNK),
        st.tuples(st.just("vertex"), st.sampled_from("LSR"), st.integers(-2, 12)),
        st.tuples(st.just("value"), st.integers(-1, 12)),
        st.tuples(st.just("counter"), st.sampled_from(["flow_calls", "x"]), JUNK),
    )
    return draw(st.lists(edit, max_size=4))


def _apply(report, edits):
    for edit in edits:
        if edit[0] == "drop":
            report.pop(edit[1], None)
        elif edit[0] == "set":
            report[edit[1]] = edit[2]
        elif edit[0] == "vertex":
            cut = report.get("cut")
            if isinstance(cut, dict) and isinstance(cut.get(edit[1]), list):
                cut[edit[1]].append(edit[2])
        elif edit[0] == "counter":
            counters = report.get("counters")
            if isinstance(counters, dict):
                counters[edit[1]] = edit[2]
        else:
            report["value"] = edit[1]
    return report


def _claim_holds(graph, report):
    """What an 'ok' from verify must mean for a plain cut claim."""
    cut = report["cut"]
    sides = [cut["L"], cut["S"], cut["R"]]
    everything = [v for side in sides for v in side]
    if sorted(everything) != list(range(graph.n)) or not cut["L"] or not cut["R"]:
        return False
    weight = (
        len(cut["S"]) if isinstance(graph, Graph) else sum(graph.weights[v] for v in cut["S"])
    )
    return weight == report["value"]


@pytest.fixture(scope="module")
def verify_cases(tmp_path_factory):
    """(graph, graph file, report JSON) for an undirected cut, a digraph cut
    and a k-connected claim."""
    base = tmp_path_factory.mktemp("verify")
    cases = []
    for name, g, extra in (
        ("path", path(6), []),
        ("digraph", random_digraph(7, 0.4, 5, 3), []),
        ("petersen", petersen(), ["--algo", "gabow", "--k", "3"]),
    ):
        gpath = _write(str(base), name + ".g", serialize_graph(g))
        rpath = os.path.join(str(base), name + ".json")
        with open(rpath, "w") as fh, contextlib.redirect_stdout(fh):
            assert main(["compute", gpath, *extra]) == 0
        with open(rpath) as fh:
            cases.append((g, gpath, fh.read()))
    return cases


class TestVerifyFuzz:
    @FUZZ
    @given(st.integers(0, 2), report_edits())
    def test_verify_exit_codes(self, capsys, verify_cases, which, edits):
        g, gpath, text = verify_cases[which]
        report = _apply(json.loads(text), edits)
        with tempfile.TemporaryDirectory() as tmp:
            rpath = _write(tmp, "r.json", json.dumps(report))
            code, out, _ = _run(capsys, "verify", gpath, rpath)
        if code == 0:
            assert out.strip() == "ok"
            assert report["schema"] == 1 and report["algorithm"] in ALGORITHMS
            assert all(type(v) is int for v in report["counters"].values())
            if not report.get("complete") and not report.get("k_connected"):
                assert _claim_holds(g, report), report

    def test_repeated_separator_vertex_is_rejected(self, tmp_path, capsys):
        g = path(3)
        gpath = _write(str(tmp_path), "p3.g", serialize_graph(g))
        main(["compute", gpath])
        report = json.loads(capsys.readouterr().out)
        assert report["cut"]["S"] == [1] and report["value"] == 1
        report["cut"]["S"] = [1, 1]
        report["value"] = 2
        rpath = _write(str(tmp_path), "r.json", json.dumps(report))
        code, _, err = _run(capsys, "verify", gpath, rpath)
        assert code == 1 and "does not validate" in err

    def test_deeply_nested_report(self, tmp_path, capsys):
        gpath = _write(str(tmp_path), "p3.g", serialize_graph(path(3)))
        rpath = _write(str(tmp_path), "r.json", "[" * 100_000 + "]" * 100_000)
        code, _, _ = _run(capsys, "verify", gpath, rpath)
        assert code == 2

