import csv
import json
import os
import resource
import subprocess
import sys

import pytest

from conftest import complete, directed_cycle, path, petersen
from vcut.cli import main
from vcut.graphs import serialize_graph
from vcut.oracle import generate_planted


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "petersen.g"
    p.write_text(serialize_graph(petersen()))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def source_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_process(*argv, address_space=None):
    """`python -m vcut.cli argv` in a separate process under a timeout,
    with its address space capped at `address_space` bytes when given."""

    def cap():
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "vcut.cli", *argv],
        capture_output=True, text=True, timeout=60, env=source_env(), preexec_fn=cap,
    )


class TestNoConfig:
    """Every constant is a module constant: `--config` is an unknown
    argument, and a report that still carries the former `config` object
    verifies."""

    @pytest.mark.parametrize(
        "argv",
        [["compute", "g.txt"], ["check-pr", "crossing", "-n", "8"], ["bench", "suite.txt", "out.csv"]],
        ids=["compute", "check-pr", "bench"],
    )
    def test_config_flag_is_usage_error(self, argv):
        done = run_process(*argv, "--config", "vcut.cfg")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage: vcut ")
        assert "unrecognized arguments: --config vcut.cfg" in done.stderr
        assert "Traceback" not in done.stderr

    def test_report_with_config_object_verifies(self, petersen_file, tmp_path, capsys):
        code, out = run(capsys, "compute", petersen_file)
        rep = json.loads(out)
        assert code == 0 and "config" not in rep
        rep["config"] = {"lam": 8, "eps_balanced": 0.25, "crossing_c": 2, "oracle_weighted_guard": 24}
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep, sort_keys=True))
        code, out = run(capsys, "verify", petersen_file, str(rep_path))
        assert code == 0 and out.strip() == "ok"


NO_NUMPY = """
import sys
sys.modules["numpy"] = None
import vcut.cli, vcut.gabow, vcut.unweighted, vcut.weighted
from vcut.oracle import random_graph
built = []
real = vcut.gabow.build_mixing_graph
vcut.gabow.build_mixing_graph = lambda n, d: built.append((n, d)) or real(n, d)
vcut.gabow.gabow_vc(random_graph(32, 0.7, 0), 16)
assert built, "no mixing graph built"
sys.exit(vcut.cli.main(["check-pr", "mixing", "-n", "32", "-d", "4"]))
"""


def test_runs_without_numpy():
    """The drivers, the gap-based decision's mixing graph and `check-pr
    mixing` run in a process where `import numpy` fails."""
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY], capture_output=True, text=True, timeout=60,
        env=source_env(),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["method"] == "closed-form"


class TestCompute:
    def test_unweighted_value(self, petersen_file, capsys):
        code, out = run(capsys, "compute", petersen_file, "--algo", "unweighted")
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == 3 and rep["schema"] == 1
        assert rep["counters"]["flow_calls"] > 0

    def test_complete_report(self, tmp_path, capsys):
        p = tmp_path / "k5.g"
        p.write_text(serialize_graph(complete(5)))
        code, out = run(capsys, "compute", str(p))
        rep = json.loads(out)
        assert code == 0 and rep["complete"] is True and rep["value"] == 4

    @pytest.mark.parametrize("algo", ["auto", "unweighted", "gabow", "unbalanced", "terminal"])
    def test_empty_graph_value_zero(self, tmp_path, capsys, algo):
        p = tmp_path / "empty.g"
        p.write_text("p 0 0 u\n")
        code, out = run(capsys, "compute", str(p), "--algo", algo, "--k", "1")
        rep = json.loads(out)
        assert code == 0 and rep["complete"] is True and rep["value"] == 0

    def test_parse_error_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.g"
        p.write_text("p 3 1 u\ne 0 0\n")
        code, _ = run(capsys, "compute", str(p))
        assert code == 2

    @pytest.mark.parametrize("text", ["p 3 2 u\ne 0 1\ne 1 0\n", "p 3 2 d\ne 2 1\ne 2 1\n"])
    def test_duplicate_edge_is_parse_error(self, tmp_path, capsys, text):
        p = tmp_path / "dup.g"
        p.write_text(text)
        code = main(["compute", str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("parse error") and "duplicate" in captured.err

    def test_gabow_and_auto_dispatch(self, petersen_file, capsys):
        code, out = run(capsys, "compute", petersen_file, "--algo", "gabow", "--k", "4")
        assert code == 0 and json.loads(out)["value"] == 3
        code, out = run(capsys, "compute", petersen_file, "--algo", "gabow", "--k", "3")
        assert code == 0 and json.loads(out)["k_connected"] is True

    def test_gabow_without_k_is_usage_error(self, petersen_file, capsys):
        code = main(["compute", petersen_file, "--algo", "gabow"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "--k" in captured.err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonpositive_k_is_usage_error(self, petersen_file, capsys, k):
        code = main(["compute", petersen_file, "--algo", "gabow", "--k", k])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "--k" in captured.err

    def test_deterministic_reports(self, petersen_file, capsys):
        _, a = run(capsys, "compute", petersen_file)
        _, b = run(capsys, "compute", petersen_file)
        ra, rb = json.loads(a), json.loads(b)
        ra.pop("wall_time_ms")
        rb.pop("wall_time_ms")
        assert ra == rb

    def test_terminal_and_unbalanced_algos(self, petersen_file, capsys):
        for algo in ("terminal", "unbalanced"):
            code, out = run(capsys, "compute", petersen_file, "--algo", algo)
            rep = json.loads(out)
            assert code == 0 and rep["value"] >= 3


class TestOracleGuard:
    """`--oracle` on a graph above the brute-force oracle's size guard (64
    vertices, 24 for weighted digraphs) is a usage error, found before any
    work is done."""

    GRAPHS = [path(65), directed_cycle([1] * 25)]

    def _write(self, tmp_path, g):
        p = tmp_path / "big.g"
        p.write_text(serialize_graph(g))
        return str(p)

    @pytest.mark.parametrize("g", GRAPHS, ids=["path65", "digraph25"])
    def test_compute(self, g, tmp_path, capsys, monkeypatch):
        p = self._write(tmp_path, g)

        def no_work(*args):
            raise AssertionError("driver ran before the oracle guard")

        monkeypatch.setattr("vcut.cli._run_algorithm", no_work)
        code = main(["compute", p, "--oracle"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("usage error") and "--oracle" in captured.err

    @pytest.mark.parametrize("g", GRAPHS, ids=["path65", "digraph25"])
    def test_verify(self, g, tmp_path, capsys, monkeypatch):
        p = self._write(tmp_path, g)
        code, out = run(capsys, "compute", p)
        assert code == 0
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(out)
        assert run(capsys, "verify", p, str(rep_path))[0] == 0

        def no_work(*args):
            raise AssertionError("cut checked before the oracle guard")

        monkeypatch.setattr("vcut.cli.validate_cut", no_work)
        code = main(["verify", p, str(rep_path), "--oracle"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("usage error") and "--oracle" in captured.err


class TestVerify:
    def test_roundtrip_ok(self, petersen_file, tmp_path, capsys):
        code, out = run(capsys, "compute", petersen_file)
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(out)
        code, out = run(capsys, "verify", petersen_file, str(rep_path), "--oracle")
        assert code == 0 and out.strip() == "ok"

    def test_tampered_cut_rejected(self, petersen_file, tmp_path, capsys):
        _, out = run(capsys, "compute", petersen_file)
        rep = json.loads(out)
        rep["cut"]["S"] = rep["cut"]["S"][:-1]
        rep["cut"]["R"].append(0)
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep))
        code, _ = run(capsys, "verify", petersen_file, str(rep_path))
        assert code == 1

    def test_oracle_value_mismatch(self, petersen_file, tmp_path, capsys):
        _, out = run(capsys, "compute", petersen_file)
        rep = json.loads(out)
        # Pretend a larger (still valid) cut is minimum: take a vertex
        # neighborhood as separator.
        g = petersen()
        rep["value"] = 4
        rep["cut"] = {
            "L": [0],
            "S": sorted(g.neighbor_set(0)) + [7],
            "R": sorted(set(range(10)) - {0, 7} - g.neighbor_set(0)),
        }
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep))
        code, _ = run(capsys, "verify", petersen_file, str(rep_path), "--oracle")
        assert code == 1


    @pytest.mark.parametrize(
        "edit",
        [
            lambda rep: rep.pop("value"),
            lambda rep: rep.update(value="3"),
            lambda rep: rep.update(value=True),
            lambda rep: rep.pop("cut"),
            lambda rep: rep.update(cut=[[0], [1], [2]]),
            lambda rep: rep["cut"].pop("S"),
            lambda rep: rep["cut"].update(L=["0"]),
            lambda rep: rep["cut"].update(R=None),
        ],
        ids=[
            "no-value", "str-value", "bool-value", "no-cut", "cut-list", "cut-no-S",
            "str-vertex", "null-side",
        ],
    )
    def test_malformed_report_fields(self, petersen_file, tmp_path, capsys, edit):
        _, out = run(capsys, "compute", petersen_file)
        rep = json.loads(out)
        edit(rep)
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep))
        code = main(["verify", petersen_file, str(rep_path)])
        captured = capsys.readouterr()
        assert code in (1, 2)
        assert "malformed report" in captured.err and "ok" not in captured.out

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rep: rep.pop("schema"),
            lambda rep: rep.update(schema=2),
            lambda rep: rep.update(schema=True),
            lambda rep: rep.update(schema="1"),
            lambda rep: rep.pop("algorithm"),
            lambda rep: rep.update(algorithm="auto"),
            lambda rep: rep.update(algorithm=["unweighted"]),
            lambda rep: rep.pop("counters"),
            lambda rep: rep.update(counters=[1, 2]),
            lambda rep: rep["counters"].update(flow_calls=1.5),
            lambda rep: rep["counters"].update(flow_calls=True),
            lambda rep: rep["counters"].update(flow_calls=None),
        ],
        ids=[
            "no-schema", "schema-2", "bool-schema", "str-schema", "no-algorithm",
            "auto-algorithm", "list-algorithm", "no-counters", "counters-list",
            "float-counter", "bool-counter", "null-counter",
        ],
    )
    def test_malformed_envelope(self, petersen_file, tmp_path, capsys, edit):
        _, out = run(capsys, "compute", petersen_file)
        rep = json.loads(out)
        edit(rep)
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep))
        code = main(["verify", petersen_file, str(rep_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("verify: malformed report")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "text, value, code",
        [
            ("p 3 3 u\ne 0 1\ne 1 2\ne 0 2\n", 2, 0),
            ("p 3 3 u\ne 0 1\ne 1 2\ne 0 2\n", 0, 1),
            ("p 3 3 u\ne 0 1\ne 1 2\ne 0 2\n", None, 1),
            ("p 3 3 u\ne 0 1\ne 1 2\ne 0 2\n", "x", 2),
            ("p 3 3 u\ne 0 1\ne 1 2\ne 0 2\n", 2.0, 2),
            ("p 0 0 u\n", 0, 0),
            ("p 0 0 u\n", -1, 1),
            ("p 2 2 d\ne 0 1\ne 1 0\n", None, 0),
            ("p 2 2 d\ne 0 1\ne 1 0\n", 1, 1),
            ("p 1 0 d\n", None, 0),
            ("p 1 0 d\n", 0, 1),
        ],
        ids=[
            "triangle", "triangle-zero", "triangle-null", "triangle-str", "triangle-float",
            "empty", "empty-minus-one", "digraph", "digraph-int", "one-vertex-digraph",
            "one-vertex-digraph-zero",
        ],
    )
    def test_complete_claim_value_checked(self, tmp_path, capsys, text, value, code):
        """A complete graph's kappa is n-1 (0 when n <= 1); a complete
        digraph reports no value.  The oracle agrees on every true claim."""
        graph_path = tmp_path / "complete.g"
        graph_path.write_text(text)
        _, out = run(capsys, "compute", str(graph_path))
        rep = json.loads(out)
        assert rep["complete"] is True
        rep["value"] = value
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep))
        for oracle in ([], ["--oracle"]) if code == 0 else ([],):
            got = main(["verify", str(graph_path), str(rep_path), *oracle])
            captured = capsys.readouterr()
            assert got == code, captured.err
            assert (captured.out.strip() == "ok") == (code == 0)
            assert "Traceback" not in captured.err

    def test_report_not_an_object(self, petersen_file, tmp_path, capsys):
        rep_path = tmp_path / "rep.json"
        rep_path.write_text("[1, 2]")
        code, _ = run(capsys, "verify", petersen_file, str(rep_path))
        assert code == 2

    def test_k_connected_claims_rechecked(self, tmp_path, capsys):
        graph_path = tmp_path / "path.g"
        graph_path.write_text(serialize_graph(path(6)))
        rep_path = tmp_path / "rep.json"
        _, out = run(capsys, "compute", str(graph_path), "--algo", "gabow", "--k", "1")
        rep = json.loads(out)
        assert rep["k_connected"] is True
        rep_path.write_text(out)
        code, out = run(capsys, "verify", str(graph_path), str(rep_path))
        assert code == 0 and out.strip() == "ok"
        for false_k in (2, 6, 7):  # kappa(path) = 1; no 6-vertex graph is 6-connected
            rep["k"] = false_k
            rep_path.write_text(json.dumps(rep))
            code, out = run(capsys, "verify", str(graph_path), str(rep_path))
            assert code == 1 and out == ""

    def test_true_k_connected_claim_ok(self, petersen_file, tmp_path, capsys):
        _, out = run(capsys, "compute", petersen_file, "--algo", "gabow", "--k", "3")
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(out)
        code, out = run(capsys, "verify", petersen_file, str(rep_path), "--oracle")
        assert code == 0 and out.strip() == "ok"
        rep = json.loads(rep_path.read_text())
        rep["k"] = 4
        rep_path.write_text(json.dumps(rep))
        code, _ = run(capsys, "verify", petersen_file, str(rep_path))
        assert code == 1


class TestCheckPr:
    def test_selector_certificate(self, capsys):
        code, out = run(capsys, "check-pr", "selector", "-n", "8", "-k", "2", "-e", "1/2")
        cert = json.loads(out)
        assert code == 0 and cert["verdict"] is True and cert["sizes_ok"]
        assert cert["family"] == "2-subsets"

    def test_degenerate_params_skipped(self, capsys):
        for n, k in ((4, 2), (20, 10)):  # below and above the exhaustive check's gate
            code, out = run(capsys, "check-pr", "selector", "-n", str(n), "-k", str(k), "-e", "1/2")
            cert = json.loads(out)
            assert code == 0 and cert["verdict"] == "skipped"
            assert cert["reason"].startswith("no selector with member sets >= 2")

    @pytest.mark.parametrize("eps", ["abc", "1/0", "1/2/3"])
    def test_bad_eps_is_usage_error(self, capsys, eps):
        code = main(["check-pr", "selector", "-n", "8", "-e", eps])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("usage error: --eps") and err.count("\n") == 1

    @pytest.mark.parametrize("obj", ["selector", "disperser"])
    def test_empty_eps_is_usage_error(self, capsys, obj):
        code = main(["check-pr", obj, "-n", "8", "-e", ""])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("usage error: --eps") and err.count("\n") == 1

    @pytest.mark.parametrize("obj", ["crossing", "selector", "disperser", "mixing"])
    def test_nonpositive_n_is_usage_error(self, capsys, obj):
        code = main(["check-pr", obj, "-n", "-3"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("usage error: -n") and err.count("\n") == 1

    @pytest.mark.parametrize("alpha", ["nan", "-1", "inf", "0"])
    def test_out_of_domain_alpha_is_usage_error(self, capsys, alpha):
        code = main(["check-pr", "crossing", "-n", "8", "--alpha", alpha])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("usage error: --alpha") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("obj,d", [("disperser", "-1"), ("disperser", "0"), ("mixing", "0")])
    def test_nonpositive_degree_is_usage_error(self, capsys, obj, d):
        code = main(["check-pr", obj, "-n", "8", "-d", d])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("usage error: -d") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["selector", "-n", "8", "-e", "0"],
            ["selector", "-n", "8", "-k", "0"],
            ["selector", "-n", "20", "-k", "0"],
        ],
    )
    def test_builder_invariant_is_one_line(self, capsys, argv):
        code = main(["check-pr", *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("invariant error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, cert",
        [
            (
                ["crossing", "-n", "100000"],
                {"object": "crossing", "params": {"alpha": 2.0, "n": 100000},
                 "reason": "exhaustive check gated at n <= 14", "verdict": "skipped"},
            ),
            (
                ["selector", "-n", "100000"],
                {"family": "2-subsets", "object": "selector",
                 "params": {"eps": "1/2", "k": 2, "n": 100000},
                 "reason": "exhaustive check gated at n <= 12", "verdict": "skipped"},
            ),
        ],
        ids=["crossing", "selector"],
    )
    def test_size_gate_before_building(self, argv, cert):
        """Above the exhaustive check's gate the certificate is "skipped"
        and nothing is built: the families hold n^2 pairs and n(n-1)/2
        subsets, far past a 1 GiB address space at n = 100,000."""
        done = run_process("check-pr", *argv, address_space=1 << 30)
        assert done.returncode == 0, done.stderr
        assert done.stdout == json.dumps(cert, sort_keys=True) + "\n"

    def test_crossing_and_disperser_and_mixing(self, capsys):
        code, out = run(capsys, "check-pr", "crossing", "-n", "9", "--alpha", "2")
        assert code == 0 and json.loads(out)["verdict"] is True
        code, out = run(capsys, "check-pr", "disperser", "-n", "12", "-k", "4", "-d", "4", "-e", "1/8")
        assert code == 0 and json.loads(out)["verdict"] is True
        code, out = run(capsys, "check-pr", "mixing", "-n", "32", "-d", "4")
        cert = json.loads(out)
        assert code == 0 and cert["verdict"] is True and cert["max_degree"] <= 16
        # The method names the certificate used: the circulant's closed-form
        # spectrum, or the complete fallback, which needs none.
        assert cert["method"] == "closed-form"
        code, out = run(capsys, "check-pr", "mixing", "-n", "8", "-d", "7")
        assert code == 0 and json.loads(out)["method"] == "complete"


class TestBench:
    @pytest.mark.parametrize(
        "row",
        [
            "foo 1 2 3",
            "graph 12",
            "graph x 0.3 1",
            "graph 10 0.3 1 7",
            "digraph 8 0.3 1 4 5",
            "graph 10 1.5 1",
            "graph 10 nan 1",
            "graph -2 0.3 1",
            "digraph 5 0.5 1 0",
            # n * wmax reaches 2^62, past the 64-bit weight sums
            "digraph 5 0.5 1 4611686018427387904",
        ],
    )
    def test_malformed_row_is_parse_error(self, tmp_path, capsys, row):
        suite = tmp_path / "suite.txt"
        suite.write_text(f"# header\ngraph 8 0.3 1\n\n{row}\n")
        out = tmp_path / "o.csv"
        code = main(["bench", str(suite), str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("parse error: suite line 4: ") and err.count("\n") == 1

    def test_rows_and_determinism(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("graph 10 0.3 1\ngraph 12 0.25 2\ndigraph 7 0.35 3 5\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        code, _ = run(capsys, "bench", str(suite), str(out1))
        assert code == 0
        code, _ = run(capsys, "bench", str(suite), str(out2))
        assert code == 0
        rows1 = [ln.split(",") for ln in out1.read_text().splitlines()]
        rows2 = [ln.split(",") for ln in out2.read_text().splitlines()]
        assert len(rows1) == 4  # header + 3 rows
        values1 = [r[5] for r in rows1[1:]]
        values2 = [r[5] for r in rows2[1:]]
        assert values1 == values2

    def test_unreadable_suite_is_one_line(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_bytes(b"graph 8 0.3 1\n\xff\xfe\n")
        code = main(["bench", str(suite), str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_output_is_one_line(self, tmp_path, capsys, monkeypatch):
        """The output is opened before any row runs."""
        suite = tmp_path / "suite.txt"
        suite.write_text("graph 8 0.3 1\n")
        monkeypatch.setattr("vcut.cli._bench_row", lambda row: pytest.fail("a row ran"))
        code = main(["bench", str(suite), str(tmp_path / "missing" / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1

    def test_empty_suite_header_only(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("# nothing\n")
        out = tmp_path / "o.csv"
        code, _ = run(capsys, "bench", str(suite), str(out))
        assert code == 0
        assert out.read_text().strip().startswith("kind,")
        assert len(out.read_text().splitlines()) == 1

    def test_jobs_flag(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("graph 8 0.3 1\ngraph 8 0.3 2\n")
        out = tmp_path / "o.csv"
        code, _ = run(capsys, "bench", str(suite), str(out), "--jobs", "2")
        assert code == 0 and len(out.read_text().splitlines()) == 3

    def test_jobs_rows_match_serial(self, tmp_path, capsys):
        """A process pool writes the rows of a serial run, in suite order;
        only the timing column may differ."""
        suite = tmp_path / "suite.txt"
        suite.write_text("graph 10 0.3 1\ngraph 9 0.4 2\ndigraph 7 0.35 3 5\ngraph 8 0.5 4\n")
        tables = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            code, _ = run(capsys, "bench", str(suite), str(out), "--jobs", jobs)
            assert code == 0
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                assert float(row.pop("wall_ms")) >= 0
            tables.append(rows)
        assert len(tables[0]) == 4 and tables[0] == tables[1]


class TestInstanceFiles:
    def test_planted_instance_roundtrip_via_format(self, tmp_path):
        from vcut.oracle import load_instance, save_instance

        inst = generate_planted("unbalanced", {"l": 2, "s": 2, "r": 10}, seed=9)
        text = save_instance(inst)
        again = load_instance(text)
        assert again.cut.S == inst.cut.S
