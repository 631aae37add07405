import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import bipgirth
from bipgirth.cli import build_parser, main, parse_rational
from bipgirth.constructions import circulant
from bipgirth.digraph import girth
from bipgirth.io import parse_edge_list, to_edge_list


@pytest.fixture
def six_cycle_file(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(to_edge_list(circulant(2, 1, 1)))
    return str(path)


class TestParseRational:
    def test_accepts_fractions(self):
        assert parse_rational("2/5") == pytest.approx(0.4)
        assert parse_rational("3") == 3

    def test_rejects_decimals(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational("0.4")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational("1e-3")

    def test_ascii_digits_only(self):
        import argparse
        for text in ["\u0661/\u0663", "1_0/3", "1/3\n", " 1/3", "\uff11/3"]:
            with pytest.raises(argparse.ArgumentTypeError):
                parse_rational(text)


class TestConstruct:
    def test_circulant_stdout(self, capsys):
        rc = main(["construct", "circulant", "--k", "2", "--s", "1", "--t", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "bipartite 3 3"
        assert len(lines) == 7  # header + six edges

    def test_dot_format(self, capsys):
        rc = main(["construct", "circulant", "--k", "2", "--s", "1", "--t", "1",
                   "--format", "dot"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_write_to_file(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = main(["construct", "layered", "--k", "2", "--t", "1",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("bipartite 3 3")

    def test_random_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        rc = main(["construct", "random", "--na", "6", "--nb", "6",
                   "--alpha", "1/3", "--beta", "1/3", "--seed", "9",
                   "--out", str(out)])
        assert rc == 0
        rc = main(["comply", str(out), "--alpha", "1/3", "--beta", "1/3"])
        assert rc == 0
        out_text = capsys.readouterr().out
        assert "compliant true" in out_text

    def test_offset(self, capsys):
        rc = main(["construct", "offset", "--n", "5",
                   "--out-offsets", "0,1", "--in-offsets", "1"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("bipartite 5 5")

    def test_offset_leading_minus(self, capsys):
        # a residue list led by a negative number reads the same as after `=`
        outs = []
        for argv in (["--out-offsets", "-1,2"], ["--out-offsets=-1,2"]):
            rc = main(["construct", "offset", "--n", "5", *argv, "--in-offsets", "0"])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("bipartite 5 5")

    def test_infeasible_reports_error(self, capsys):
        rc = main(["construct", "layered", "--k", "0", "--t", "1"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestGirthAndLayers:
    def test_girth(self, six_cycle_file, capsys):
        rc = main(["girth", six_cycle_file])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "girth 6"
        assert lines[1].startswith("cycle ")
        assert len(lines[1].split()) == 7

    def test_layers(self, six_cycle_file, capsys):
        rc = main(["layers", six_cycle_file, "--vertex", "A0", "--max", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "0: A0"
        assert lines[1].startswith("1: B")

    def test_layers_depth_zero(self, six_cycle_file, capsys):
        rc = main(["layers", six_cycle_file, "--vertex", "B1", "--max", "0"])
        assert rc == 0
        assert capsys.readouterr().out == "0: B1\n"

    def test_bad_vertex(self, six_cycle_file, capsys):
        rc = main(["layers", six_cycle_file, "--vertex", "Q7"])
        assert rc == 1

    def test_missing_file(self, capsys):
        rc = main(["girth", "/nonexistent/g.txt"])
        assert rc == 1


class TestClassify:
    def test_bad(self, capsys):
        rc = main(["classify", "--k", "2", "--alpha", "1/3", "--beta", "1/3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "BAD witness:s=1,t=1"

    def test_good(self, capsys):
        rc = main(["classify", "--k", "2", "--alpha", "2/5", "--beta", "1/4"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("GOOD rule:k'=2")

    def test_unknown(self, capsys):
        rc = main(["classify", "--k", "2", "--alpha", "9/25", "--beta", "23/100"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "UNKNOWN"

    def test_good_point_with_tiny_beta(self, capsys):
        # the bad witness would need t near 500,000 here; it is found in closed form
        rc = main(["classify", "--k", "2", "--alpha", "1/2", "--beta", "1/1000000"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "GOOD rule:k'=2: 2*alpha+beta>1"

    def test_decimal_rejected(self, capsys):
        rc = main(["classify", "--k", "2", "--alpha", "0.4", "--beta", "1/4"])
        assert rc == 1


class TestRegion:
    def test_csv(self, capsys):
        rc = main(["region", "--k", "2", "--resolution", "10"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "alpha,beta,status,provenance"
        assert len(lines) == 1 + 11 * 11

    def test_svg_file(self, tmp_path):
        out = tmp_path / "r.svg"
        rc = main(["region", "--k", "2", "--resolution", "8",
                   "--format", "svg", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<svg")


class TestSearch:
    def test_counterexample_exit_code(self, capsys):
        rc = main(["search", "--k", "2", "--na", "3", "--nb", "3",
                   "--alpha", "1/3", "--beta", "1/3"])
        assert rc == 2
        blob = json.loads(capsys.readouterr().out)
        assert blob["status"] == "FoundCounterexample"
        assert blob["witness"].startswith("bipartite 3 3")

    def test_exhausted_exit_code(self, capsys):
        rc = main(["search", "--k", "2", "--na", "3", "--nb", "3",
                   "--alpha", "2/3", "--beta", "2/3"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["status"] == "Exhausted"

    @pytest.mark.parametrize("na, nb, alpha, beta", [
        ("1000", "1", "0", "1"), ("1", "1000", "1", "0")], ids=["a1000", "b1000"])
    def test_large_side(self, na, nb, alpha, beta, capsys):
        # each vertex of the large side points at the one vertex of the
        # other, which points nowhere: the only candidate is acyclic
        rc = main(["search", "--k", "1", "--na", na, "--nb", nb,
                   "--alpha", alpha, "--beta", beta])
        assert rc == 2
        blob = json.loads(capsys.readouterr().out)
        assert blob["status"] == "FoundCounterexample"
        assert blob["nodes_explored"] == 1001
        assert girth(parse_edge_list(blob["witness"])) is None

    def test_random_mode_maps(self, capsys):
        rc = main(["search", "--k", "1", "--na", "3", "--nb", "3",
                   "--alpha", "1/3", "--beta", "1/3",
                   "--mode", "random", "--seed", "5", "--node-limit", "500"])
        assert rc == 2
        blob = json.loads(capsys.readouterr().out)
        assert blob["config"]["mode"] == "randomized"


class TestLemmas:
    def test_single_fact(self, capsys):
        rc = main(["lemmas", "--fact", "F4"])
        assert rc == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries[0]["fact_id"] == "F4"
        assert entries[0]["holds"] is True

    def test_unknown_fact(self, capsys):
        rc = main(["lemmas", "--fact", "F99"])
        assert rc == 1

    def test_stress_small(self, capsys):
        rc = main(["lemmas", "--stress", "newineq", "--count", "50",
                   "--seed", "7"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["violations"] == 0

    def test_stress_default_seed(self, capsys):
        rc = main(["lemmas", "--stress", "newineq", "--count", "20"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7


class TestAudit:
    def test_bigset(self, six_cycle_file, capsys):
        rc = main(["audit", "bigset", six_cycle_file, "--k", "2",
                   "--alpha", "1/3", "--beta", "1/3", "--delta", "3/2",
                   "--vertex", "A0"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["kind"] == "bigset"
        assert blob["passed"] is True

    def test_bigset_claimed_only_delta(self, tmp_path, capsys):
        path = tmp_path / "c6.txt"
        path.write_text(to_edge_list(circulant(6, 1, 1)))
        rc = main(["audit", "bigset", str(path), "--k", "6", "--alpha", "1/7",
                   "--beta", "1/7", "--delta", "5219/1000", "--vertex", "A0"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["passed"] is True
        assert blob["detail"] == "v=A0, k=6, delta=5219/1000 (claimed only)"

    def test_bigset_missing_flags(self, six_cycle_file, capsys):
        rc = main(["audit", "bigset", six_cycle_file])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: the following arguments are required: "
            "--k, --alpha, --beta, --delta, --vertex\n")

    def test_bigindeg(self, six_cycle_file, capsys):
        rc = main(["audit", "bigindeg", six_cycle_file,
                   "--alpha", "1/3", "--beta", "1/3"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["kind"] == "bigindeg"

    def test_bells(self, six_cycle_file, capsys):
        rc = main(["audit", "bells", six_cycle_file])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert set(blob) == {"kind", "conclusion_held", "lhs", "rhs"}
        assert blob["conclusion_held"] is True
        assert blob["lhs"] == "1/3"


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required(self, capsys):
        assert main(["classify", "--k", "2"]) == 1


def _drop_times(obj):
    if isinstance(obj, dict):
        return {k: _drop_times(v) for k, v in obj.items() if k != "wall_time_ms"}
    if isinstance(obj, list):
        return [_drop_times(v) for v in obj]
    return obj


class TestParserReuse:
    """`main` builds its parser once per process; no call may leave state
    in it that changes the next call."""

    SEARCH = ["search", "--k", "1", "--na", "3", "--nb", "3", "--alpha", "1/3",
              "--beta", "1/3"]

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_built_on_first_call_not_at_import(self):
        code = ("import contextlib, io\n"
                "from bipgirth import cli\n"
                "at_import = cli.build_parser.cache_info().misses\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    cli.main(['lemmas', '--fact', 'F4'])\n"
                "    cli.main(['classify', '--k', '2', '--alpha', '1/3', '--beta', '1/3'])\n"
                "print(at_import, cli.build_parser.cache_info().misses)\n")
        src = os.path.dirname(os.path.dirname(bipgirth.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout == "0 1\n", proc.stderr

    @pytest.mark.parametrize("first, second", [
        (SEARCH + ["--mode", "random", "--seed", "5", "--node-limit", "500"], SEARCH),
        (["lemmas", "--stress", "newineq", "--count", "5"], ["lemmas", "--all"]),
    ], ids=["search", "lemmas"])
    def test_calls_in_sequence_match_calls_alone(self, first, second, capsys):
        def run(argv):
            rc = main(argv)
            return rc, _drop_times(json.loads(capsys.readouterr().out))

        alone = []
        for argv in (first, second):
            build_parser.cache_clear()
            alone.append(run(argv))
        build_parser.cache_clear()
        assert [run(first), run(second)] == alone


class TestMalformedInput:
    """Each input error ends in exit 1 and one `error:` line, no traceback."""

    FILES = {
        "bare_bipartite": "bipartite\n",
        "bare_digraph": "digraph\n",
        "negative": "digraph -1\n",
        "one_by_one": "bipartite 1 1\nA0 B0\nB0 A0\n",
        "general": "digraph 2\n0 1\n1 0\n",
        "six_cycle": to_edge_list(circulant(2, 1, 1)),
        "extra_token": "bipartite 1 1\nA0 B0 junk\n",
        "arabic_digit": "bipartite 2 2\nA\u0661 B0\n",
    }

    @pytest.mark.parametrize("argv", [
        ["girth", "{bare_bipartite}"],
        ["girth", "{bare_digraph}"],
        ["girth", "{negative}"],
        ["classify", "--k", "2", "--alpha", "1/0", "--beta", "1/3"],
        ["layers", "{one_by_one}", "--vertex", "A5"],
        ["layers", "{general}", "--vertex", "A0"],
        ["comply", "{general}", "--alpha", "1/2", "--beta", "1/2"],
        ["audit", "bells", "{general}"],
        ["construct", "ch-reduce", "{one_by_one}"],
        ["search", "--k", "2", "--na", "3", "--nb", "3", "--alpha", "1/3",
         "--beta", "1/3", "--threads", "2"],
        ["construct", "random", "--na", "0", "--nb", "2", "--alpha", "1/2",
         "--beta", "1/2"],
        ["lemmas", "--stress", "newineq", "--count", "-3"],
        ["search", "--k", "2", "--na", "3", "--nb", "3", "--alpha", "1/3",
         "--beta", "1/3", "--node-limit", "0"],
        ["audit", "bigset", "{six_cycle}", "--k", "2", "--alpha", "1/3",
         "--beta", "1/3", "--delta", "3/2", "--vertex", "A0", "--horizon", "0"],
        ["comply", "{six_cycle}", "--alpha=-1/3", "--beta=-1/3"],
        ["construct", "offset", "--n", "3", "--out-offsets", "0,\u0661",
         "--in-offsets", "1"],
        ["search", "--k", "2", "--na", "3", "--nb", "3", "--alpha", "1/3",
         "--beta", "1/3", "--seed", "\u0667"],
    ])
    def test_one_line_error(self, argv, tmp_path, capsys):
        assert self.run(argv, tmp_path, capsys).startswith("error: ")

    @pytest.mark.parametrize("argv, message", [
        (["girth", "{extra_token}"],
         "error: line 2: expected two vertex labels, got 'A0 B0 junk'"),
        (["girth", "{arabic_digit}"],
         "error: line 2: expected two vertex labels, got 'A\u0661 B0'"),
        (["layers", "{six_cycle}", "--vertex", "A0", "--max", "-1"],
         "error: max_i=-1 is below 0"),
        (["lemmas", "--fact", "F4", "--count", "5"],
         "error: lemmas without --stress ignores --count"),
        (["audit", "bells", "{six_cycle}", "--horizon", "3", "--k", "9"],
         "error: unrecognized arguments: --horizon 3 --k 9"),
        (["audit", "bigindeg", "{six_cycle}", "--alpha", "1/3", "--beta", "1/3",
          "--vertex", "A0"], "error: unrecognized arguments: --vertex A0"),
        (["audit", "bigindeg", "{six_cycle}", "--alpha", "1/3", "--beta", "1/3",
          "--horizon", "3"], "error: unrecognized arguments: --horizon 3"),
        (["audit", "graph.txt"],
         "error: argument which: invalid choice: 'graph.txt' "
         "(choose from 'bigset', 'bigindeg', 'bells')"),
        (["classify", "--k", "\u0662", "--alpha", "1/3", "--beta", "1/3"],
         "error: argument --k: '\u0662' is not a nonnegative integer"),
        (["classify", "--k", "2", "--alpha", "\u0661/\u0663", "--beta", "1/3"],
         "error: argument --alpha: '\u0661/\u0663' is not a nonnegative p/q "
         "rational (decimals are rejected)"),
        (["classify", "--k", "1_0", "--alpha", "1/3", "--beta", "1/3"],
         "error: argument --k: '1_0' is not a nonnegative integer"),
        (["lemmas", "--stress", "newineq", "--count", "\u0661\u0660"],
         "error: argument --count: '\u0661\u0660' is not a positive integer"),
        (["search", "--k", "2", "--na", "3", "--nb", "3", "--alpha", "1/3",
          "--beta", "1/3", "--seed", "5"],
         "error: search without --mode random ignores --seed"),
        (["search", "--k", "2", "--na", "3", "--nb", "3", "--alpha", "1/3",
          "--beta", "1/3", "--mode", "random", "--eulerian"],
         "error: randomized mode does not take eulerian"),
        # random.Random(-s) is random.Random(s): a negative seed has no stream of its own
        (["search", "--k", "2", "--na", "3", "--nb", "3", "--alpha", "1/3",
          "--beta", "1/3", "--mode", "random", "--seed", "-3", "--node-limit", "7"],
         "error: argument --seed: '-3' is not a nonnegative integer"),
        (["construct", "random", "--na", "3", "--nb", "3", "--alpha", "1/3",
          "--beta", "1/3", "--seed", "-2"],
         "error: argument --seed: '-2' is not a nonnegative integer"),
        (["lemmas", "--stress", "newineq", "--seed", "-7"],
         "error: argument --seed: '-7' is not a nonnegative integer"),
        (["classify", "--k", "2", "--alpha", "3/2", "--beta", "1/3"],
         "error: (3/2,1/3) outside [0,1]^2"),
        (["construct", "offset", "--n", "0", "--out-offsets", "0", "--in-offsets", "1"],
         "error: n must be positive"),
        (["audit", "bigset", "{six_cycle}", "--k", "3", "--alpha", "1/3", "--beta", "1/3",
          "--delta", "9/4", "--vertex", "A0"], "error: girth 6 is not more than 2k=6"),
        (["search", "--k", "2", "--na", "3", "--nb", "3", "--alpha", "2", "--beta", "1/3"],
         "error: required degrees lie outside 0..side sizes"),
        (["region", "--k", "2", "--resolution", "1"], "error: resolution must be >= 2"),
    ], ids=["extra_token", "arabic_digit", "negative_max", "lemmas_count",
            "bells_options", "bigindeg_vertex", "bigindeg_horizon", "audit_no_kind",
            "arabic_k", "arabic_alpha",
            "underscore_k", "arabic_count", "search_seed", "random_eulerian",
            "negative_search_seed", "negative_construct_seed",
            "negative_stress_seed", "classify_range", "offset_n_zero",
            "bigset_girth", "search_degrees", "region_resolution"])
    def test_message_names_the_cause(self, argv, message, tmp_path, capsys):
        assert self.run(argv, tmp_path, capsys) == message

    @pytest.mark.parametrize("header", ["bipartite 1000000000 3", "digraph 1000000000"])
    def test_header_too_large_for_memory(self, header, tmp_path):
        self.girth_in_1gb(f"{header}\n", tmp_path)

    def test_header_too_large_before_a_label_too_long(self, tmp_path):
        # the per-line reader allocates the rows before it reads a label
        self.girth_in_1gb(f"digraph 1000000000\n0 {'1' * 5000}\n", tmp_path)

    @staticmethod
    def girth_in_1gb(text, tmp_path):
        """`girth` on `text` must fail with `error: out of memory`: the rows
        of 10^9 vertices need 8 GB, and the child process runs with 1 GB of
        address space, lowered in the child only."""
        path = tmp_path / "huge.txt"
        path.write_text(text, encoding="utf-8")

        def limit_memory():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        src = os.path.dirname(os.path.dirname(bipgirth.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "bipgirth.cli", "girth", str(path)],
            capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: out of memory"]

    def run(self, argv, tmp_path, capsys):
        """The one stderr line of a command that must exit 1."""
        paths = {}
        for name, text in self.FILES.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text, encoding="utf-8")
        rc = main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1
        return err[0]


_JUNK = [None, "-1", "0", "50", "A50", "B49", "C0", "x", "1/2", "digraph"]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_token_files_exit_0_or_1(tmp_path_factory, data):
    # a valid edge list, then up to three tokens replaced or deleted; every
    # size stays at most 50 because the row builder allocates its rows up front
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        header = ["bipartite", str(n), str(m)]
        edges = [(f"A{i}", f"B{j}") for i in range(n) for j in range(m)]
        edges += [(f"B{j}", f"A{i}") for i in range(n) for j in range(m)]
    else:
        header = ["digraph", str(n)]
        edges = [(str(i), str(j)) for i in range(n) for j in range(n)]
    lines = [header] + [list(e) for e in data.draw(
        st.lists(st.sampled_from(edges), max_size=8))]
    for _ in range(data.draw(st.integers(0, 3))):
        if not any(lines):
            break
        line = data.draw(st.sampled_from([ln for ln in lines if ln]))
        pos = data.draw(st.integers(0, len(line) - 1))
        tok = data.draw(st.sampled_from(_JUNK))
        if tok is None:
            del line[pos]
        else:
            line[pos] = tok
    path = tmp_path_factory.getbasetemp() / "tokens.txt"
    path.write_text("\n".join(" ".join(ln) for ln in lines) + "\n")
    assert main(["girth", str(path)]) in (0, 1)


_HEADERS = [b"", b"bipartite 3 3\n", b"digraph 4\n"]


@given(st.sampled_from(_HEADERS),
       st.binary(max_size=200) | st.text("AB0123 \t\r\n-").map(str.encode))
@settings(max_examples=300, deadline=None)
def test_any_bytes_exit_0_or_1(tmp_path_factory, header, body):
    # any file of at most 200 bytes; an exception main does not turn into
    # exit 1 fails the test with its traceback
    path = tmp_path_factory.getbasetemp() / "bytes.txt"
    path.write_bytes((header + body)[:200])
    assert main(["girth", str(path)]) in (0, 1)
