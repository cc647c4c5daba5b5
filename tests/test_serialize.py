import copy
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env
from netform import (INF, BidirectedNetwork, Mode, Params, TargetSets,
                     construct_path, run)
from netform.cli import main
from netform.dynamics import scan_witnesses
from netform.errors import DocumentError, TraceError
from netform.generators import (balanced_flower, complete_net, cycle, empty,
                                kautz, random_net)
from netform.metrics import (StructureFamily, clustering_coefficient,
                             diameter, has_open_and_closed_triangle, metrics,
                             structure_search)
from netform.serialize import (MAX_AGENTS, certificate_to_text,
                               emit_document, parse_cost, parse_document,
                               parse_k, to_dot, trace_from_text, trace_to_text)


def bi(k=INF, cs=F(1, 2), cl=F(1, 2)):
    return Params(k=k, c_s=cs, c_l=cl)


class TestCosts:
    def test_decimal_and_fraction_syntax(self):
        assert parse_cost("1.5") == F(3, 2)  # [PAPER] decimal cost syntax
        assert parse_cost("3/2") == F(3, 2)
        assert parse_cost(2) == F(2)

    def test_floats_rejected(self):
        with pytest.raises(DocumentError):
            parse_cost(1.5)

    def test_garbage_rejected_with_location(self):
        with pytest.raises(DocumentError, match="c_s"):
            parse_cost("two", "c_s")

    def test_huge_exponent_rejected_before_fraction(self):
        for text in ("1e4301", "1E-4301", "2.5e+9_999"):
            with pytest.raises(DocumentError, match="exponent"):
                parse_cost(text, "c_s")
        assert parse_cost("1e300") == 10 ** 300

    def test_unwritable_cost_rejected(self):
        # 10**4300 has 4301 digits, one more than int/str conversion allows
        with pytest.raises(DocumentError, match="c_l"):
            parse_cost("1e4300", "c_l")

    def test_giant_exponent_fails_fast(self):
        # in a child process, so a regression fails on the timeout instead of
        # hanging the suite while Fraction builds 10**999999999
        code = ("from netform.errors import DocumentError\n"
                "from netform.serialize import parse_cost\n"
                "try:\n    parse_cost('1e999999999')\n"
                "except DocumentError:\n    print('rejected')\n")
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, timeout=30)
        assert out.stdout.strip() == "rejected", out.stderr

    def test_k_parsing(self):
        assert parse_k("inf") == INF
        assert parse_k(3) == 3
        for bad in (0, -2, "3", True):
            with pytest.raises(DocumentError):
                parse_k(bad)


class TestDocuments:
    def docs(self):
        yield emit_document(cycle(4), bi(k=2))
        yield emit_document(balanced_flower(26, 10)[0],
                            Params(k=10, c_s=F(4), mode=Mode.DIRECTED))
        yield emit_document(random_net(5, 0.5, 0.5, 3), bi(),
                            targets=TargetSets(speak={0: frozenset({1, 2})}),
                            meta={"generator": "random"})

    def test_round_trip_identity(self):
        for doc in self.docs():
            net, params, targets, meta = parse_document(doc)
            assert emit_document(net, params, targets, meta or None) == doc

    def test_unknown_field_rejected(self):
        doc = emit_document(empty(2), bi())
        doc["frobnicate"] = 1
        with pytest.raises(DocumentError, match="frobnicate"):
            parse_document(doc)

    def test_self_loop_rejected_with_position(self):
        doc = emit_document(empty(2), bi())
        doc["speaking"] = [[0, 1], [1, 1]]
        with pytest.raises(DocumentError, match=r"speaking\[1\]"):
            parse_document(doc)

    def test_duplicate_edge_rejected(self):
        doc = emit_document(empty(2), bi())
        doc["listening"] = [[0, 1], [0, 1]]
        with pytest.raises(DocumentError, match="duplicate"):
            parse_document(doc)

    def test_missing_field_rejected(self):
        doc = emit_document(empty(2), bi())
        del doc["mode"]
        with pytest.raises(DocumentError, match="mode"):
            parse_document(doc)

    def test_agent_cap(self):
        # at cap + 1 only, so a broken guard allocates little
        doc = emit_document(empty(2), bi())
        doc["n"] = MAX_AGENTS + 1
        with pytest.raises(DocumentError, match=f"^n: {MAX_AGENTS + 1}"):
            parse_document(doc)
        header = {**BASE_TRACE, "n": MAX_AGENTS + 1}
        with pytest.raises(DocumentError, match="^n:"):
            trace_from_text(_trace_text(header))

    def test_decimal_cost_directed_document(self):
        doc = emit_document(empty(3), Params(k=2, c_s="1.5",
                                             mode=Mode.DIRECTED))
        _, params, _, _ = parse_document(doc)
        assert params.k == 2 and params.c_s == F(3, 2) and params.c_l == 0


class TestDot:
    def test_deterministic(self):
        net = random_net(5, 0.5, 0.5, 7)
        assert to_dot(net) == to_dot(net.copy())

    def test_isolated_vertices_listed(self):
        text = to_dot(empty(2))
        assert "  0;" in text and "  1;" in text and "->" not in text

    def test_stable_annotation_has_no_colors(self):
        # [PAPER] a stable network draws no green or red edges
        net = cycle(3)
        p = bi(cs=F(1), cl=F(1))
        text = to_dot(net, scan_witnesses(net, p))
        assert "red" not in text and "green" not in text

    def test_unstable_annotation_colors(self):
        net = BidirectedNetwork(2, [(0, 1)])
        text = to_dot(net, scan_witnesses(net, bi()))
        assert 'color="red"' in text and 'color="green"' in text


class TestTraces:
    def test_trace_round_trip(self):
        tr = run(random_net(5, 0.4, 0.4, 2), bi(), seed=11)
        text = trace_to_text(tr)
        back = trace_from_text(text)
        assert back.final == tr.final and back.moves == tr.moves
        assert back.seed == tr.seed and back.converged == tr.converged
        assert trace_to_text(back) == text

    def test_certificate_text_carries_step_labels(self):
        start = random_net(7, 0.3, 0.0, 4)
        p = Params(k=INF, c_s=F(2), mode=Mode.DIRECTED)
        cert = construct_path(start, p)
        text = certificate_to_text(cert, start, p)
        lines = text.splitlines()
        assert lines[1] == "step,kind,u,v,step_label"
        assert len(lines) == 2 + len(cert.moves)
        header = json.loads(lines[0])
        assert header["record"] == "certificate"

    def test_bad_trace_text_rejected(self):
        with pytest.raises(DocumentError):
            trace_from_text("{}\nstep,kind,u,v\n")


# a valid trace header on 3 vertices; with the row "0,-s,s,0,1" it replays
BASE_TRACE = {"record": "trace", "seed": 3, "rng_id": "python-random-mt19937",
              "n": 3, "k": "inf", "c_s": "1/2", "c_l": "1/2",
              "mode": "bidirected", "initial_speaking": [[0, 1]],
              "initial_listening": [[1, 0]], "converged": False,
              "steps_sampled": 1}


def _trace_text(header, rows=("0,-s,s,0,1",)):
    head = header if isinstance(header, str) else json.dumps(header)
    return "\n".join([head, "step,kind,edge,u,v", *rows]) + "\n"


def _without(key):
    return {k: v for k, v in BASE_TRACE.items() if k != key}


class TestTraceDefects:
    def test_base_trace_replays(self):
        tr = trace_from_text(_trace_text(BASE_TRACE))
        assert tr.final == BidirectedNetwork(3, [], [(1, 0)])

    @pytest.mark.parametrize("text, error, match", [
        pytest.param(_trace_text(_without("seed")), DocumentError,
                     "missing field 'seed'", id="missing-seed"),
        pytest.param(_trace_text({**BASE_TRACE, "mode": "weird"}),
                     DocumentError, "^mode:", id="unknown-mode"),
        pytest.param(_trace_text({**BASE_TRACE, "initial_speaking": [[0, 1], [2, 2]]}),
                     DocumentError, r"initial_speaking\[1\]: self-pair",
                     id="self-pair"),
        pytest.param(_trace_text({**BASE_TRACE, "n": "5"}), DocumentError,
                     "^n:", id="string-n"),
        pytest.param(_trace_text("{not json"), DocumentError, "not JSON",
                     id="non-json-header"),
        pytest.param(_trace_text("[1]"), DocumentError, "not a trace record",
                     id="list-header"),
        pytest.param(_trace_text(BASE_TRACE, ["0,-s,s,1,2"]), TraceError,
                     r"speaking edge \(1, 2\) not present",
                     id="remove-absent-edge"),
        pytest.param(_trace_text({**BASE_TRACE, "seed": 1.5}), DocumentError,
                     "^seed: expected int", id="float-seed"),
        pytest.param(_trace_text({**BASE_TRACE, "rng_id": 7}), DocumentError,
                     "^rng_id: expected str", id="int-rng-id"),
        pytest.param(_trace_text({**BASE_TRACE, "converged": 1}), DocumentError,
                     "^converged: expected bool", id="int-converged"),
        pytest.param(_trace_text({**BASE_TRACE, "steps_sampled": True}),
                     DocumentError, "^steps_sampled: expected int",
                     id="bool-steps"),
    ])
    def test_defect_raises_named_error(self, text, error, match):
        with pytest.raises(error, match=match):
            trace_from_text(text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)

FUZZ_DOCS = [
    emit_document(random_net(5, 0.5, 0.5, 3), bi(k=2),
                  targets=TargetSets(speak={0: frozenset({1, 2})},
                                     listen={3: frozenset({4})}),
                  meta={"generator": "random"}),
    emit_document(cycle(4, lifted=False), Params(k=INF, c_s=F(2),
                                                 mode=Mode.DIRECTED)),
]

FUZZ_TRACES = [
    trace_to_text(run(random_net(4, 0.4, 0.4, 1), bi(), seed=1, max_steps=60,
                      targets=TargetSets(speak={0: frozenset({1, 2})}))),
    trace_to_text(run(random_net(5, 0.3, 0.0, 2),
                      Params(k=2, c_s=F(1, 2), mode=Mode.DIRECTED), seed=2,
                      max_steps=60)),
]


def _mutate_mapping(data, mapping):
    """Drop a key, swap in a random JSON value, or corrupt one entry of a
    list value."""
    key = data.draw(st.sampled_from(sorted(mapping)))
    op = data.draw(st.sampled_from(("drop", "swap", "entry")))
    if op == "drop":
        del mapping[key]
    elif op == "swap" or not isinstance(mapping[key], list) or not mapping[key]:
        mapping[key] = data.draw(JSON_VALUES)
    else:
        entries = mapping[key]
        i = data.draw(st.integers(0, len(entries) - 1))
        if isinstance(entries[i], list):
            entries[i][data.draw(st.integers(0, len(entries[i]) - 1))] = \
                data.draw(JSON_VALUES)
        else:
            entries[i] = data.draw(JSON_VALUES)


class TestFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_document_parses_or_raises_document_error(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCS)))
        _mutate_mapping(data, doc)
        try:
            parse_document(doc)
        except DocumentError:
            pass

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_trace_parses_or_raises(self, data):
        text = data.draw(st.sampled_from(FUZZ_TRACES))
        lines = text.splitlines()
        op = data.draw(st.sampled_from(("header", "truncate", "row")))
        if op == "truncate":
            text = text[:data.draw(st.integers(0, len(text)))]
        elif op == "row":
            i = data.draw(st.integers(2, len(lines) - 1))
            fields = lines[i].split(",")
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.text(max_size=4) | st.integers(-3, 40).map(str))
            lines[i] = ",".join(fields)
            text = "\n".join(lines) + "\n"
        else:
            header = json.loads(lines[0])
            _mutate_mapping(data, header)
            text = "\n".join([json.dumps(header), *lines[1:]]) + "\n"
        try:
            trace_from_text(text)
        except (DocumentError, TraceError):
            pass


class TestMetrics:
    def test_complete_clustering_one(self):
        assert clustering_coefficient(complete_net(4), Mode.BIDIRECTED) == 1

    def test_star_clustering_zero(self):
        net = BidirectedNetwork(4)
        for leaf in (1, 2, 3):
            net.add_speaking(0, leaf)
            net.add_listening(leaf, 0)
        assert clustering_coefficient(net, Mode.BIDIRECTED) == 0

    def test_clustering_decreasing_in_wedges(self):
        # one closed triangle with d attached open wedges: transitivity
        # strictly falls as d grows
        values = []
        for d in range(1, 11):
            net = BidirectedNetwork(3 + d, [(0, 1), (1, 2), (2, 0)])
            for i in range(d):
                net.add_speaking(0, 3 + i)
            values.append(clustering_coefficient(net, Mode.DIRECTED))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_polarization_zero_for_disjoint_cliques(self):
        net = BidirectedNetwork(8)
        for base in (0, 4):
            for u in range(base, base + 4):
                for v in range(base, base + 4):
                    if u != v:
                        net.add_speaking(u, v)
                        net.add_listening(u, v)
        targets = TargetSets(speak={v: frozenset(
            {w for w in range((v // 4) * 4, (v // 4) * 4 + 4) if w != v})
            for v in range(8)})
        m = metrics(net, bi(), targets)
        assert m.polarization == 0

    def test_histograms_sum_to_n(self):
        net = random_net(6, 0.5, 0.3, 9)
        m = metrics(net, bi())
        for hist in (m.out_speak_hist, m.in_speak_hist,
                     m.out_listen_hist, m.in_listen_hist):
            assert sum(hist.values()) == 6
        assert sum(size * count for size, count in m.scc_sizes.items()) == 6

    def test_diameter_values(self):
        assert diameter(cycle(4, lifted=False), Mode.DIRECTED) == 3
        assert diameter(kautz(2, 4)[0], Mode.DIRECTED) == 4
        assert diameter(empty(2), Mode.DIRECTED) == INF


class TestStructureSearch:
    def test_zero_budget_finds_nothing(self):
        p = Params(k=2, c_s=F(3, 2), mode=Mode.DIRECTED)
        assert structure_search(StructureFamily.OPEN_CLOSED_TRIANGLE, p,
                                budget=0) is None  # [TRIVIAL]

    def test_triangle_predicate(self):
        net = BidirectedNetwork(4, [(0, 1), (1, 2), (2, 0)])
        assert not has_open_and_closed_triangle(net, Mode.DIRECTED)
        net.add_speaking(0, 3)  # wedge 3-0-1 is open, triangle 0-1-2 closed
        assert has_open_and_closed_triangle(net, Mode.DIRECTED)


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_generate_run_check_pipeline(self, tmp_path, capsys):
        doc = tmp_path / "net.json"
        trace = tmp_path / "out.trace"
        assert self.run_cli("generate", "kautz", "--d", "2", "--D", "4",
                            "--k", "4", "--cs", "1", "--mode", "directed",
                            "-o", str(doc)) == 0
        assert self.run_cli("check", "-i", str(doc)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stable"] is True and out["symmetric"] is True  # [PAPER]
        assert self.run_cli("run", "-i", str(doc), "--seed", "3",
                            "-o", str(trace)) == 0
        header = json.loads(trace.read_text().splitlines()[0])
        assert header["converged"] is True

    def test_flower_metrics(self, tmp_path, capsys):
        doc = tmp_path / "flower.json"
        assert self.run_cli("generate", "flower", "--n", "26", "--k", "10",
                            "--cs", "4", "--mode", "directed",
                            "-o", str(doc)) == 0
        assert self.run_cli("metrics", "-i", str(doc)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["edge_count"] == 30 and out["scc_sizes"] == {"26": 1}

    def test_path_command(self, tmp_path):
        doc = tmp_path / "r.json"
        cert = tmp_path / "r.cert"
        assert self.run_cli("generate", "random", "--n", "7", "--seed", "5",
                            "--ps", "0.3", "--cs", "2", "--mode", "directed",
                            "-o", str(doc)) == 0
        assert self.run_cli("path", "-i", str(doc), "--assert-lemmas",
                            "-o", str(cert)) == 0
        assert cert.read_text().splitlines()[1] == "step,kind,u,v,step_label"

    def test_census_and_export_dot(self, tmp_path, capsys):
        doc = tmp_path / "c.json"
        census = tmp_path / "census.csv"
        assert self.run_cli("census", "--n", "3", "--cs", "1/2",
                            "--mode", "directed", "-o", str(census)) == 0
        rows = census.read_text().splitlines()
        assert rows[0].startswith("k,c_s,c_l,bitmask") and len(rows) == 65
        assert self.run_cli("generate", "cycle", "--n", "3", "--cs", "1",
                            "--cl", "1", "--mode", "bidirected",
                            "-o", str(doc)) == 0
        assert self.run_cli("export-dot", "-i", str(doc), "--annotate") == 0
        dot = capsys.readouterr().out
        assert dot.startswith("digraph") and "red" not in dot

    @pytest.mark.parametrize("header", ["c_s,c_l", "k,c_l", "k,c_s"])
    def test_sweep_missing_column(self, tmp_path, capsys, header):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(header + "\n1,1\n")
        assert self.run_cli("census", "--n", "2", "--sweep", str(sweep),
                            "--mode", "directed") == 1
        missing = ({"k", "c_s", "c_l"} - set(header.split(","))).pop()
        assert capsys.readouterr().err == \
            f"error: {sweep}: missing column(s) {missing}\n"

    def test_sweep_rows(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("k,c_s,c_l\n1,1/2,0\ninf,2,0\n")
        assert self.run_cli("census", "--n", "2", "--sweep", str(sweep),
                            "--mode", "directed") == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1 + 2 * 4 and rows[1].startswith("1,1/2,0,0,")

    def test_exit_codes(self, tmp_path, capsys):
        assert self.run_cli("generate", "flower", "--n", "26") == 1  # no finite k
        assert self.run_cli("census", "--n", "9", "--mode", "directed") == 2
        assert self.run_cli("check", "-i", str(tmp_path / "missing.json")) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a document"}')
        assert self.run_cli("check", "-i", str(bad)) == 1
        capsys.readouterr()
