import copy
import hashlib
import json
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bi, child_env, di
from netform import (INF, BidirectedNetwork, EdgeKind, Mode, Move, MoveKind,
                     Params, TargetSets, Trace, construct_path, run)
from netform.cli import build_parser, main
from netform.dynamics import apply_move, scan_witnesses
from netform.errors import DocumentError, TraceError
from netform.generators import (balanced_flower, complete_net, cycle, empty,
                                kautz, random_net)
from netform.metrics import diameter, metrics
from netform.serialize import (MAX_AGENTS, certificate_to_text,
                               emit_document, parse_cost, parse_document,
                               parse_k, to_dot, trace_from_text, trace_to_text)


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

    @pytest.mark.parametrize("key", ["01", " 2 ", "+1", "1_0", "1.0", "",
                                     "x"])
    def test_target_key_not_written_form_rejected(self, key):
        # int() reads all of these; "1_0" would be vertex 10
        doc = emit_document(empty(11), bi())
        doc["targets_s"] = {key: [3]}
        loc = re.escape(f"targets_s[{key!r}]")
        with pytest.raises(DocumentError,
                           match=f"^{loc}: key is not a vertex id$"):
            parse_document(doc)

    def test_colliding_target_keys_rejected(self):
        # "1" and "01" once parsed to one vertex, the last key winning
        doc = emit_document(empty(3), bi())
        doc["targets_s"] = {"1": [0], "01": [2]}
        with pytest.raises(DocumentError, match=r"^targets_s\['01'\]: key is "
                                                r"not a vertex id$"):
            parse_document(doc)

    def test_self_loop_rejected_with_position(self):
        doc = emit_document(empty(2), bi())
        doc["speaking"] = [[0, 1], [1, 1]]
        with pytest.raises(DocumentError, match=r"speaking\[1\]"):
            parse_document(doc)

    def test_duplicate_edge_rejected(self):
        doc = emit_document(empty(2), bi())
        doc["listening"] = [[0, 1], [0, 1]]
        with pytest.raises(DocumentError, match=r"^listening\[1\]: listening "
                                                r"edge \(0, 1\) already present"):
            parse_document(doc)

    def test_out_of_range_edge_rejected_with_position(self):
        doc = emit_document(empty(2), bi())
        doc["speaking"] = [[0, 1], [-1, 0]]
        with pytest.raises(DocumentError, match=r"^speaking\[1\]: pair \(-1, 0\) "
                                                r"out of range for n=2"):
            parse_document(doc)

    @pytest.mark.parametrize("field, value, match", [
        ("n", True, r"^n: expected a positive integer, got True$"),
        ("k", True, r"^k: expected a positive integer or 'inf', got True$"),
        ("speaking", [[True, 1]],
         r"^speaking\[0\]: expected \[u, v\] with integer entries$"),
        ("targets_s", {"0": [True]},
         r"^targets_s\['0'\]: expected a list of vertex ids$"),
    ], ids=["n", "k", "speaking", "targets_s"])
    def test_bool_for_int_rejected_with_location(self, field, value, match):
        # JSON true decodes to True, which isinstance counts as an int
        doc = emit_document(empty(2), bi())
        doc[field] = value
        with pytest.raises(DocumentError, match=match):
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

    def test_directed_listening_cost_named(self):
        doc = emit_document(empty(2), bi())
        doc["mode"] = "directed"
        with pytest.raises(DocumentError, match=r"^c_l: directed-reduced mode "
                                                r"requires c_l = 0, got 1/2$"):
            parse_document(doc)

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


def assert_round_trip(trace):
    """The emitted text parses back to an equal trace and re-emits the same
    bytes."""
    text = trace_to_text(trace)
    back = trace_from_text(text)
    assert back == trace
    assert back.steps_sampled == len(trace.moves)
    assert trace_to_text(back) == text


# (kind, present) of a typed edge to the move that toggles it
TOGGLE = {(EdgeKind.SPEAKING, False): MoveKind.ADD_SPEAKING,
          (EdgeKind.SPEAKING, True): MoveKind.REMOVE_SPEAKING,
          (EdgeKind.LISTENING, False): MoveKind.ADD_LISTENING,
          (EdgeKind.LISTENING, True): MoveKind.REMOVE_LISTENING}


@st.composite
def hand_built_traces(draw):
    """A trace built move by move, not by ``run``: each move toggles or
    leaves a random typed edge, and the final network is the replay."""
    n = draw(st.integers(min_value=2, max_value=5))
    directed = draw(st.booleans())
    params = (Params(k=draw(st.sampled_from((1, 2, INF))), c_s=F(1, 2),
                     mode=Mode.DIRECTED) if directed else bi(k=2))
    initial = random_net(n, 0.3, 0.0 if directed else 0.3,
                         draw(st.integers(min_value=0, max_value=99)))
    net, moves = initial.copy(), []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        edge = draw(st.sampled_from(EdgeKind))
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 2))
        v += v >= u
        present = (net.has_speaking(u, v) if edge is EdgeKind.SPEAKING
                   else net.has_listening(u, v))
        kind = (MoveKind.NO_CHANGE if draw(st.booleans())
                else TOGGLE[edge, present])
        moves.append(Move(kind, edge, u, v))
        apply_move(net, moves[-1])
    return Trace(seed=draw(st.integers(min_value=0, max_value=2 ** 64 - 1)),
                 params=params, initial=initial, moves=moves, final=net,
                 converged=draw(st.booleans()))


class TestTraces:
    def test_trace_round_trip(self):
        # runs in both modes, with targets, cut short and with no moves
        for net, params, kwargs in [
                (random_net(5, 0.4, 0.4, 2), bi(), {"seed": 11}),
                (random_net(6, 0.4, 0.4, 5), bi(k=2),
                 {"seed": 6, "max_steps": 7}),
                (cycle(5), bi(cs=F(2), cl=F(2)), {"seed": 1}),
                (random_net(5, 0.4, 0.4, 1), bi(),
                 {"seed": 1, "targets": TargetSets(
                     speak={0: frozenset({1, 2})}, listen={3: frozenset({4})})}),
                (random_net(6, 0.3, 0.0, 2),
                 Params(k=2, c_s=F(1, 2), mode=Mode.DIRECTED), {"seed": 2})]:
            assert_round_trip(run(net, params, **kwargs))

    @given(hand_built_traces())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_traces_round_trip(self, trace):
        # rows are numbered by position and the header counts the moves, so
        # no trace emits a record its parser refuses
        assert_round_trip(trace)

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

    def test_deeply_nested_header_rejected(self):
        # too deep for the JSON decoder: a DocumentError, not RecursionError
        with pytest.raises(DocumentError, match="header line is not JSON"):
            trace_from_text("[" * 200_000 + "\nstep,kind,edge,u,v\n")


# a valid trace header on 3 vertices; with the row "0,-s,s,0,1" it replays
BASE_TRACE = {"record": "trace", "seed": 3, "rng_id": "python-random-mt19937",
              "n": 3, "k": "inf", "c_s": "1/2", "c_l": "1/2",
              "mode": "bidirected", "initial_speaking": [[0, 1]],
              "initial_listening": [[1, 0]], "converged": False,
              "steps_sampled": 1}


# the (move, edge) cells a trace row may hold
LEGAL_ROW_KINDS = {("+s", "s"), ("-s", "s"), (".", "s"),
                   ("+l", "l"), ("-l", "l"), (".", "l")}


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
        pytest.param(_trace_text({**BASE_TRACE, "bogus": 1}), DocumentError,
                     r"^trace: unknown fields \['bogus'\]$",
                     id="unknown-field"),
        pytest.param(_trace_text({**BASE_TRACE, "target_s": {"0": [1]}}),
                     DocumentError, r"^trace: unknown fields \['target_s'\]$",
                     id="misspelled-targets"),
        pytest.param(_trace_text({**BASE_TRACE, "mode": "weird"}),
                     DocumentError, "^mode:", id="unknown-mode"),
        pytest.param(_trace_text({**BASE_TRACE, "mode": "directed"}),
                     DocumentError, "^c_l: directed-reduced mode requires",
                     id="directed-listening-cost"),
        pytest.param(_trace_text({**BASE_TRACE, "initial_speaking": [[0, 1], [2, 2]]}),
                     DocumentError, r"initial_speaking\[1\]: self-pair",
                     id="self-pair"),
        pytest.param(_trace_text({**BASE_TRACE, "n": "5"}), DocumentError,
                     "^n:", id="string-n"),
        pytest.param(_trace_text("{not json"), DocumentError, "not JSON",
                     id="non-json-header"),
        # json.loads keeps the last of two equal keys
        pytest.param(_trace_text(json.dumps(BASE_TRACE)[:-1] + ', "seed": 5}'),
                     DocumentError, "^key 'seed' repeated in one JSON object$",
                     id="repeated-seed"),
        pytest.param(_trace_text("[1]"), DocumentError, "not a trace record",
                     id="list-header"),
        pytest.param(_trace_text(BASE_TRACE, ["0,-s,s,1,2"]), TraceError,
                     r"speaking edge \(1, 2\) not present",
                     id="remove-absent-edge"),
        pytest.param(_trace_text({**BASE_TRACE, "seed": 1.5}), DocumentError,
                     "^seed: expected int", id="float-seed"),
        # random.Random seeds with abs(seed): -3 would replay seed 3's draws
        pytest.param(_trace_text({**BASE_TRACE, "seed": -3}), DocumentError,
                     r"^seed: expected an int in 0\.\.2\*\*64-1, got -3$",
                     id="negative-seed"),
        pytest.param(_trace_text({**BASE_TRACE, "seed": 2 ** 64}),
                     DocumentError, "^seed: expected an int in 0",
                     id="seed-over-64-bits"),
        pytest.param(_trace_text({**BASE_TRACE, "rng_id": 7}), DocumentError,
                     "^rng_id: expected str", id="int-rng-id"),
        pytest.param(_trace_text({**BASE_TRACE, "rng_id": "numpy-pcg64"}),
                     DocumentError, "^rng_id: netform replays only",
                     id="foreign-rng-id"),
        pytest.param(_trace_text({**BASE_TRACE, "converged": 1}), DocumentError,
                     "^converged: expected bool", id="int-converged"),
        pytest.param(_trace_text({**BASE_TRACE, "steps_sampled": True}),
                     DocumentError, "^steps_sampled: expected int",
                     id="bool-steps"),
        pytest.param(_trace_text(BASE_TRACE, ["7,.,s,0,1"]), DocumentError,
                     "^trace line 3: step 7 in the row of step 0",
                     id="step-out-of-place"),
        pytest.param(_trace_text(BASE_TRACE, ["0,+s,l,1,2"]), DocumentError,
                     r"^trace line 3: move \+s on a l edge",
                     id="kind-contradicts-edge"),
        pytest.param(_trace_text(BASE_TRACE, ["0,.,s,9,9"]), DocumentError,
                     r"^trace line 3: \(9, 9\) is not a pair",
                     id="no-change-bad-pair"),
        pytest.param(_trace_text({**BASE_TRACE, "steps_sampled": 2}),
                     DocumentError, "^trace line 4: no row for step 1",
                     id="fewer-rows-than-steps"),
        pytest.param(_trace_text(BASE_TRACE, ["0,-s,s,0,1", "1,.,s,0,1"]),
                     DocumentError, "^trace line 4: more rows than steps_sampled",
                     id="more-rows-than-steps"),
    ])
    def test_defect_raises_named_error(self, text, error, match):
        with pytest.raises(error, match=match):
            trace_from_text(text)


    # records trace_to_text never writes: a certificate's column line, a
    # negative row count, a blank row, and step, u or v cells that ``int``
    # reads but ``str(int)`` never writes (a space, a leading zero, a sign,
    # an Arabic-Indic digit), in the fifth row, line 7
    @pytest.mark.parametrize("text, match", [
        pytest.param(_trace_text(BASE_TRACE).replace(
            "step,kind,edge,u,v", "step,kind,u,v,step_label"),
            r"^trace line 2: expected the column line 'step,kind,edge,u,v', "
            r"got 'step,kind,u,v,step_label'$", id="certificate-columns"),
        pytest.param(_trace_text({**BASE_TRACE, "steps_sampled": -1}),
                     r"^steps_sampled: expected a nonnegative int, got -1$",
                     id="negative-steps"),
        pytest.param(_trace_text(BASE_TRACE, ["0,-s,s,0,1", ""]),
                     r"^trace line 4: malformed move row ''$", id="blank-row"),
        *(pytest.param(
            _trace_text({**BASE_TRACE, "steps_sampled": 5},
                        [f"{i},.,s,0,1" for i in range(4)]
                        + [row.format(cell)]),
            "^trace line 7: " + re.escape(message.format(cell)) + "$",
            id=f"{field}-{form}")
          for field, digit, row, message in [
              ("step", "4", "{},.,s,0,1", "step {} in the row of step 4"),
              ("u", "1", "4,.,s,{},2",
               "({}, 2) is not a pair of two of the 3 agents"),
              ("v", "1", "4,.,s,0,{}",
               "(0, {}) is not a pair of two of the 3 agents")]
          for form, cell in [("space", " " + digit), ("zero", "0" + digit),
                             ("sign", "+" + digit),
                             ("arabic-indic", chr(0x0660 + int(digit)))])])
    def test_unwritten_form_rejected_with_location(self, text, match):
        with pytest.raises(DocumentError, match=match):
            trace_from_text(text)

    # every (move, edge) cell pair but the six legal ones, in the second
    # row: a contradicting pair of known cells is named, any other is
    # malformed
    @pytest.mark.parametrize("move, edge", [
        (move, edge) for move in ("+s", "-s", "+l", "-l", ".", "x", "")
        for edge in ("s", "l", "x", "")
        if (move, edge) not in LEGAL_ROW_KINDS])
    def test_illegal_move_edge_pair_rejected_with_line(self, move, edge):
        text = _trace_text({**BASE_TRACE, "steps_sampled": 2},
                           ["0,-s,s,0,1", f"1,{move},{edge},1,2"])
        match = (rf"^trace line 4: move {re.escape(move)} on a {edge} edge$"
                 if move in ("+s", "-s", "+l", "-l") and edge in ("s", "l")
                 else "^trace line 4: malformed move row")
        with pytest.raises(DocumentError, match=match):
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
        assert metrics(complete_net(4), bi()).clustering == 1

    def test_star_clustering_zero(self):
        net = BidirectedNetwork(4)
        for leaf in (1, 2, 3):
            net.add_speaking(0, leaf)
            net.add_listening(leaf, 0)
        assert metrics(net, bi()).clustering == 0

    def test_clustering_decreasing_in_wedges(self):
        # one closed triangle with d attached open wedges: transitivity
        # strictly falls as d grows
        values = []
        for d in range(1, 11):
            net = BidirectedNetwork(3 + d, [(0, 1), (1, 2), (2, 0)])
            for i in range(d):
                net.add_speaking(0, 3 + i)
            values.append(metrics(net, di()).clustering)
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
        assert diameter(kautz(2, 4), Mode.DIRECTED) == 4
        assert diameter(empty(2), Mode.DIRECTED) == INF


class TestStructureSearch:
    def test_triangle_predicate(self):
        # the structure criterion 8 counts: some wedge of the live projection
        # closed and some open, so clustering strictly between 0 and 1
        net = BidirectedNetwork(4, [(0, 1), (1, 2), (2, 0)])
        assert metrics(net, di()).clustering == 1
        net.add_speaking(0, 3)  # wedge 3-0-1 is open, triangle 0-1-2 closed
        assert 0 < metrics(net, di()).clustering < 1


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

    # (generate arguments, run arguments): bidirected and directed starts,
    # each run to convergence and cut by --max-steps, and a stable start
    BI_START = ("random", "--n", "8", "--seed", "4", "--ps", "0.3", "--pl",
                "0.3", "--cs", "1/2", "--cl", "1/2")
    DI_START = ("random", "--n", "7", "--seed", "5", "--ps", "0.3", "--cs",
                "2", "--mode", "directed")
    HEADER_RUNS = [
        (BI_START, ("--seed", "3")),
        (BI_START, ("--seed", "3", "--max-steps", "40")),
        (DI_START, ("--seed", "1")),
        (DI_START, ("--seed", "1", "--max-steps", "9")),
        (("cycle", "--n", "5", "--cs", "2", "--cl", "2"), ("--seed", "2")),
    ]

    def test_trace_is_a_function_of_its_header(self, tmp_path):
        # run on a trace's header, with max_steps its row count (at least
        # 1), writes the trace again: no input that shapes it goes unrecorded
        doc, out = tmp_path / "d.json", tmp_path / "t.trace"
        seen = set()
        for generate, run_args in self.HEADER_RUNS:
            assert self.run_cli("generate", *generate, "-o", str(doc)) == 0
            assert self.run_cli("run", "-i", str(doc), *run_args,
                                "-o", str(out)) == 0
            text = out.read_text()
            t = trace_from_text(text)
            again = run(t.initial, t.params, t.targets, seed=t.seed,
                        max_steps=max(1, t.steps_sampled))
            assert trace_to_text(again) == text, (generate, run_args)
            seen.add((t.params.mode, t.converged, t.steps_sampled > 0))
        assert seen == {(mode, converged, True) for mode in Mode
                        for converged in (True, False)} | {
            (Mode.BIDIRECTED, True, False)}

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

    @pytest.mark.parametrize("key", ["targets_s", "targets_l"])
    def test_path_refuses_target_sets(self, tmp_path, capsys, key):
        # the construction and its lemmas count every other agent: here the
        # directed 4-cycle, each agent targeting its successor only, has four
        # removable edges, so an empty certificate would be wrong
        doc, cert = tmp_path / "t.json", tmp_path / "t.cert"
        doc.write_text(json.dumps({
            "n": 4, "k": "inf", "c_s": "3/2", "c_l": "0", "mode": "directed",
            "speaking": [[0, 1], [1, 2], [2, 3], [3, 0]], "listening": [],
            key: {"0": [1], "1": [2], "2": [3], "3": [0]}}))
        assert self.run_cli("check", "-i", str(doc)) == 0
        assert json.loads(capsys.readouterr().out)["stable"] is (
            key == "targets_l")  # directed mode reads no listening targets
        assert self.run_cli("path", "-i", str(doc), "--assert-lemmas",
                            "-o", str(cert)) == 1
        assert capsys.readouterr().err == \
            f"error: {doc}: path takes no target sets\n"
        assert not cert.exists()

    @pytest.mark.parametrize("flags, reason", [
        (("--cs", "1/2", "--cl", "1/2"),
         "is defined for the directed-reduced mode"),
        (("--k", "2", "--mode", "directed"), "requires an unbounded horizon"),
        (("--cs", "0", "--mode", "directed"),
         "requires a positive speaking cost"),
    ])
    def test_path_refusal_names_the_file(self, tmp_path, capsys, flags,
                                         reason):
        # a document outside the proof's regime is refused like any other
        # document: an error line naming the file, exit 1, no certificate
        doc, cert = tmp_path / "c.json", tmp_path / "c.cert"
        assert self.run_cli("generate", "cycle", "--n", "4", *flags,
                            "-o", str(doc)) == 0
        assert self.run_cli("path", "-i", str(doc), "-o", str(cert)) == 1
        assert capsys.readouterr().err == \
            f"error: {doc}: path construction {reason}\n"
        assert not cert.exists()

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

    # every move is a witness here: speaking (1, 2) and listening (0, 2) are
    # dead, so removable; speaking (2, 0) and listening (2, 1) each make a
    # live step, so addable
    WITNESS_DOC = {"n": 3, "k": "inf", "c_s": "1/2", "c_l": "1/2",
                   "mode": "bidirected", "speaking": [[0, 1], [1, 2]],
                   "listening": [[0, 2], [1, 0]]}
    WITNESS_CHECK = {"all_complete": False, "bi_pairwise": False,
                     "stable": False, "symmetric": True,
                     "witnesses": [["s", 1, 2, "removable"],
                                   ["s", 2, 0, "addable"],
                                   ["l", 0, 2, "removable"],
                                   ["l", 2, 1, "addable"]]}
    WITNESS_DOT = """digraph network {
  0;
  1;
  2;
  0 -> 1 [kind="speaking"];
  1 -> 2 [kind="speaking" color="red"];
  0 -> 2 [kind="listening" style="dashed" color="red"];
  1 -> 0 [kind="listening" style="dashed"];
  2 -> 1 [kind="listening" style="dashed" color="green"];
  2 -> 0 [kind="speaking" color="green"];
}
"""

    def test_witness_labels_golden(self, tmp_path, capsys):
        doc = tmp_path / "w.json"
        doc.write_text(json.dumps(self.WITNESS_DOC))
        assert self.run_cli("check", "-i", str(doc), "--bi-pairwise") == 0
        assert capsys.readouterr().out == \
            json.dumps(self.WITNESS_CHECK, sort_keys=True, indent=2) + "\n"
        assert self.run_cli("export-dot", "-i", str(doc), "--annotate") == 0
        assert capsys.readouterr().out == self.WITNESS_DOT

    def test_parser_reused_across_calls(self, capsys):
        # main builds its parser once per process; calls in a row, a usage
        # error among them, write what a fresh process writes for each
        lifted = ["generate", "cycle", "--n", "4", "--lifted"]
        for argv in (lifted, ["generate", "cycle", "--n", "4",
                              "--mode", "directed"],
                     ["generate", "cycle", "--n", "four"], lifted):
            code = self.run_cli(*argv)
            got = capsys.readouterr()
            child = subprocess.run([sys.executable, "-m", "netform", *argv],
                                   env=child_env(), capture_output=True,
                                   text=True, timeout=60)
            assert (code, got.out, got.err) == \
                (child.returncode, child.stdout, child.stderr), argv
        assert build_parser() is build_parser()

    # sweep rows at cost 0, at integer costs (utility scale 1) and at
    # fractional ones; a row with c_l = 0 runs the directed census
    CENSUS_SWEEP = ("k,c_s,c_l\n1,0,0\n2,1,2\ninf,1/2,1/3\n2,3/2,0\n"
                    "inf,0,1\n3,2/3,0\n")

    @pytest.mark.parametrize("argv, sha256", [
        (("--n", "3", "--k", "2", "--cs", "1/2", "--cl", "1",
          "--mode", "bidirected"),
         "8eaa0719fff80710afd354f7715fde4cc39e569a7efb2123587e970aebe9b4b2"),
        (("--n", "4", "--cs", "2/3", "--mode", "directed"),
         "df257f6d017174aec34d86964ee453e9c6d0d8d531acd1f54f7f2330162f896a"),
        (("--n", "3", "--k", "inf", "--cs", "2/3", "--cl", "3/2",
          "--mode", "bidirected"),
         "b04672a91c752ef379b56d35e3df7ce21d2f6a7e6e7870afca8cf42552639217"),
        (("--n", "3", "--sweep", "{sweep}"),
         "cc6ace0d36aeb2d079dcde0d1f3abd8bb8c3c641051c5e8c0a8f0d75905c5017"),
    ])
    def test_census_golden(self, tmp_path, argv, sha256):
        # census CSV bytes are pinned over every network of the space
        out, sweep = tmp_path / "census.csv", tmp_path / "sweep.csv"
        sweep.write_text(self.CENSUS_SWEEP)
        argv = [str(sweep) if a == "{sweep}" else a for a in argv]
        assert self.run_cli("census", *argv, "-o", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    # generate arguments of the documents behind the emitter golden: random
    # nets in both modes (one past 64 agents, so rows span machine words),
    # a lifted Kautz graph and a flower
    EMIT_DOCS = [
        ("random", "--n", "12", "--seed", "3", "--ps", "0.3", "--pl", "0.4",
         "--k", "2", "--cs", "1/2", "--cl", "1/3", "--mode", "bidirected"),
        ("random", "--n", "11", "--seed", "8", "--ps", "0.25", "--cs", "3/2",
         "--mode", "directed"),
        ("random", "--n", "67", "--seed", "5", "--ps", "0.04", "--pl", "0.06",
         "--k", "3", "--cs", "1", "--cl", "1/2", "--mode", "bidirected"),
        ("kautz", "--d", "2", "--D", "2", "--lifted", "--cs", "2", "--cl", "1",
         "--mode", "bidirected"),
        ("flower", "--n", "13", "--k", "4", "--cs", "1", "--mode", "directed"),
    ]
    EMIT_SHA256 = \
        "033285cc3648d9606d39cef9d5aa707a10c7b4b7272db8fd710879aacaad49c4"

    def test_emit_golden(self, tmp_path):
        # the bytes of every edge-list emitter: documents, annotated DOT,
        # bi-pairwise check reports and metrics
        digest = hashlib.sha256()
        for i, argv in enumerate(self.EMIT_DOCS):
            doc = tmp_path / f"d{i}.json"
            assert self.run_cli("generate", *argv, "-o", str(doc)) == 0
            digest.update(doc.read_bytes())
            for cmd in (("export-dot", "--annotate"), ("check", "--bi-pairwise"),
                        ("metrics",)):
                out = tmp_path / f"d{i}.out"
                assert self.run_cli(*cmd, "-i", str(doc), "-o", str(out)) == 0
                digest.update(out.read_bytes())
        assert digest.hexdigest() == self.EMIT_SHA256

    @pytest.mark.parametrize("header", ["c_s,c_l", "k,c_l", "k,c_s"])
    def test_sweep_missing_column(self, tmp_path, capsys, header):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(header + "\n1,1\n")
        assert self.run_cli("census", "--n", "2", "--sweep", str(sweep),
                            "--mode", "directed") == 1
        missing = ({"k", "c_s", "c_l"} - set(header.split(","))).pop()
        assert capsys.readouterr().err == \
            f"error: {sweep}: missing column(s) {missing}\n"

    @pytest.mark.parametrize("row, mode, column", [
        ("x,1,0", "directed", "k"), (",1,0", "directed", "k"),
        ("0,1,0", "directed", "k"), ("1,two,0", "directed", "c_s"),
        ("1,-1,0", "directed", "c_s"), ("1,1", "directed", "c_l"),
        ("1,1,-1/2", "bidirected", "c_l"), ("1,1,1", "directed", "c_l"),
    ])
    def test_sweep_bad_cell_located(self, tmp_path, capsys, row, mode, column):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(f"k,c_s,c_l\n1,1/2,0\n\n{row}\n")
        assert self.run_cli("census", "--n", "2", "--sweep", str(sweep),
                            "--mode", mode) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {sweep}, line 4, column {column}: ")

    @pytest.mark.parametrize("argv, flag", [
        (("--k", "x"), "--k"), (("--k", "0"), "--k"), (("--cs", "-1"), "--cs"),
        (("--cs", "1/0"), "--cs"), (("--cl", "-2"), "--cl"),
        (("--cl", "1", "--mode", "directed"), "--cl"),
    ])
    def test_bad_flag_named(self, capsys, argv, flag):
        assert self.run_cli("census", "--n", "2", *argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    def test_sweep_rows(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("k,c_s,c_l\n1,1/2,0\ninf,2,0\n")
        assert self.run_cli("census", "--n", "2", "--sweep", str(sweep),
                            "--mode", "directed") == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1 + 2 * 4 and rows[1].startswith("1,1/2,0,0,")

    def test_sweep_with_byte_order_mark(self, tmp_path):
        # a spreadsheet export starts with a UTF-8 byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(self.CENSUS_SWEEP, encoding="utf-8")
        marked.write_text(self.CENSUS_SWEEP, encoding="utf-8-sig")
        outs = []
        for sweep in (plain, marked):
            outs.append(tmp_path / f"{sweep.stem}.out")
            assert self.run_cli("census", "--n", "2", "--sweep", str(sweep),
                                "-o", str(outs[-1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("argv", [
        ("empty", "--n", "4"), ("cycle", "--n", "5", "--mode", "directed"),
        ("flower", "--n", "9", "--k", "4"),
        ("unbalanced-flower", "--n", "8", "--k", "4"),
        ("kautz", "--d", "2", "--D", "2"),
        ("random", "--n", "6", "--ps", "0.4", "--pl", "0.2"),
        ("complete", "--n", "4", "--mode", "directed"),
        ("complete", "--n", "4", "--cl", "1")],
        ids=["empty", "directed-cycle", "flower", "unbalanced-flower",
             "kautz", "random", "directed-complete", "complete"])
    def test_lifted_gives_every_speaking_edge_its_partner(self, capsys, argv):
        assert self.run_cli("generate", *argv, "--lifted") == 0
        net = parse_document(json.loads(capsys.readouterr().out))[0]
        assert all(net.has_listening(v, u) for u, v in net.speaking)
        assert net.speaking or argv[0] == "empty"

    @pytest.mark.parametrize("argv", [["check", "-i"],
                                      ["generate", "cycle", "--n", "3", "-o"],
                                      ["census", "--n", "2", "--sweep"]])
    def test_unreadable_path(self, tmp_path, argv):
        # a directory given for -i, -o or --sweep ends as an error line
        out = subprocess.run([sys.executable, "-m", "netform", *argv,
                              str(tmp_path)], env=child_env(),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 1 and out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("content", [b"[" * 200_000, b"\xff\xfe{",
                                         b'{"n": 3, "speak'],
                             ids=["deep", "not-utf8", "truncated"])
    def test_unreadable_document_named(self, tmp_path, content):
        # nested too deep to decode, not UTF-8, or cut short: an error line
        # naming the file and exit code 1
        doc = tmp_path / "doc.json"
        doc.write_bytes(content)
        out = subprocess.run([sys.executable, "-m", "netform", "check", "-i",
                              str(doc)], env=child_env(),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert out.stderr.startswith(f"error: {doc}: not readable as JSON")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("content, line", [
        (b"k,c_s,c_l\n1,1,0\n2,\xff,0\n", 3),
        (b"k,c_s,c_l\n1,1,0\n2," + b"1" * 200_000 + b",0\n", 3),
        (b"k," + b"c" * 200_000 + b"\n", 1),
        (b"\xef\xbb\xbfk,c_s,c_l\n\n2,\xff,0\n", 3),
    ], ids=["not-utf8", "huge-field", "huge-header", "marked-not-utf8"])
    def test_unreadable_sweep_named(self, tmp_path, content, line):
        # a byte that is not UTF-8 or a field over the csv module's size
        # limit: an error line naming the file and the line, exit code 1
        sweep = tmp_path / "sweep.csv"
        sweep.write_bytes(content)
        out = subprocess.run([sys.executable, "-m", "netform", "census",
                              "--n", "2", "--mode", "directed", "--sweep",
                              str(sweep)], env=child_env(),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith(f"error: {sweep}, line {line}: ")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["run", "check", "path", "metrics",
                                         "export-dot"])
    def test_invalid_document_named(self, tmp_path, command):
        # JSON that is not a document: the error line names the file
        doc = tmp_path / "notdoc.json"
        for content in ('{"not": "a document"}', "[1]"):
            doc.write_text(content)
            out = subprocess.run([sys.executable, "-m", "netform", command,
                                  "-i", str(doc)], env=child_env(),
                                 capture_output=True, text=True, timeout=60)
            assert out.returncode == 1
            assert out.stderr.startswith(f"error: {doc}: document: ")
            assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("argv", [["empty", "--n", str(MAX_AGENTS + 1)],
                                      ["kautz", "--d", "2", "--D", "14"]])
    def test_generate_agent_cap(self, capsys, argv):
        # kautz(2, 14) has 24,576 vertices; no document could hold either
        assert self.run_cli("generate", *argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {argv[1]}")

    def test_generate_huge_fails_fast(self):
        # in child processes under a 1 GiB address-space limit and a timeout,
        # so a broken guard fails instead of exhausting the host's memory
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        for argv in (["empty", "--n", "1000000000"],
                     ["kautz", "--d", "100", "--D", "10"]):
            out = subprocess.run([sys.executable, "-m", "netform", "generate",
                                  *argv], env=child_env(), preexec_fn=limit,
                                 capture_output=True, text=True, timeout=30)
            assert out.returncode == 1 and "cap of a document" in out.stderr

    @pytest.mark.parametrize("seed", ["-5", str(2 ** 64)])
    def test_seed_outside_64_bits_refused(self, tmp_path, capsys, seed):
        # random.Random seeds with abs(seed), so -5 would write seed 5's
        # network and rows under the name -5
        doc = tmp_path / "r.json"
        assert self.run_cli("generate", "random", "--n", "4", "--seed", seed,
                            "-o", str(doc)) == 1
        assert not doc.exists()
        assert self.run_cli("generate", "random", "--n", "4", "-o",
                            str(doc)) == 0
        assert self.run_cli("run", "-i", str(doc), "--seed", seed,
                            "-o", str(tmp_path / "t")) == 1
        assert not (tmp_path / "t").exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: seed must be in 0..2**64-1, got {seed}"] * 2

    @pytest.mark.parametrize("extra, key", [
        (', "n": 4', "n"), (', "targets_s": {"1": [0], "1": [2]}', "1")],
        ids=["n", "targets-vertex"])
    def test_repeated_key_refused(self, tmp_path, capsys, extra, key):
        # json.load keeps the last of two equal keys, so the text's first
        # value would be dropped unseen
        doc = tmp_path / "doc.json"
        text = json.dumps(emit_document(cycle(3), bi()))
        doc.write_text(text[:-1] + extra + "}")
        assert self.run_cli("check", "-i", str(doc)) == 1
        assert capsys.readouterr().err == (
            f"error: {doc}: key {key!r} repeated in one JSON object\n")

    def test_repeated_key_search_is_linear(self, tmp_path, capsys):
        # the repeat is found in one pass over the object's keys: a meta
        # object of 100,000 keys whose last repeats the first is refused fast
        doc = tmp_path / "doc.json"
        meta = "".join(f'"{i}": 0, ' for i in range(99_999)) + '"0": 1'
        text = json.dumps(emit_document(cycle(3), bi()))
        doc.write_text(text[:-1] + ', "meta": {' + meta + "}}")
        start = time.perf_counter()
        assert self.run_cli("check", "-i", str(doc)) == 1
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == (
            f"error: {doc}: key '0' repeated in one JSON object\n")

    def test_exit_codes(self, tmp_path, capsys):
        assert self.run_cli("generate", "flower", "--n", "26") == 1  # no finite k
        assert self.run_cli("census", "--n", "9", "--mode", "directed") == 2
        assert self.run_cli("check", "-i", str(tmp_path / "missing.json")) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a document"}')
        assert self.run_cli("check", "-i", str(bad)) == 1
        capsys.readouterr()
