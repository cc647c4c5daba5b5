"""Network documents (JSON), DOT export, and trace/certificate text formats.

All emission is sorted so output is byte-identical across runs for the same
input.  Parsing refuses more than ``MAX_AGENTS`` agents; costs and the
directed mode's free listening are ``Params``'s rules, whose refusals it
locates at ``c_s`` or ``c_l``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .convergence import PathCertificate
from .dynamics import (MAX_SEED, RNG_ID, EdgeKind, Move, MoveKind, Trace,
                       apply_move)
from .errors import DocumentError, TraceError
from .model import (ALL_OTHERS, BidirectedNetwork, INF, Mode, Params,
                    TargetSets, _as_cost)

MAX_AGENTS = 10_000  # a network allocates four per-vertex lists up front

_FIELDS = {"document": {"n", "k", "c_s", "c_l", "mode", "speaking",
                        "listening", "targets_s", "targets_l", "meta"},
           "trace": {"record", "seed", "rng_id", "converged", "steps_sampled",
                     "n", "k", "c_s", "c_l", "mode", "initial_speaking",
                     "initial_listening", "targets_s", "targets_l"}}


def unique_keys(pairs: list) -> dict:
    """``json``'s ``object_pairs_hook``: the object of the ``(key, value)``
    pairs, or DocumentError naming the first key that repeats."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise DocumentError(f"key {key!r} repeated in one JSON object")
    return out


def parse_cost(text, where: str = "cost") -> Fraction:
    """``model._as_cost``, its ValueError a DocumentError at ``where``."""
    try:
        return _as_cost(text)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def parse_k(value, where: str = "k"):
    if value == "inf":
        return INF
    if type(value) is int and value >= 1:
        return value
    raise DocumentError(f"{where}: expected a positive integer or 'inf', "
                        f"got {value!r}")


def format_k(k) -> object:
    return "inf" if k == INF else k


def _add_edges(add, raw, where: str):
    """Add the [u, v] pairs of ``raw`` with ``add``, a network mutator."""
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list of [u, v] pairs")
    for idx, item in enumerate(raw):
        try:
            if (type(item) is not list or len(item) != 2
                    or not type(item[0]) is type(item[1]) is int):
                raise ValueError("expected [u, v] with integer entries")
            add(*item)
        except ValueError as exc:
            raise DocumentError(f"{where}[{idx}]: {exc}") from None


def _parse_targets(raw, n: int, where: str) -> Dict[int, frozenset]:
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: expected a mapping vertex -> list")
    out = {}
    for key, members in raw.items():
        loc = f"{where}[{key!r}]"
        try:
            v = int(key)
        except (TypeError, ValueError):
            v = None
        if key != str(v):  # only the form the emitters write
            raise DocumentError(f"{loc}: key is not a vertex id")
        if not 0 <= v < n:
            raise DocumentError(f"{loc}: vertex out of range")
        if not isinstance(members, list) or not all(
                type(x) is int for x in members):
            raise DocumentError(f"{loc}: expected a list of vertex ids")
        if any(not 0 <= x < n for x in members):
            raise DocumentError(f"{loc}: member out of range")
        if v in members:
            raise DocumentError(f"{loc}: target set contains its own vertex")
        out[v] = frozenset(members)
    return out


def _parse_game(doc: dict, edge_keys: Tuple[str, str], where: str
                ) -> Tuple[BidirectedNetwork, Params, TargetSets]:
    """Network, parameters and targets from a document or record header whose
    edge lists sit under ``edge_keys``; ``where``, "document" or "trace",
    picks the fields it may hold."""
    unknown = set(doc) - _FIELDS[where]
    if unknown:
        raise DocumentError(f"{where}: unknown fields {sorted(unknown)}")
    for req in ("n", "k", "c_s", "c_l", "mode", *edge_keys):
        if req not in doc:
            raise DocumentError(f"{where}: missing field {req!r}")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise DocumentError(f"n: expected a positive integer, got {n!r}")
    if n > MAX_AGENTS:
        raise DocumentError(f"n: {n} exceeds the cap of {MAX_AGENTS} agents")
    try:
        mode = Mode(doc["mode"])
    except ValueError:
        raise DocumentError(f"mode: expected 'bidirected' or 'directed', "
                            f"got {doc['mode']!r}") from None
    k, c_s = parse_k(doc["k"]), parse_cost(doc["c_s"], "c_s")
    c_l = parse_cost(doc["c_l"], "c_l")
    try:  # only the mode rule is left: directed mode needs c_l = 0
        params = Params(k=k, c_s=c_s, c_l=c_l, mode=mode)
    except ValueError as exc:
        raise DocumentError(f"c_l: {exc}") from None
    speaking, listening = edge_keys
    net = BidirectedNetwork(n)
    _add_edges(net.add_speaking, doc[speaking], speaking)
    _add_edges(net.add_listening, doc[listening], listening)
    targets = TargetSets(speak=_parse_targets(doc.get("targets_s", {}), n, "targets_s"),
                         listen=_parse_targets(doc.get("targets_l", {}), n, "targets_l"))
    return net, params, targets


def _game_fields(net: BidirectedNetwork, params: Params, targets: TargetSets,
                 prefix: str) -> dict:
    """Header fields for a network, its parameters and its targets; the edge
    lists are keyed ``prefix + "speaking"`` and ``prefix + "listening"``."""
    fields = {
        "n": net.n,
        "k": format_k(params.k),
        "c_s": str(params.c_s),
        "c_l": str(params.c_l),
        "mode": params.mode.value,
        prefix + "speaking": [list(e) for e in net.edges(speaking=True)],
        prefix + "listening": [list(e) for e in net.edges(speaking=False)],
    }
    for key, sets in (("targets_s", targets.speak), ("targets_l", targets.listen)):
        if sets:
            fields[key] = {str(v): sorted(t) for v, t in sorted(sets.items())}
    return fields


def parse_document(doc: dict) -> Tuple[BidirectedNetwork, Params, TargetSets, dict]:
    if not isinstance(doc, dict):
        raise DocumentError("document: expected a JSON object")
    net, params, targets = _parse_game(doc, ("speaking", "listening"), "document")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise DocumentError("meta: expected an object")
    return net, params, targets, meta


def emit_document(net: BidirectedNetwork, params: Params,
                  targets: TargetSets = ALL_OTHERS,
                  meta: Optional[dict] = None) -> dict:
    doc = _game_fields(net, params, targets, "")
    if meta:
        doc["meta"] = meta
    return doc


def document_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- DOT ----------------------------------------------------------------------

def to_dot(net: BidirectedNetwork,
           annot: Optional[Iterable[Tuple[EdgeKind, int, int, MoveKind]]]
           = None) -> str:
    """Deterministic DOT text.  Speaking edges are solid, listening edges
    dashed.  With an annotation (a witness scan), removable edges are red
    and addable edges are drawn in green."""
    annot = list(annot or ())
    removable = {(kind, u, v) for kind, u, v, move in annot if not move.add}
    drawn = [(kind, u, v, ' color="red"' if (kind, u, v) in removable else "")
             for kind in EdgeKind
             for u, v in net.edges(speaking=kind is EdgeKind.SPEAKING)]
    drawn += sorted(((kind, u, v, ' color="green"')
                     for kind, u, v, move in annot if move.add),
                    key=lambda t: (t[0].value, t[1], t[2]))
    attrs = {EdgeKind.SPEAKING: 'kind="speaking"',
             EdgeKind.LISTENING: 'kind="listening" style="dashed"'}
    lines = ["digraph network {", *(f"  {v};" for v in range(net.n))]
    lines += [f"  {u} -> {v} [{attrs[kind]}{color}];"
              for kind, u, v, color in drawn]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- trace / certificate text ---------------------------------------------------

_TRACE_COLUMNS = "step,kind,edge,u,v"


def trace_to_text(trace: Trace) -> str:
    header = {"record": "trace", "seed": trace.seed, "rng_id": RNG_ID,
              "converged": trace.converged,
              "steps_sampled": trace.steps_sampled,
              **_game_fields(trace.initial, trace.params, trace.targets,
                             "initial_")}
    lines = [json.dumps(header, sort_keys=True), _TRACE_COLUMNS]
    # an enum's ``value`` is a property; its ``_value_`` a plain attribute
    lines.extend(f"{i},{kind._value_},{edge._value_},{u},{v}"
                 for i, (kind, edge, u, v) in enumerate(trace.moves))
    return "\n".join(lines) + "\n"


def _trace_field(header: dict, key: str, kind: type):
    if key not in header:
        raise DocumentError(f"trace: missing field {key!r}")
    value = header[key]
    if type(value) is not kind:
        raise DocumentError(f"{key}: expected {kind.__name__}, got {value!r}")
    return value


# a row's move and edge cells to their kinds: None where the move contradicts
# the edge ("+s" adds an "s" edge); a no-change row may name either edge
_ROW_KINDS = {(kind.value, edge.value):
              (kind, edge) if kind is MoveKind.NO_CHANGE
              or kind.speaking == (edge is EdgeKind.SPEAKING) else None
              for kind in MoveKind for edge in EdgeKind}


def trace_from_text(text: str) -> Trace:
    """Parse a trace record as ``trace_to_text`` writes it and replay its
    moves.  A malformed record raises DocumentError, a move inconsistent
    with the network TraceError; either names the file line of the row at
    fault.  Row i is step i, a move's kind matches its edge kind, every pair
    is two distinct agents, and there are ``steps_sampled`` rows."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise DocumentError("trace: missing header or column line")
    try:
        header = json.loads(lines[0], object_pairs_hook=unique_keys)
    except DocumentError:  # a repeated key
        raise
    except (ValueError, RecursionError):  # nested too deep to decode
        raise DocumentError("trace: header line is not JSON") from None
    if not isinstance(header, dict) or header.get("record") != "trace":
        raise DocumentError("trace: not a trace record")
    initial, params, targets = _parse_game(
        header, ("initial_speaking", "initial_listening"), "trace")
    seed = _trace_field(header, "seed", int)
    if not 0 <= seed <= MAX_SEED:
        raise DocumentError(f"seed: expected an int in 0..2**64-1, got {seed}")
    rng_id = _trace_field(header, "rng_id", str)
    if rng_id != RNG_ID:
        raise DocumentError(f"rng_id: netform replays only {RNG_ID!r}, "
                            f"got {rng_id!r}")
    converged = _trace_field(header, "converged", bool)
    steps_sampled = _trace_field(header, "steps_sampled", int)
    if steps_sampled < 0:
        raise DocumentError(f"steps_sampled: expected a nonnegative int, "
                            f"got {steps_sampled}")
    if lines[1] != _TRACE_COLUMNS:
        raise DocumentError(f"trace line 2: expected the column line "
                            f"{_TRACE_COLUMNS!r}, got {lines[1]!r}")
    n = initial.n
    final = initial.copy()
    moves = []
    agents = {str(x): x for x in range(n)}  # the ids trace_to_text writes
    for line, row in enumerate(lines[2:], 3):
        try:
            step_s, kind_s, edge_s, u_s, v_s = row.split(",")
            kinds = _ROW_KINDS[kind_s, edge_s]
        except (KeyError, ValueError) as exc:
            raise DocumentError(f"trace line {line}: malformed move row "
                                f"{row!r}") from exc
        step = len(moves)
        if step == steps_sampled:
            raise DocumentError(f"trace line {line}: more rows than "
                                f"steps_sampled ({steps_sampled})")
        if step_s != str(step):
            raise DocumentError(f"trace line {line}: step {step_s} "
                                f"in the row of step {step}")
        if kinds is None:
            raise DocumentError(f"trace line {line}: move {kind_s} on a "
                                f"{edge_s} edge")
        u, v = agents.get(u_s), agents.get(v_s)
        if u is None or v is None or u == v:
            raise DocumentError(f"trace line {line}: ({u_s}, {v_s}) is "
                                f"not a pair of two of the {n} agents")
        move = Move(*kinds, u, v)
        try:
            apply_move(final, move)
        except TraceError as exc:
            raise TraceError(f"trace line {line}: {exc}") from exc
        moves.append(move)
    if len(moves) != steps_sampled:
        raise DocumentError(f"trace line {len(lines) + 1}: no row for step "
                            f"{len(moves)} of steps_sampled ({steps_sampled})")
    return Trace(seed=seed, params=params, initial=initial, moves=moves,
                 final=final, converged=converged, targets=targets)


def certificate_to_text(cert: PathCertificate, start: BidirectedNetwork,
                        params: Params) -> str:
    header = {"record": "certificate",
              "retired_edges": [list(e) for e in sorted(cert.retired_edges)],
              **_game_fields(start, params, ALL_OTHERS, "initial_")}
    lines = [json.dumps(header, sort_keys=True), "step,kind,u,v,step_label"]
    lines.extend(f"{i},{m.kind.value},{m.u},{m.v},{m.step_label}"
                 for i, m in enumerate(cert.moves))
    return "\n".join(lines) + "\n"
