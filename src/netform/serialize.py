"""Network documents (JSON), DOT export, and trace/certificate text formats.

All emission is sorted so output is byte-identical across runs for the same
input.  Parsing refuses more than ``MAX_AGENTS`` agents and costs it could
not write back, among them any decimal exponent above ``MAX_EXPONENT``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .convergence import PathCertificate
from .dynamics import (Classification, EdgeKind, Move, MoveKind, Trace,
                       apply_move)
from .errors import DocumentError
from .model import (ALL_OTHERS, BidirectedNetwork, INF, Mode, Params,
                    TargetSets)

MAX_AGENTS = 10_000  # a network allocates four per-vertex lists up front
MAX_EXPONENT = 4300  # Python's default int/str digit limit

_DOC_FIELDS = {"n", "k", "c_s", "c_l", "mode", "speaking", "listening",
               "targets_s", "targets_l", "meta"}


def parse_cost(text, where: str = "cost") -> Fraction:
    """Exact cost from a decimal ('1.5') or fraction ('3/2') string, or an
    integer.  Floats are rejected: they cannot promise exactness."""
    if isinstance(text, bool) or isinstance(text, float):
        raise DocumentError(f"{where}: expected an exact string or integer, "
                            f"got {text!r}")
    try:  # Fraction would build 10**exponent before any check
        exponent = abs(int(text.lower().partition("e")[2] or 0))
    except (AttributeError, ValueError):
        exponent = 0  # an integer, or malformed: Fraction reports it
    if exponent > MAX_EXPONENT:
        raise DocumentError(f"{where}: exponent of {text!r} exceeds "
                            f"{MAX_EXPONENT}")
    try:
        cost = Fraction(text)
        format_cost(cost)  # more than 4300 digits cannot be written back
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DocumentError(f"{where}: cannot parse {text!r} exactly") from exc
    return cost


def format_cost(c: Fraction) -> str:
    return str(c)


def parse_k(value, where: str = "k"):
    if value == "inf":
        return INF
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    raise DocumentError(f"{where}: expected a positive integer or 'inf', "
                        f"got {value!r}")


def format_k(k) -> object:
    return "inf" if k == INF else k


def _parse_edges(raw, n: int, where: str) -> List[Tuple[int, int]]:
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list of [u, v] pairs")
    seen = set()
    out = []
    for idx, item in enumerate(raw):
        loc = f"{where}[{idx}]"
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           for x in item)):
            raise DocumentError(f"{loc}: expected [u, v] with integer entries")
        u, v = item
        if u == v:
            raise DocumentError(f"{loc}: self-pair [{u}, {v}]")
        if not (0 <= u < n and 0 <= v < n):
            raise DocumentError(f"{loc}: endpoint out of range for n={n}")
        if (u, v) in seen:
            raise DocumentError(f"{loc}: duplicate edge [{u}, {v}]")
        seen.add((u, v))
        out.append((u, v))
    return out


def _parse_targets(raw, n: int, where: str) -> Dict[int, frozenset]:
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: expected a mapping vertex -> list")
    out = {}
    for key, members in raw.items():
        loc = f"{where}[{key!r}]"
        try:
            v = int(key)
        except ValueError:
            raise DocumentError(f"{loc}: key is not a vertex id") from None
        if not 0 <= v < n:
            raise DocumentError(f"{loc}: vertex out of range")
        if not isinstance(members, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in members):
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
    edge lists sit under ``edge_keys``."""
    for req in ("n", "k", "c_s", "c_l", "mode", *edge_keys):
        if req not in doc:
            raise DocumentError(f"{where}: missing field {req!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError(f"n: expected a positive integer, got {n!r}")
    if n > MAX_AGENTS:
        raise DocumentError(f"n: {n} exceeds the cap of {MAX_AGENTS} agents")
    try:
        mode = Mode(doc["mode"])
    except ValueError:
        raise DocumentError(f"mode: expected 'bidirected' or 'directed', "
                            f"got {doc['mode']!r}") from None
    try:
        params = Params(k=parse_k(doc["k"]), c_s=parse_cost(doc["c_s"], "c_s"),
                        c_l=parse_cost(doc["c_l"], "c_l"), mode=mode)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    speaking, listening = edge_keys
    net = BidirectedNetwork(n, _parse_edges(doc[speaking], n, speaking),
                            _parse_edges(doc[listening], n, listening))
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
        "c_s": format_cost(params.c_s),
        "c_l": format_cost(params.c_l),
        "mode": params.mode.value,
        prefix + "speaking": [list(e) for e in sorted(net.speaking)],
        prefix + "listening": [list(e) for e in sorted(net.listening)],
    }
    if targets.speak:
        fields["targets_s"] = {str(v): sorted(t) for v, t in sorted(targets.speak.items())}
    if targets.listen:
        fields["targets_l"] = {str(v): sorted(t) for v, t in sorted(targets.listen.items())}
    return fields


def parse_document(doc: dict) -> Tuple[BidirectedNetwork, Params, TargetSets, dict]:
    if not isinstance(doc, dict):
        raise DocumentError("document: expected a JSON object")
    unknown = set(doc) - _DOC_FIELDS
    if unknown:
        raise DocumentError(f"document: unknown fields {sorted(unknown)}")
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
           annot: Optional[Iterable[Tuple[EdgeKind, int, int, Classification]]]
           = None) -> str:
    """Deterministic DOT text.  Speaking edges are solid, listening edges
    dashed.  With an annotation (a witness scan), removable edges are red
    and addable edges are drawn in green."""
    removable = set()
    addable = []
    if annot is not None:
        for kind, u, v, cls in annot:
            if cls is Classification.REMOVABLE:
                removable.add((kind, u, v))
            elif cls is Classification.ADDABLE:
                addable.append((kind, u, v))
    lines = ["digraph network {"]
    for v in range(net.n):
        lines.append(f"  {v};")
    for u, v in sorted(net.speaking):
        color = ' color="red"' if (EdgeKind.SPEAKING, u, v) in removable else ""
        lines.append(f'  {u} -> {v} [kind="speaking"{color}];')
    for v, u in sorted(net.listening):
        color = ' color="red"' if (EdgeKind.LISTENING, v, u) in removable else ""
        lines.append(f'  {v} -> {u} [kind="listening" style="dashed"{color}];')
    for kind, u, v in sorted(addable, key=lambda t: (t[0].value, t[1], t[2])):
        style = ' style="dashed"' if kind is EdgeKind.LISTENING else ""
        lines.append(f'  {u} -> {v} [kind="{"speaking" if kind is EdgeKind.SPEAKING else "listening"}"'
                     f'{style} color="green"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- trace / certificate text ---------------------------------------------------

def trace_to_text(trace: Trace) -> str:
    header = {"record": "trace", "seed": trace.seed, "rng_id": trace.rng_id,
              "converged": trace.converged,
              "steps_sampled": trace.steps_sampled,
              **_game_fields(trace.initial, trace.params, trace.targets,
                             "initial_")}
    lines = [json.dumps(header, sort_keys=True), "step,kind,edge,u,v"]
    lines.extend(f"{m.step_index},{m.kind.value},{m.edge_kind.value},{m.u},{m.v}"
                 for m in trace.moves)
    return "\n".join(lines) + "\n"


def _trace_field(header: dict, key: str, kind: type):
    if key not in header:
        raise DocumentError(f"trace: missing field {key!r}")
    value = header[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DocumentError(f"{key}: expected {kind.__name__}, got {value!r}")
    return value


def trace_from_text(text: str) -> Trace:
    """Parse a trace record and replay its moves.  A malformed record raises
    DocumentError, a move inconsistent with the network TraceError."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise DocumentError("trace: missing header or column line")
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise DocumentError("trace: header line is not JSON") from None
    if not isinstance(header, dict) or header.get("record") != "trace":
        raise DocumentError("trace: not a trace record")
    initial, params, targets = _parse_game(
        header, ("initial_speaking", "initial_listening"), "trace")
    seed = _trace_field(header, "seed", int)
    rng_id = _trace_field(header, "rng_id", str)
    converged = _trace_field(header, "converged", bool)
    steps_sampled = _trace_field(header, "steps_sampled", int)
    moves = []
    for row in lines[2:]:
        if not row:
            continue
        try:
            step_s, kind_s, edge_s, u_s, v_s = row.split(",")
            moves.append(Move(MoveKind(kind_s), EdgeKind(edge_s),
                              int(u_s), int(v_s), int(step_s)))
        except ValueError as exc:
            raise DocumentError(f"trace: malformed move row {row!r}") from exc
    final = initial.copy()
    for mv in moves:
        apply_move(final, mv)
    return Trace(seed=seed, params=params, initial=initial, moves=moves,
                 final=final, converged=converged, steps_sampled=steps_sampled,
                 targets=targets, rng_id=rng_id)


def certificate_to_text(cert: PathCertificate, start: BidirectedNetwork,
                        params: Params) -> str:
    header = {"record": "certificate",
              "retired_edges": [list(e) for e in sorted(cert.retired_edges)],
              **_game_fields(start, params, ALL_OTHERS, "initial_")}
    lines = [json.dumps(header, sort_keys=True), "step,kind,u,v,step_label"]
    lines.extend(f"{i},{m.kind.value},{m.u},{m.v},{m.step_label}"
                 for i, m in enumerate(cert.moves))
    return "\n".join(lines) + "\n"
