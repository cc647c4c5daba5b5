"""Output checks, run outside the timed region.

``check_output`` checks one job's output against its input document with
netform's own validating paths and returns the job's units of work.  At the
default seed every output must also match the sha256 digest recorded in
``digests.json``.
"""

from __future__ import annotations

import csv
import io
import json

from netform import convergence, dynamics, equilibrium, serialize
from netform.convergence import CertMove, PathCertificate
from netform.dynamics import MoveKind
from netform.model import BidirectedNetwork, Mode


class CheckError(Exception):
    pass


def read_doc(path: str):
    with open(path, encoding="utf-8") as fh:
        return serialize.parse_document(json.load(fh))


def _require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def _trace(text, job, doc) -> int:
    net, params, targets, _ = doc
    trace = serialize.trace_from_text(text)
    _require(trace.initial == net and trace.params == params
             and trace.targets == targets,
             "trace header does not match the input document")
    dynamics.replay(trace)
    _require(bool(dynamics.never_readd_check(trace)),
             "a dead pair was re-added")
    _require(trace.converged, "run did not converge")
    _require(equilibrium.is_stable(trace.final, params, targets).stable,
             "final network of a converged run is not stable")
    return trace.steps_sampled


def _certificate(text, job, doc) -> int:
    net, params, _, _ = doc
    lines = text.splitlines()
    header = json.loads(lines[0])
    _require(header.get("record") == "certificate"
             and lines[1] == "step,kind,u,v,step_label",
             "not a certificate record")
    start = BidirectedNetwork(header["n"],
                              [tuple(e) for e in header["initial_speaking"]],
                              [tuple(e) for e in header["initial_listening"]])
    _require(start == net, "certificate start differs from the input document")
    moves = []
    final = start.copy()
    for i, row in enumerate(lines[2:]):
        step, kind, u, v, label = row.split(",")
        _require(int(step) == i, f"certificate row {i} is numbered {step}")
        move = CertMove(MoveKind(kind), int(u), int(v), int(label))
        if move.kind is MoveKind.ADD_SPEAKING:
            final.add_speaking(move.u, move.v)
        elif move.kind is MoveKind.REMOVE_SPEAKING:
            final.remove_speaking(move.u, move.v)
        moves.append(move)
    cert = PathCertificate(moves=moves, final=final,
                           retired_edges={tuple(e) for e in header["retired_edges"]})
    _require(convergence.validate_certificate(cert, start, params),
             "certificate failed replay validation")
    return len(moves)


def _census(text, job, doc) -> int:
    argv = list(job.argv)
    n = int(argv[argv.index("--n") + 1])
    mode = Mode(argv[argv.index("--mode") + 1])
    rows = list(csv.reader(io.StringIO(text)))
    expected = 2 ** equilibrium.enumeration_bits(n, mode)
    _require(rows[0] == ["k", "c_s", "c_l", "bitmask", "welfare", "stable",
                         "bi_pairwise", "complete", "symmetric"],
             "census header changed")
    _require([int(r[3]) for r in rows[1:]] == list(range(expected)),
             f"census has {len(rows) - 1} rows, expected one per mask "
             f"0..{expected - 1}")
    return expected


def _scan_pairs(net) -> int:
    return 2 * net.n * (net.n - 1)


def _check(text, job, doc) -> int:
    net = doc[0]
    out = json.loads(text)
    _require({"stable", "witnesses", "all_complete", "symmetric",
              "bi_pairwise"} <= set(out), "check output lacks a field")
    _require(out["stable"] == (out["witnesses"] == []),
             "stable disagrees with the witness list")
    return 2 * _scan_pairs(net)  # is_stable, then again in is_bi_pairwise_stable


def _dot(text, job, doc) -> int:
    net = doc[0]
    lines = text.splitlines()
    _require(lines[0] == "digraph network {" and lines[-1] == "}",
             "not a DOT digraph")
    _require(lines[1:1 + net.n] == [f"  {v};" for v in range(net.n)],
             "DOT node list differs")
    drawn = [ln for ln in lines if "->" in ln and 'color="green"' not in ln]
    _require(sum('kind="speaking"' in ln for ln in drawn) == len(net.speaking)
             and sum('kind="listening"' in ln for ln in drawn)
             == len(net.listening), "DOT edge list differs")
    return _scan_pairs(net)


def _metrics(text, job, doc) -> int:
    net = doc[0]
    out = json.loads(text)
    _require(out["edge_count"] == len(net.speaking) + len(net.listening)
             and sum(out["out_speak_hist"].values()) == net.n,
             "metrics disagree with the document")
    return 0


_CHECKS = {"trace": _trace, "certificate": _certificate, "census": _census,
           "check": _check, "dot": _dot, "metrics": _metrics}


def check_output(job, data: bytes, doc) -> int:
    """Raise CheckError if the output is wrong, else return its work units."""
    try:
        return _CHECKS[job.check](data.decode("utf-8"), job, doc)
    except CheckError:
        raise
    except Exception as exc:  # a malformed output is a failed check
        raise CheckError(f"{type(exc).__name__}: {exc}") from exc
