"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 capacity guard, 3 assertion or
validation failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Optional

from . import convergence, dynamics, equilibrium, generators, serialize
from .metrics import metrics as compute_metrics
from .errors import (CapacityError, ConstructionError, DocumentError,
                     LemmaCheckError, TraceError)
from .model import INF, Mode, Params, all_complete


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_doc(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return serialize.parse_document(
                json.load(fh, object_pairs_hook=serialize.unique_keys))
    except DocumentError as exc:  # a repeated key or a refused field
        raise DocumentError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8/JSON, too deep
        raise DocumentError(f"{path}: not readable as JSON ({exc})") from None


_FLAGS = {"k": "--k", "c_s": "--cs", "c_l": "--cl"}


def _params(k: str, c_s: str, c_l: str, mode: Optional[str],
            where=_FLAGS) -> Params:
    """Parameters from flag or sweep-row text, a rejected value located by
    ``where[column]``; the mode is directed exactly when listening is free."""
    try:
        k = k if k == "inf" else int(k)
    except ValueError:
        pass  # parse_k rejects the text itself
    k = serialize.parse_k(k, where["k"])
    c_s = serialize.parse_cost(c_s, where["c_s"])
    c_l = serialize.parse_cost(c_l, where["c_l"])
    mode = Mode(mode or ("directed" if c_l == 0 else "bidirected"))
    try:  # only the mode rule is left: directed mode needs c_l = 0
        return Params(k=k, c_s=c_s, c_l=c_l, mode=mode)
    except ValueError as exc:
        raise DocumentError(f"{where['c_l']}: {exc}") from None


def _add_param_flags(sub):
    sub.add_argument("--k", default="inf",
                     help="path-length horizon: positive integer or 'inf'")
    sub.add_argument("--cs", default="1", help="speaking cost (decimal or p/q)")
    sub.add_argument("--cl", default="0", help="listening cost (decimal or p/q)")
    sub.add_argument("--mode", choices=["bidirected", "directed"], default=None)


@functools.cache
def build_parser() -> _Parser:
    p = _Parser(prog="netform")
    subs = p.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="emit a named network document")
    g.add_argument("family", choices=["empty", "cycle", "flower",
                                      "unbalanced-flower", "kautz", "random",
                                      "complete"])
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--D", type=int)
    g.add_argument("--ps", type=float, default=0.0)
    g.add_argument("--pl", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--lifted", action="store_true")
    g.add_argument("-o", "--output", default=None)
    _add_param_flags(g)

    r = subs.add_parser("run", help="run the edge dynamics on a document")
    r.add_argument("-i", "--input", required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--max-steps", type=int, default=None)
    r.add_argument("-o", "--output", default=None)

    c = subs.add_parser("check", help="stability / oracle checks")
    c.add_argument("-i", "--input", required=True)
    c.add_argument("--nash-oracle", action="store_true")
    c.add_argument("--bi-pairwise", action="store_true")
    c.add_argument("-o", "--output", default=None)

    pa = subs.add_parser("path", help="construct a convergence path certificate")
    pa.add_argument("-i", "--input", required=True)
    pa.add_argument("--assert-lemmas", action="store_true")
    pa.add_argument("-o", "--output", default=None)

    ce = subs.add_parser("census", help="exhaustive small-n network census")
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--sweep", default=None,
                    help="CSV of k,c_s,c_l rows to sweep")
    ce.add_argument("-o", "--output", default=None)
    _add_param_flags(ce)

    m = subs.add_parser("metrics", help="structural metrics of a document")
    m.add_argument("-i", "--input", required=True)
    m.add_argument("-o", "--output", default=None)

    d = subs.add_parser("export-dot", help="deterministic DOT export")
    d.add_argument("-i", "--input", required=True)
    d.add_argument("--annotate", action="store_true")
    d.add_argument("-o", "--output", default=None)
    return p


def _cmd_generate(args) -> int:
    params = _params(args.k, args.cs, args.cl, args.mode)
    meta = {"generator": args.family}
    fam = args.family
    cap = serialize.MAX_AGENTS
    # the agent count, refused above a document's cap before anything is
    # built; d >= 2 at least doubles the Kautz count per level, so a D past
    # the cap's bit length is over the cap without taking the whole power
    if fam == "kautz":
        d, D = _req(args.d, "--d"), _req(args.D, "--D")
        flag = "--d/--D"
        n = generators.kautz_order(d, min(D, cap.bit_length() + 1))
    else:
        n, flag = _req(args.n, "--n"), "--n"
    if n > cap:
        raise _UsageError(f"{flag}: the {fam} network would have more than "
                          f"{cap} agents, the cap of a document")
    if fam == "empty":
        net = generators.empty(n)
    elif fam == "cycle":
        net = generators.cycle(n, lifted=params.mode is Mode.BIDIRECTED)
    elif fam == "flower":
        if params.k == INF:
            raise _UsageError("flower requires a finite --k")
        net, spec = generators.balanced_flower(n, params.k)
        meta.update(petal_len=spec.petal_len, q=spec.q, center=spec.center)
    elif fam == "unbalanced-flower":
        if params.k == INF:
            raise _UsageError("unbalanced-flower requires a finite --k")
        net = generators.unbalanced_flower(n, params.k)
    elif fam == "kautz":
        net = generators.kautz(d, D)
        meta.update(d=d, D=D)
    elif fam == "random":
        net = generators.random_net(n, args.ps, args.pl, args.seed)
        meta.update(p_s=args.ps, p_l=args.pl, seed=args.seed)
    else:  # complete
        net = generators.complete_net(n, params.mode is Mode.BIDIRECTED)
    if args.lifted:  # lift is idempotent
        net = generators.lift(net)
    doc = serialize.emit_document(net, params, meta=meta)
    _write(args.output, serialize.document_text(doc))
    return 0


def _req(value, flag):
    if value is None:
        raise _UsageError(f"{flag} is required for this family")
    return value


def _cmd_run(args) -> int:
    net, params, targets, _ = _read_doc(args.input)
    trace = dynamics.run(net, params, targets, seed=args.seed,
                         max_steps=args.max_steps)
    _write(args.output, serialize.trace_to_text(trace))
    return 0


def _cmd_check(args) -> int:
    net, params, targets, _ = _read_doc(args.input)
    # one set of reach balls for the witnesses and the utilities
    balls = dynamics.ReachBalls(net, params, targets)
    report = equilibrium.bi_pairwise(balls) if args.bi_pairwise else None
    witnesses = list(balls.witnesses()) if report is None else report.witnesses
    out = {
        "stable": not witnesses,
        "witnesses": [[k.value, u, v, "addable" if move.add else "removable"]
                      for k, u, v, move in witnesses],
        "all_complete": all_complete(net),
        "symmetric": len(set(map(balls.scaled_utility, range(net.n)))) <= 1,
    }
    if args.bi_pairwise:
        out["bi_pairwise"] = report.bi_pairwise
    if args.nash_oracle:
        out["nash"] = equilibrium.brute_force_nash(net, params, targets)
    _write(args.output, serialize.document_text(out))
    return 0


def _cmd_path(args) -> int:
    net, params, targets, _ = _read_doc(args.input)
    if targets.speak or targets.listen:  # the proof counts every other agent
        raise DocumentError(f"{args.input}: path takes no target sets")
    try:  # the regime the proof covers: directed, k = inf and c_s > 0
        convergence._require(params)
    except ValueError as exc:
        raise DocumentError(f"{args.input}: {exc}") from None
    cert = convergence.construct_path(net, params,
                                      assert_lemmas=args.assert_lemmas)
    verdict = convergence.validate_certificate(cert, net, params)
    if not verdict:
        raise LemmaCheckError(
            f"constructed certificate failed replay validation: {verdict}")
    _write(args.output, serialize.certificate_to_text(cert, net, params))
    return 0


def _census_rows(n: int, params: Params, writer):
    """One row per mask, in mask order: each relabelling class's cells are
    computed once, from its least mask, and shared by its masks."""
    head = [serialize.format_k(params.k), str(params.c_s), str(params.c_l)]
    cells = [None] * 2 ** equilibrium.enumeration_bits(n, params.mode)
    for _, balls, orbit in equilibrium.census(n, params):
        report = equilibrium.bi_pairwise(balls)
        # one list of scaled integer utilities for the welfare and symmetric
        # columns, one Fraction for the welfare
        utilities = [balls.scaled_utility(v) for v in range(n)]
        row = [str(Fraction(sum(utilities), balls.scale)), int(report.stable),
               int(bool(report.bi_pairwise)), int(all_complete(balls.net)),
               int(len(set(utilities)) <= 1)]
        for mask in orbit:
            cells[mask] = row
    for mask, row in enumerate(cells):  # the orbits partition the masks
        writer.writerow(head + [mask] + row)


def _cmd_census(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "c_s", "c_l", "bitmask", "welfare", "stable",
                     "bi_pairwise", "complete", "symmetric"])
    if args.sweep:
        with open(args.sweep, "rb") as fh:
            data = fh.read()
        try:  # decoded whole, so a bad byte's line is known
            reader = csv.DictReader(io.StringIO(data.decode("utf-8-sig"),
                                                newline=None), restval="")
            rows = [(reader.line_num, row) for row in reader]
        except UnicodeDecodeError as exc:
            # exc.object is the text after any byte-order mark
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise DocumentError(f"{args.sweep}, line {line}: not UTF-8 "
                                f"({exc.reason})") from None
        except csv.Error as exc:  # a field over csv.field_size_limit(), say
            # the csv reader's count: DictReader's moves after a good row
            raise DocumentError(f"{args.sweep}, line {reader.reader.line_num}"
                                f": not readable as CSV ({exc})") from None
        missing = {"k", "c_s", "c_l"}.difference(reader.fieldnames or ())
        if missing:
            raise DocumentError(f"{args.sweep}: missing column(s) "
                                f"{', '.join(sorted(missing))}")
        for line, row in rows:
            where = {column: f"{args.sweep}, line {line}, column {column}"
                     for column in _FLAGS}
            _census_rows(args.n, _params(row["k"], row["c_s"], row["c_l"],
                                         args.mode, where), writer)
    else:
        _census_rows(args.n, _params(args.k, args.cs, args.cl, args.mode),
                     writer)
    _write(args.output, buf.getvalue())
    return 0


def _cmd_metrics(args) -> int:
    net, params, targets, _ = _read_doc(args.input)
    m = compute_metrics(net, params, targets)
    out = {
        "clustering": str(m.clustering),
        "scc_sizes": {str(k): v for k, v in sorted(m.scc_sizes.items())},
        "reciprocity": str(m.reciprocity),
        "out_speak_hist": {str(k): v for k, v in sorted(m.out_speak_hist.items())},
        "in_speak_hist": {str(k): v for k, v in sorted(m.in_speak_hist.items())},
        "out_listen_hist": {str(k): v for k, v in sorted(m.out_listen_hist.items())},
        "in_listen_hist": {str(k): v for k, v in sorted(m.in_listen_hist.items())},
        "polarization": None if m.polarization is None else str(m.polarization),
        "edge_count": sum(net.out_speak(v) + net.out_listen(v)
                          for v in range(net.n)),
    }
    _write(args.output, serialize.document_text(out))
    return 0


def _cmd_export_dot(args) -> int:
    net, params, targets, _ = _read_doc(args.input)
    annot = dynamics.scan_witnesses(net, params, targets) if args.annotate else None
    _write(args.output, serialize.to_dot(net, annot))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "check": _cmd_check,
    "path": _cmd_path,
    "census": _cmd_census,
    "metrics": _cmd_metrics,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DocumentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 2
    except (LemmaCheckError, ConstructionError, TraceError) as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 3
