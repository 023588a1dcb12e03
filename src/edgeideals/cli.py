"""Command-line front door.

Subcommands: recognize, facets, cutsets, classify, oracle, verify,
enumerate.  Graph input is auto-detected: a first token "closed" means the
facet text format ("closed n r" then r lines "a b"), an integer means the
edge-list format ("n" then "u v" lines, '#' comments).  Output is JSON by
default (schema version "1", fixed key order, byte-identical across runs)
or the text facet format where noted.

Exit codes: 0 ok; 1 malformed input; 2 input graph not closed where
closedness is required; 3 resource cap exceeded; 4 verify found a
classifier/oracle mismatch.  Every failure prints one machine-parsable
line "error <code> <message>" on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .classify import Classification, classify_facets
from .closed import (
    IntervalFacets,
    build_graph,
    format_facet_text,
    parse_facet_text,
    recognize_closed,
)
from .complexes import DEFAULT_FACE_CAP, DEFAULT_VAR_CAP
from .cutsets import cutsets_bruteforce
from .enumerators import enumerate_closed_connected, enumerate_closed_indecomposable, random_closed
from .errors import GraphInputError, NotClosedError, ResourceCapError
from .graphs import MAX_VERTICES, Graph, _text_rows, parse_edge_list
from .oracle import OracleReport, oracle_classify_facets

SCHEMA = "1"

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_CLOSED = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4

# Exhaustive `enumerate` lists all Catalan(n-1) facet chains in memory
# before writing (58,786 at n = 12, about 4x more per step).
ENUMERATE_CAP = 12
# `enumerate --random COUNT` holds COUNT chains and their JSON in memory
# too: about 2.4 KB per chain at n = 64, some 60 MB at the cap.
RANDOM_COUNT_CAP = 20_000


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None   # None: inline/stdin data passed to run()
    facet_text: bool = False
    n: int | None = None
    indecomposable: bool = False
    random_count: int | None = None
    seed: int = 0
    bias: float = 0.5
    max_vars: int = DEFAULT_VAR_CAP
    max_faces: int = DEFAULT_FACE_CAP


def _detect_and_parse(data: bytes) -> Graph:
    """Parse edge-list or facet text into a graph.

    The first token of the first line that is neither blank nor a comment
    decides the format.  Every line break of str.splitlines is whitespace
    to str.split, so unless the text opens with a comment that token is
    the first token of the whole text, found without splitting it into lines.
    """
    text = data.decode("utf-8-sig")
    head = text.lstrip()
    if head[:1] not in ("", "#"):
        first = head.split(None, 1)[0]
    else:
        first = next((fields[0] for _, _, fields in _text_rows(head)), None)
    if first is None:
        raise GraphInputError("empty input")
    if first == "closed":
        return build_graph(parse_facet_text(text))
    return parse_edge_list(text)


def _facets_json(F: IntervalFacets):
    return [[a, b] for a, b in F.facets]


def _classification_json(c: Classification) -> dict:
    return {
        "schema": SCHEMA,
        "closed": True,
        "n": c.facets.n,
        "facets": _facets_json(c.facets),
        "blocks": [_facets_json(b) for b in c.blocks],
        "components": c.components,
        "unmixed": c.unmixed,
        "cm": c.cm,
        "scm": c.scm,
        "scm_witness_k": list(c.scm_witness_k_per_block),
        "almost_cm": c.almost_cm,
        "approx_cm": c.approx_cm,
        "dim": c.krull_dim,
    }


def _oracle_json(rep: OracleReport) -> dict:
    return {
        "schema": SCHEMA,
        "dim": rep.dim_quotient,
        "depth": rep.depth,
        "cm": rep.cm,
        "scm": rep.scm,
        "scm_goodarzi": rep.scm_goodarzi,
        "almost_cm": rep.almost_cm,
        "approx_cm": rep.approx_cm,
        "method": "squarefree-degeneration",
    }


def _dump(obj) -> bytes:
    return (json.dumps(obj, separators=(", ", ": ")) + "\n").encode()


def _require_closed(G: Graph):
    rec = recognize_closed(G)
    if rec is None:
        raise NotClosedError("input graph is not closed")
    return rec


def run(config: RunConfig, data: bytes) -> tuple[int, bytes, bytes]:
    """Execute one command; returns (exit code, stdout bytes, stderr bytes)."""
    try:
        for flag, cap in (("--max-vars", config.max_vars), ("--max-faces", config.max_faces)):
            if cap < 1:
                raise GraphInputError(f"{flag} must be >= 1, got {cap}")
        return EXIT_OK, _dispatch(config, data), b""
    except NotClosedError as exc:
        return EXIT_NOT_CLOSED, b"", f"error {EXIT_NOT_CLOSED} {exc}\n".encode()
    except ResourceCapError as exc:
        return EXIT_RESOURCE, b"", f"error {EXIT_RESOURCE} {exc}\n".encode()
    except _VerifyMismatch as exc:
        return EXIT_MISMATCH, exc.payload, f"error {EXIT_MISMATCH} {exc}\n".encode()
    except (GraphInputError, ValueError) as exc:
        return EXIT_BAD_INPUT, b"", f"error {EXIT_BAD_INPUT} {exc}\n".encode()


class _VerifyMismatch(Exception):
    def __init__(self, message: str, payload: bytes):
        super().__init__(message)
        self.payload = payload


def _dispatch(config: RunConfig, data: bytes) -> bytes:
    cmd = config.command
    if cmd == "enumerate":
        return _cmd_enumerate(config)
    G = _detect_and_parse(data)

    if cmd == "recognize":
        rec = recognize_closed(G)
        if rec is None:
            raise NotClosedError("no closed labeling exists (proper-interval test failed)")
        labeling, F = rec
        return _dump({
            "schema": SCHEMA,
            "closed": True,
            "n": G.n,
            "labeling": list(labeling.perm[1:]),
            "facets": _facets_json(F),
        })

    if cmd == "facets":
        _, F = _require_closed(G)
        if config.facet_text:
            return format_facet_text(F).encode()
        return _dump({"schema": SCHEMA, "n": F.n, "facets": _facets_json(F)})

    if cmd == "cutsets":
        records = cutsets_bruteforce(G)
        return _dump({
            "schema": SCHEMA,
            "n": G.n,
            "cutsets": [{"W": list(r.W), "c": r.c, "dim": r.dim} for r in records],
        })

    if cmd == "classify":
        _, F = _require_closed(G)
        return _dump(_classification_json(classify_facets(F)))

    if cmd == "oracle":
        _, F = _require_closed(G)
        rep = oracle_classify_facets(F, max_vars=config.max_vars, max_faces=config.max_faces)
        return _dump(_oracle_json(rep))

    if cmd == "verify":
        return _cmd_verify(config, G)

    raise GraphInputError(f"unknown command {cmd!r}")


def _cmd_verify(config: RunConfig, G: Graph) -> bytes:
    _, F = _require_closed(G)
    cl = classify_facets(F)
    rep = oracle_classify_facets(F, max_vars=config.max_vars, max_faces=config.max_faces)
    mismatches = []
    for name, a, b in [
        ("dim", cl.krull_dim, rep.dim_quotient),
        ("cm", cl.cm, rep.cm),
        ("scm", cl.scm, rep.scm),
        ("almost_cm", cl.almost_cm, rep.almost_cm),
        ("approx_cm", cl.approx_cm, rep.approx_cm),
    ]:
        if a != b:
            mismatches.append({"field": name, "classifier": a, "oracle": b})
    if F.is_connected and F.r == 2:
        # two maximal cliques [1,b],[a,n]: golden depth value n + a - b + 1
        a2 = F.facets[1][0]
        b1 = F.facets[0][1]
        expected_depth = F.n + a2 - b1 + 1
        if rep.depth != expected_depth:
            mismatches.append({
                "field": "depth", "classifier": expected_depth, "oracle": rep.depth,
            })
    payload = _dump({
        "schema": SCHEMA,
        "agree": not mismatches,
        "mismatches": mismatches,
        "classifier": _classification_json(cl),
        "oracle": _oracle_json(rep),
    })
    if mismatches:
        fields = ",".join(m["field"] for m in mismatches)
        raise _VerifyMismatch(f"classifier/oracle disagree on: {fields}", payload)
    return payload


def _cmd_enumerate(config: RunConfig) -> bytes:
    n, count = config.n, config.random_count
    if n is None:
        raise GraphInputError("enumerate requires --n")
    if not 1 <= n <= MAX_VERTICES:
        raise GraphInputError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    if count is not None and count < 0:
        raise GraphInputError(f"--random COUNT must be >= 0, got {count}")
    if count is not None and count > RANDOM_COUNT_CAP:
        raise ResourceCapError(
            f"random enumeration capped at COUNT <= {RANDOM_COUNT_CAP} (got COUNT = {count})"
        )
    # refused whatever COUNT is, not only when a chain is drawn; NaN fails too
    if not 0.0 <= config.bias <= 1.0:
        raise GraphInputError(f"density_bias must be in [0, 1], got {config.bias}")
    if count is not None:
        if config.indecomposable:
            raise GraphInputError("--indecomposable lists chains exhaustively; it cannot take --random")
        chains = [random_closed(n, config.seed + k, config.bias) for k in range(count)]
    elif n > ENUMERATE_CAP:
        raise ResourceCapError(
            f"exhaustive enumeration capped at n <= {ENUMERATE_CAP} (got n = {n}); "
            "use --random for larger n"
        )
    elif config.indecomposable:
        chains = list(enumerate_closed_indecomposable(n))
    else:
        chains = list(enumerate_closed_connected(n))
    if config.facet_text:
        return "".join(format_facet_text(F) for F in chains).encode()
    return _dump({
        "schema": SCHEMA,
        "n": n,
        "count": len(chains),
        "facets_list": [_facets_json(F) for F in chains],
    })


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise GraphInputError(message)


def _build_parser() -> _Parser:
    """Each subcommand accepts only the flags it reads; dests are RunConfig fields."""
    p = _Parser(prog="edgeideals", add_help=True)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("recognize", "facets", "cutsets", "classify", "oracle", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--input", dest="input_path", metavar="PATH", default="-",
                        help="path to graph/facet file, '-' for stdin")
        if name == "facets":
            sp.add_argument("--facet-text", action="store_true")
        if name in ("oracle", "verify"):
            sp.add_argument("--max-vars", type=int, default=DEFAULT_VAR_CAP)
            sp.add_argument("--max-faces", type=int, default=DEFAULT_FACE_CAP)
    se = sub.add_parser("enumerate")
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--indecomposable", action="store_true")
    se.add_argument("--facet-text", action="store_true")
    se.add_argument("--random", dest="random_count", type=int, default=None, metavar="COUNT")
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--bias", type=float, default=0.5)
    return p


def config_from_argv(argv) -> RunConfig:
    return RunConfig(**vars(_build_parser().parse_args(argv)))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = config_from_argv(argv)
    except GraphInputError as exc:
        sys.stderr.write(f"error {EXIT_BAD_INPUT} {exc}\n")
        return EXIT_BAD_INPUT
    data = b""
    if cfg.command != "enumerate":
        if cfg.input_path in (None, "-"):
            data = sys.stdin.buffer.read()
        else:
            try:
                with open(cfg.input_path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                sys.stderr.write(f"error {EXIT_BAD_INPUT} {exc}\n")
                return EXIT_BAD_INPUT
    code, out, err = run(cfg, data)
    if out:
        sys.stdout.buffer.write(out)
    if err:
        sys.stderr.write(err.decode())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
