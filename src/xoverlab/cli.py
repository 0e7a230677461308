"""Command-line front end.

Subcommands wrap the library one-to-one: rset and closure emit word sets,
axioms runs catalog checks on a chosen set system, graph analyzes the
induced structure, om builds the sign-vector data, verify reruns the named
result suites.  Every JSON document carries tool_version, config and
command header fields; all orders are canonical, so identical invocations
emit identical bytes.  The seed only influences suites that sample.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys

from . import __version__, verify as verify_mod
from .axioms import (
    AXIOM_IDS,
    DEFAULT_SIX_VAR_LIMIT,
    SIX_VAR_AXIOMS,
    check_all,
    check_axiom,
    table_from_closure,
    table_from_interval,
    table_from_rset,
)
from .crossover import closure, is_closed, rset, transit_graph
from .graphs import hamming_graph
from .matroid import face_lattice, is_uniform, om_from_rset, uniform_tope_check
from .partialcube import (
    cut_sizes,
    degree_profile,
    is_antipodal,
    is_partial_cube,
    is_planar_quadrangulation,
    largest_cube_minor_dim,
    vc_dimension,
)
from .words import DEFAULT_BUDGET, AlphabetSpec, Word, hamming_distance

# colorbrewer Dark2 + Set1, fixed order; cut class c gets entry c mod 12
PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02",
    "#a6761d", "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
)


class CliError(ValueError):
    """Bad command line; reported on stderr with exit status 2."""


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temp file beside it and a rename, so no
    reader ever sees a partial file.  An OSError becomes a CliError."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as err:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise CliError(f"cannot write {path}: {err.strerror or err}") from err


def _parse_spec(args, word_text: str | None = None) -> AlphabetSpec:
    if args.spec is not None:
        return AlphabetSpec.parse(args.spec)
    if word_text is None:
        raise CliError("this command needs --spec")
    if "," not in word_text and set(word_text) <= {"0", "1"} and word_text:
        return AlphabetSpec((2,) * len(word_text))
    raise CliError(
        f"cannot infer an alphabet from {word_text!r}; pass --spec"
    )


def _parse_pair(args) -> tuple[Word, Word]:
    spec = _parse_spec(args, args.x)
    spec.check_budget(args.budget)
    return Word.parse(args.x, spec), Word.parse(args.y, spec)


def _config(args) -> dict:
    return {
        "spec": args.spec,
        "budget": args.budget,
        "format": args.format,
        "seed": args.seed,
        "out": args.out,
    }


def _doc(args, command: str, **payload) -> dict:
    return {
        "tool_version": __version__,
        "config": _config(args),
        "command": command,
        **payload,
    }


def _render_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines) + "\n"


def _render(args, doc: dict, table_rows, table_headers) -> str:
    if args.format == "json":
        return json.dumps(doc, indent=2) + "\n"
    if args.format == "table":
        return _render_table(table_headers, table_rows)
    raise CliError(f"format dot is not available for {doc['command']}")


def _member_payload(args, command: str, k: int, x: Word, y: Word,
                    members) -> tuple[dict, list, tuple]:
    words = [str(w) for w in members]
    doc = _doc(
        args, command,
        k=k, x=str(x), y=str(y),
        distance=hamming_distance(x, y),
        size=len(words),
        closed=is_closed(k, x, y) if command == "rset" else True,
        members=words,
    )
    rows = [(str(w.index), str(w)) for w in members]
    return doc, rows, ("index", "word")


def cmd_rset(args) -> tuple[int, str]:
    x, y = _parse_pair(args)
    result = rset(args.k, x, y)
    doc, rows, headers = _member_payload(args, "rset", args.k, x, y,
                                         result.members)
    return 0, _render(args, doc, rows, headers)


def cmd_closure(args) -> tuple[int, str]:
    x, y = _parse_pair(args)
    members = closure(args.k, x, y, budget=args.budget)
    doc, rows, headers = _member_payload(args, "closure", args.k, x, y,
                                         members)
    return 0, _render(args, doc, rows, headers)


def _build_table(source: str, spec: AlphabetSpec, budget: int):
    kind, _, rest = source.partition(":")
    if kind == "interval" and not rest:
        g = hamming_graph(spec, budget)
        return table_from_interval(g).renamed(f"interval on {spec}")
    if kind in ("rset", "closure") and rest.isdigit():
        k = int(rest)
        builder = table_from_rset if kind == "rset" else table_from_closure
        return builder(k, spec, budget=budget)
    raise CliError(
        f"bad source {source!r}; expected rset:k, closure:k, or interval"
    )


def cmd_axioms(args) -> tuple[int, str]:
    spec = _parse_spec(args)
    if args.check is None or args.check == "all":
        names = None
    else:
        names = [ax.strip() for ax in args.check.split(",") if ax.strip()]
    # refuse before building the table: a 2^9 table alone takes seconds
    spec.check_budget(args.budget)
    if spec.size > DEFAULT_SIX_VAR_LIMIT and (
        names is None or set(names) & set(SIX_VAR_AXIOMS)
    ):
        raise CliError(
            f"{', '.join(SIX_VAR_AXIOMS)} are checked only on carriers of at "
            f"most {DEFAULT_SIX_VAR_LIMIT} words, and --spec {args.spec} has "
            f"{spec.size}; pass --check without them, or a smaller --spec"
        )
    table = _build_table(args.source, spec, args.budget)
    if names is None:
        reports = check_all(table)
    else:
        reports = [check_axiom(table, ax) for ax in names]
    records = [
        {
            "axiom": r.axiom,
            "holds": r.holds,
            "witness": None if r.witness is None else [str(w) for w in r.witness],
            "universe": r.universe,
        }
        for r in reports
    ]
    doc = _doc(args, "axioms", source=args.source, reports=records)
    rows = [
        (
            r["axiom"],
            "holds" if r["holds"] else "fails",
            "-" if r["witness"] is None else " ".join(r["witness"]),
        )
        for r in records
    ]
    return 0, _render(args, doc, rows, ("axiom", "verdict", "witness"))


def _graph_stats(g, emb, binary: bool) -> dict:
    anti = is_antipodal(g)
    try:
        quad, faces = is_planar_quadrangulation(g)
    except ValueError:
        quad, faces = False, None
    return {
        "vertices": g.n,
        "edges": g.m,
        "degrees": {str(d): c for d, c in degree_profile(g).items()},
        "is_partial_cube": emb is not None,
        "cut_sizes": list(cut_sizes(emb)) if emb is not None else None,
        "antipodal": (
            None if anti is None
            else {str(v): str(w) for v, w in sorted(
                anti.items(), key=lambda p: str(p[0])
            )}
        ),
        "planar_quadrangulation": {"holds": quad, "quadrangles": faces},
        "vc_dimension": (
            vc_dimension(list(g.vertices)) if binary and g.n else None
        ),
        "cube_minor_dim": (
            largest_cube_minor_dim(emb) if emb is not None else None
        ),
    }


def _graph_dot(g, emb) -> str:
    edge_class = {}
    if emb is not None:
        for c, cls in enumerate(emb.cuts):
            for e in cls:
                edge_class[e] = c
    lines = ["graph transit_graph {", "  node [shape=box];"]
    for w in g.vertices:
        lines.append(f'  "{w}";')
    for e in g.edges:
        u, v = g.vertices[e[0]], g.vertices[e[1]]
        attr = ""
        if e in edge_class:
            color = PALETTE[edge_class[e] % len(PALETTE)]
            attr = f' [color="{color}"]'
        lines.append(f'  "{u}" -- "{v}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_graph(args) -> tuple[int, str]:
    x, y = _parse_pair(args)
    g = transit_graph(args.k, x, y)
    emb = is_partial_cube(g)
    if args.format == "dot":
        return 0, _graph_dot(g, emb)
    stats = _graph_stats(g, emb, x.spec.is_binary)
    doc = _doc(
        args, "graph",
        k=args.k, x=str(x), y=str(y),
        stats=stats,
        vertices=[str(w) for w in g.vertices],
        edges=[[str(g.vertices[i]), str(g.vertices[j])] for i, j in g.edges],
    )
    rows = [("vertices", str(stats["vertices"])),
            ("edges", str(stats["edges"]))]
    rows += [(f"degree {d}", str(c)) for d, c in stats["degrees"].items()]
    rows.append(("partial cube", "yes" if stats["is_partial_cube"] else "no"))
    if stats["cut_sizes"] is not None:
        rows += [(f"cut {i + 1}", str(s))
                 for i, s in enumerate(stats["cut_sizes"])]
    rows.append(("antipodal", "yes" if stats["antipodal"] else "no"))
    pq = stats["planar_quadrangulation"]
    rows.append(("quadrangulation",
                 str(pq["quadrangles"]) if pq["holds"] else "no"))
    if stats["vc_dimension"] is not None:
        rows.append(("vc dimension", str(stats["vc_dimension"])))
    return 0, _render(args, doc, rows, ("statistic", "value"))


def cmd_om(args) -> tuple[int, str]:
    AlphabetSpec((2,) * args.n).check_budget(args.budget)
    om = om_from_rset(args.k, args.n)
    uniform, support = is_uniform(om)
    doc = _doc(
        args, "om",
        k=args.k, n=args.n,
        ground_size=om.ground_size,
        rank=om.rank,
        tope_count=len(om.topes),
        cocircuit_count=len(om.cocircuits),
        covector_count=len(om.covectors),
        uniform=uniform,
        cocircuit_support_size=support,
        uniform_tope_check=uniform_tope_check(om.topes),
        topes=[str(t) for t in om.topes],
        cocircuits=[str(c) for c in om.cocircuits],
    )
    if args.lattice:
        lat = face_lattice(om)
        doc["face_lattice"] = {
            "path": args.lattice,
            "level_sizes": list(lat.level_sizes()),
        }
    rows = [
        ("ground size", str(om.ground_size)),
        ("rank", str(om.rank)),
        ("topes", str(len(om.topes))),
        ("cocircuits", str(len(om.cocircuits))),
        ("covectors", str(len(om.covectors))),
        ("uniform", "yes" if uniform else "no"),
        ("cocircuit support", str(support) if support is not None else "-"),
        ("tope count check", "pass" if doc["uniform_tope_check"] else "fail"),
    ]
    if args.lattice:
        rows.append(("lattice levels",
                     " ".join(str(s) for s in doc["face_lattice"]["level_sizes"])))
    text = _render(args, doc, rows, ("quantity", "value"))
    if args.lattice:
        _write_atomic(args.lattice, lat.to_dot())
    return 0, text


def _parse_t_range(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise CliError(f"empty t range {text!r}")
    return tuple(out)


def cmd_verify(args) -> tuple[int, str]:
    requested = {}
    if args.max_n is not None:
        requested["max_n"] = args.max_n
    if args.max_k is not None:
        requested["max_k"] = args.max_k
    if args.t is not None:
        requested["ts"] = _parse_t_range(args.t)
    requested["seed"] = args.seed
    names = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    if args.suite not in list(verify_mod.SUITES) + ["all"]:
        known = ", ".join(list(verify_mod.SUITES) + ["all"])
        raise CliError(f"unknown suite {args.suite!r}; known suites: {known}")
    calls = []
    for name in names:
        fn = verify_mod.SUITES[name]
        accepted = inspect.signature(fn).parameters
        kwargs = {k: v for k, v in requested.items() if k in accepted}
        if "max_n" in accepted:
            # a suite's sweeps enumerate binary spaces of up to max_n positions
            max_n = kwargs.get("max_n", accepted["max_n"].default)
            if max_n >= 1:
                AlphabetSpec((2,) * max_n).check_budget(args.budget)
        calls.append((fn, kwargs))
    results = [fn(**kwargs) for fn, kwargs in calls]
    doc = _doc(
        args, "verify",
        suite=args.suite,
        passed=all(r.passed for r in results),
        results=[
            {"name": r.name, "passed": r.passed, "details": list(r.details)}
            for r in results
        ],
    )
    rows = [
        (r.name, "pass" if r.passed else "FAIL")
        for r in results
    ]
    code = 0 if doc["passed"] else 1
    return code, _render(args, doc, rows, ("suite", "status"))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", default=None,
                        help="alphabet sizes, e.g. 2^4 or 3,3")
    common.add_argument("--format", default="json",
                        choices=("json", "dot", "table"))
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration budget (default 2^20)")
    common.add_argument("--out", default=None,
                        help="write the document to this path")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks")

    parser = argparse.ArgumentParser(
        prog="xoverlab",
        description="crossover recombination sets: axioms, graphs, "
                    "sign-vector data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rset", parents=[common],
                       help="recombination set of a parent pair")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-x", required=True)
    p.add_argument("-y", required=True)
    p.set_defaults(fn=cmd_rset)

    p = sub.add_parser("closure", parents=[common],
                       help="recombination closure of a parent pair")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-x", required=True)
    p.add_argument("-y", required=True)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("axioms", parents=[common],
                       help="check catalog axioms on a set system")
    p.add_argument("--source", required=True,
                   help="rset:k, closure:k, or interval")
    p.add_argument("--check", default=None,
                   help="comma-separated axiom ids, or all")
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("graph", parents=[common],
                       help="induced graph of a recombination set")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-x", required=True)
    p.add_argument("-y", required=True)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("om", parents=[common],
                       help="oriented-matroid data of antipodal binary parents")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--lattice", default=None,
                   help="also write the face lattice as DOT to this path")
    p.set_defaults(fn=cmd_om)

    p = sub.add_parser("verify", parents=[common],
                       help="rerun a named result suite")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--t", default=None, help="t values, e.g. 4..7 or 4,6")
    p.set_defaults(fn=cmd_verify)

    return parser


def _run(argv) -> tuple[int, str, str | None]:
    parser = _build_parser()
    args = parser.parse_args(argv)
    code, text = args.fn(args)
    return code, text, args.out


def render_command(argv) -> str:
    """Document a command line would emit; used by the determinism suite."""
    return _run(argv)[1]


def main(argv=None) -> int:
    try:
        code, text, out = _run(sys.argv[1:] if argv is None else argv)
        if out:
            _write_atomic(out, text)
    except ValueError as err:  # CliError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
