"""Command-line front end.

Verbs: count, hamiltonize, tuple {decode,encode,mu,validate}, search, block,
bound.  Every command is deterministic given identical flags and inputs,
apart from the wall seconds that ``search``, ``block`` and ``bound`` report,
with how they stopped (``complete`` or ``budget``), in their provenance.
``search`` and ``block`` also list there each raise of the incumbent as
[nodes so far, new value] under ``incumbents``; ``block`` lists none for a
row it read from the table.  ``block`` also gives there ``lookahead_cuts``
and ``open_count_cuts``, the children only the search's lookahead bound and
only the counts of the tails left open cut (each null for a row read from
the table).  ``search`` lists only raises above its seed,
the closed family member it starts from, which it reports under ``seed``
(family, tuple and total, or null).
Exit status: 0 success, 1 validation or parse error, 2 incomplete result
under --strict.  A search or block solve the budget stops reports one node
more than ``--budget``: the node it refused is counted.

``block --k K --table PATH`` keeps the block table at PATH (a missing file
is an empty one).  It audits every row with ``blocks.load_table``, solves
each size 2..K without a proven row, ascending, on the ladder of the proven
rows, rewrites the file after each, with one progress line on stderr, and
reports row K as a solve is reported; the row's solver goes into the
provenance.  ``bound --range LO HI --table PATH`` walks the same table up to
HI and assembles the bound from its rows, solving only the missing rungs.
Without ``--table`` both commands walk an empty table held in memory.  With
it, the provenance holds the SHA-256 of the file as the command leaves it
and ``"relative_to": "table"``: a result is proven relative to the table's
proven rows.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from . import __version__, blocks, fileio, search
from .dag import Dag, count_paths, validate
from .hamilton import RewriteError, hamiltonize
from .tuples import (
    TupleClass,
    decode,
    encode,
    format_tuple,
    parse_tuple,
    tuple_mu,
    validity_issues,
)

OK, FAIL, INCOMPLETE = 0, 1, 2


def _read_graph(path: str):
    text = Path(path).read_text() if path != "-" else sys.stdin.read()
    return fileio.parse_graph_text(text)


def _emit(args, document: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(fileio.report_json(document))
    else:
        for line in text_lines:
            print(line)


def _tuple_class(name: str) -> TupleClass:
    return TupleClass.MERGED if name == "merged" else TupleClass.BOUNDARY


def cmd_count(args) -> int:
    dag = _read_graph(args.file)
    report = validate(dag)
    if not report.ok:
        for v in report.violations:
            print(f"invalid: {v}", file=sys.stderr)
        return FAIL
    pc = count_paths(dag)
    doc = fileio.make_report(
        "count",
        {"file": args.file, "vertices": dag.vertex_count},
        {"total": pc.total, "mu": list(pc.mu)},
    )
    _emit(args, doc, [f"total: {pc.total}", "mu: " + " ".join(str(m) for m in pc.mu)])
    return OK


def cmd_hamiltonize(args) -> int:
    result, log = hamiltonize(_read_graph(args.file))
    total_after = count_paths(result).total
    # the first move starts from the tree-sorted counts; no move, no change
    total_before = log[0].mu_before[-1] if log else total_after
    graph_text = fileio.write_graph_text(result, ("rewritten onto a Hamiltonian path",))
    if args.out:
        Path(args.out).write_text(graph_text)
    move_lines = [
        f"{m.kind} move at {m.focus}: removed {m.removed[0]},{m.removed[1]} "
        f"added {m.added[0]},{m.added[1]}"
        for m in log
    ]
    doc = fileio.make_report(
        "hamiltonize",
        {"file": args.file},
        {
            "total_before": total_before,
            "total_after": total_after,
            "moves": move_lines,
            "edges": [list(e) for e in result.edges],
        },
    )
    text = [] if args.out else [graph_text.rstrip("\n")]
    text += [f"moves: {len(log)}"] + move_lines
    text += [f"total: {total_before} -> {total_after}"]
    _emit(args, doc, text)
    return OK


def cmd_tuple(args) -> int:
    klass = _tuple_class(args.klass)
    if args.verb == "decode":
        t = parse_tuple(args.value, klass)
        dag = decode(t)
        text = fileio.write_graph_text(dag, (f"decoded from {format_tuple(t)} ({args.klass})",))
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return OK
    if args.verb == "encode":
        dag = _read_graph(args.value)
        t = encode(dag)
        doc = fileio.make_report(
            "tuple-encode",
            {"file": args.value},
            {"tuple": format_tuple(t), "class": t.klass.value},
        )
        _emit(args, doc, [f"tuple: {format_tuple(t)}", f"class: {t.klass.value}"])
        return OK
    if args.verb == "mu":
        t = parse_tuple(args.value, klass)
        am = tuple_mu(t)
        doc = fileio.make_report(
            "tuple-mu",
            {"tuple": format_tuple(t), "class": args.klass},
            {"arc_mu": list(am.arc_mu), "total": am.total},
        )
        _emit(
            args,
            doc,
            ["arc_mu: " + " ".join(str(m) for m in am.arc_mu), f"total: {am.total}"],
        )
        return OK
    # validate, the one verb left
    t = parse_tuple(args.value, klass)
    issues = validity_issues(t, args.conn)
    doc = fileio.make_report(
        "tuple-validate",
        {"tuple": format_tuple(t), "class": args.klass, "connectivity": args.conn},
        {"valid": not issues, "issues": issues},
    )
    lines = [f"valid: {str(not issues).lower()}"] + [f"issue: {s}" for s in issues]
    _emit(args, doc, lines)
    return OK if not issues else FAIL


def cmd_search(args) -> int:
    prunes = frozenset(args.prune or ())
    t0 = time.perf_counter()
    if args.check:
        flags = (("--class", args.klass), ("--conn", args.conn), ("--simple", args.simple))
        given = [flag for flag, value in flags if value]
        if given:
            fixed = "the class, connectivity and simplicity"
            raise ValueError(f"--check {args.check} fixes {fixed}; drop {', '.join(given)}")
        report = search.check_conjecture(args.check, args.n, args.budget, prunes)
    else:
        spec = search.SearchSpec(
            n=args.n,
            klass=_tuple_class(args.klass or "boundary"),
            connectivity=args.conn or 1,
            simple_only=args.simple,
            prunes=prunes,
        )
        report = search.find_extremal(spec, args.budget)
    seconds = time.perf_counter() - t0
    outputs = {
        "max_total": report.max_total,
        "witnesses": [",".join(map(str, w)) for w in report.witnesses],
        "complete": report.complete,
        "nodes": report.nodes,
        "dead_prefix_cuts": report.dead_prefix_cuts,
        "simple_cuts": report.simple_cuts,
        "run_cuts": report.run_cuts,
        "bound_cuts": report.bound_cuts,
        "dominance_cuts": report.dominance_cuts,
    }
    lines = [
        f"max: {report.max_total}",
        "witnesses: " + "; ".join(",".join(map(str, w)) for w in report.witnesses),
    ]
    if report.closed_form:
        cf = report.closed_form
        outputs["closed_form"] = {
            "name": cf.name,
            "value": cf.value,
            "exact": cf.exact_value,
            "claim": cf.claim,
            "tight_claimed": cf.tight_claimed,
            "equal": cf.equal,
            "exceeded": cf.exceeded,
        }
        lines.append(
            f"closed form {cf.name}: {cf.exact_value if cf.exact_value is not None else cf.value}"
            f" ({cf.claim}; equal={cf.equal})"
        )
        if cf.exceeded:
            lines.append(
                "COUNTEREXAMPLE: search exceeded the conjectured bound; witnesses above"
            )
            outputs["counterexamples"] = [",".join(map(str, w)) for w in report.counterexamples]
    if not report.complete:
        lines.append("warning: search incomplete (budget exhausted)")
    spec = report.spec
    seed = report.seed
    doc = fileio.make_report(
        "search",
        {
            "n": args.n,
            "check": args.check,
            # the spec searched, which --check derives from its row and n
            "length": spec.n,
            "class": spec.klass.value,
            "connectivity": spec.connectivity,
            "simple": spec.simple_only,
            "prunes": sorted(spec.prunes),
        },
        outputs,
        {
            "budget": args.budget,
            "stop": "complete" if report.complete else "budget",
            "seconds": seconds,
            # the closed family member the incumbent starts at, if any
            "seed": None if seed is None else {
                "family": seed.family,
                "tuple": ",".join(map(str, seed.values)),
                "total": seed.total,
            },
            # each raise of the maximum above the seed: [nodes so far, new maximum]
            "incumbents": [list(step) for step in report.incumbent_trail],
        },
    )
    _emit(args, doc, lines)
    if not report.complete:
        return INCOMPLETE if args.strict else OK
    return OK


def _extend_table(
    path: Path | None, k_max: int, budget: int | None
) -> tuple[dict[int, dict], dict[int, blocks.BlockSolution]]:
    """The audited rows at ``path``, every size 2..k_max proven or solved.

    Also returns the solution of each size solved here, which holds what
    its row does not store: the incumbent trail, the lookahead and the
    open-count cuts.
    With no path the table starts empty and stays in memory: no file is
    written and no progress line printed.
    """
    if k_max < 2:
        raise ValueError(f"blocks need k >= 2, not k={k_max}")
    if budget is not None and budget < 0:  # rejected even when no size is solved
        raise ValueError(f"budget must be non-negative, not {budget}")
    rows = blocks.load_table(path) if path and path.exists() else {}
    ladder = {k: row["f"] for k, row in rows.items() if row["proven"]}
    solved = {}
    for k in range(2, k_max + 1):
        if k in ladder:
            continue
        t0 = time.perf_counter()
        sol = blocks.solve_rung(k, ladder, budget)
        seconds = time.perf_counter() - t0
        if sol.proven_optimal:
            ladder[k] = sol.f
        solved[k] = sol
        row = blocks.table_row(sol)
        rows[k] = {**row, "seconds": round(seconds, 2), "solver": __version__}
        if path:
            blocks.save_table(path, rows)
            print(
                f"k={k}: f={sol.f} g2={row['g2']} proven={sol.proven_optimal} "
                f"nodes={sol.nodes_explored} ({seconds:.1f}s)",
                file=sys.stderr,
                flush=True,
            )
    return rows, solved


def _table_rows(args, k_max: int, inputs: dict, provenance: dict):
    """``_extend_table`` on ``--table``; the report names the table as it is left."""
    path = Path(args.table) if args.table else None
    rows, solved = _extend_table(path, k_max, args.budget)
    if path:
        inputs["table"] = args.table
        provenance["table_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        provenance["relative_to"] = "table"
    return rows, solved


def cmd_block(args) -> int:
    t0 = time.perf_counter()
    inputs = {"k": args.k}
    provenance = {"budget": args.budget}
    rows, solved = _table_rows(args, args.k, inputs, provenance)
    stored = rows[args.k]
    # its time and solver tell how the row was made, not what it is
    row = {key: v for key, v in stored.items() if key not in ("seconds", "solver")}
    provenance["solver"] = stored.get("solver")
    sol = solved.get(args.k)  # None for a row read from the table
    # each raise of the incumbent: [nodes so far, new value]
    provenance["incumbents"] = [list(step) for step in sol.incumbents] if sol else []
    # of the ladder cuts, those only the lookahead pairs made; not stored
    provenance["lookahead_cuts"] = sol.lookahead_cuts if sol else None
    # of the ladder cuts, those only the counts of the tails left open made
    provenance["open_count_cuts"] = sol.open_count_cuts if sol else None
    provenance["stop"] = "complete" if row["proven"] else "budget"
    provenance["seconds"] = time.perf_counter() - t0
    doc = fileio.make_report("block", inputs, row, provenance)
    lines = [f"f({args.k}) = {row['f']}", f"g2 = {row['g2']:.6f}", f"proven: {row['proven']}"]
    if args.graph_out:
        arcs = [tuple(arc) for arc in row["assignment"]]
        real = [e for e in arcs if 1 <= e[0] and e[1] <= args.k]
        dummy = [e for e in arcs if e not in real]
        comments = [f"block solution k={args.k}, f={row['f']}"]
        comments += [f"dummy edge {u} {v}" for u, v in dummy]
        Path(args.graph_out).write_text(
            fileio.write_graph_text(Dag(args.k, real), tuple(comments))
        )
        lines.append(f"wrote {args.graph_out}")
    _emit(args, doc, lines)
    if not row["proven"]:
        print("warning: optimality not proven within budget", file=sys.stderr)
        return INCOMPLETE if args.strict else OK
    return OK


def cmd_bound(args) -> int:
    lo, hi = args.range
    blocks.check_window(lo, hi)  # before the ladder is solved up to hi
    t0 = time.perf_counter()
    inputs = {"range": [lo, hi]}
    provenance = {"budget": args.budget}
    report = blocks.assemble_bound(lo, hi, _table_rows(args, hi, inputs, provenance)[0])
    provenance["stop"] = "complete" if report.rigorous else "budget"
    provenance["seconds"] = time.perf_counter() - t0
    rows = [(r.k, r.f, r.g2) for r in report.rows]
    if args.csv:
        Path(args.csv).write_text(fileio.growth_csv(rows))
    doc = fileio.make_report(
        "bound",
        inputs,
        {
            "rows": [
                {"k": r.k, "f": r.f, "g2": blocks.reported_g2(r.f, r.k), "proven": r.proven}
                for r in report.rows
            ],
            "bound_base": report.bound_base,
            "argmax_k": report.argmax_k,
            "final_block_constant": report.final_block_constant,
            "rigorous": report.rigorous,
        },
        provenance,
    )
    lines = [f"k={r.k}: f={r.f} g2={r.g2:.6f}" for r in report.rows]
    lines.append(f"bound base: {report.bound_base:.4f} at k={report.argmax_k}")
    lines.append(f"final block constant: {report.final_block_constant}")
    if args.csv:
        lines.append(f"wrote {args.csv}")
    _emit(args, doc, lines)
    if not report.rigorous:
        print("warning: some blocks unproven; bound not rigorous", file=sys.stderr)
        return INCOMPLETE if args.strict else OK
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cubicpaths",
        description="Source-to-sink path counting and extremal search on 3-regular DAGs.",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument(
        "--budget",
        type=int,
        default=None,
        help="node budget for searches; block and bound also cap each block size they solve",
    )
    ap.add_argument("--strict", action="store_true", help="nonzero exit on incomplete results")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count source-to-sink paths of a graph file")
    p.add_argument("file")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("hamiltonize", help="rewrite a 3-regular graph onto a Hamiltonian path")
    p.add_argument("file")
    p.add_argument("--out", help="write the rewritten graph here")
    p.set_defaults(func=cmd_hamiltonize)

    p = sub.add_parser("tuple", help="arc-tuple codec operations")
    p.add_argument("verb", choices=("decode", "encode", "mu", "validate"))
    p.add_argument("value", help="tuple text (or graph file for encode)")
    p.add_argument("--class", dest="klass", choices=("boundary", "merged"), default="boundary")
    p.add_argument("--conn", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--out", help="write decoded graph here")
    p.set_defaults(func=cmd_tuple)

    p = sub.add_parser("search", help="exhaustive extremal search over tuples")
    p.add_argument("--n", type=int, required=True,
                   help="tuple length; with --check, half the vertex count")
    # --check sets these three from its row, so they are unset by default
    p.add_argument("--class", dest="klass", choices=("boundary", "merged"),
                   help="default boundary; not with --check")
    p.add_argument("--conn", type=int, choices=(1, 2, 3), help="default 1; not with --check")
    p.add_argument("--simple", action="store_true", help="not with --check")
    p.add_argument("--prune", action="append",
                   choices=(search.PRUNE_DOUBLE_LABEL, search.PRUNE_KIND_RUN))
    p.add_argument("--check", choices=search.CONJECTURES,
                   help="compare against a closed form (graph on 2n vertices)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("block", help="solve one block instance exactly")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--table", help="block table JSON to read, extend up to --k and report from")
    p.add_argument("--graph-out", help="write the witness assignment as a graph file")
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("bound", help="growth table over a window of block sizes")
    p.add_argument("--range", type=int, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--csv", help="write k,f,g2 rows here")
    p.add_argument("--table", help="block table JSON to read, extend up to HI and bound from")
    p.set_defaults(func=cmd_bound)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fileio.ParseError as exc:
        print(f"parse error:\n{exc}", file=sys.stderr)
        return FAIL
    # ValueError also covers InvalidTupleError, InvalidDagError and BudgetTooSmallError
    except (OSError, RewriteError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    raise SystemExit(main())
