"""Stable text formats: graph files, canonical JSON reports, growth CSV.

Graph file grammar (diff-friendly; repeated edge lines encode parallel
edges)::

    # optional comment lines
    vertices <N>
    edge <u> <v>

Reports serialize as canonical JSON (sorted keys, fixed separators), so a
document re-serializes byte-identically after parsing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from . import __version__
from .dag import Dag, infer_profile


@dataclass(frozen=True)
class ParseError(Exception):
    diagnostics: tuple[str, ...]

    def __str__(self) -> str:
        return "\n".join(self.diagnostics)


def parse_graph_text(text: str) -> Dag:
    """Parse a graph file; the degree profile is inferred from the degrees."""
    vertices: int | None = None
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertices" and len(parts) == 2 and parts[1].isdecimal():
            if vertices is not None:
                problems.append(f"line {lineno}: duplicate vertices line")
            vertices = int(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                problems.append(f"line {lineno}: edge endpoints must be integers")
                continue
            if u >= v:
                problems.append(f"line {lineno}: edge {u} {v} must have tail < head")
            else:
                edges.append((u, v))
                edge_lines.append(lineno)
        else:
            problems.append(f"line {lineno}: unrecognized line {line!r}")
    if vertices is None:
        problems.append("missing 'vertices <N>' line")
    else:
        # checked after the whole file is read, so line order does not matter
        problems.extend(
            f"line {lineno}: edge {u} {v} outside 1..{vertices}"
            for lineno, (u, v) in zip(edge_lines, edges)
            if not 1 <= u < v <= vertices
        )
    if problems:
        raise ParseError(tuple(problems))
    return Dag(vertices, tuple(edges), infer_profile(vertices, edges))


def write_graph_text(dag: Dag, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"vertices {dag.vertex_count}")
    lines.extend(f"edge {u} {v}" for u, v in dag.edges)
    return "\n".join(lines) + "\n"


def report_json(document: dict) -> str:
    """Canonical JSON: parsing and re-serializing is byte-identical."""
    return json.dumps(document, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def make_report(op: str, inputs: dict, outputs: dict, provenance: dict | None = None) -> dict:
    return {
        "op": op,
        "inputs": inputs,
        "outputs": outputs,
        "provenance": provenance or {},
        "version": __version__,
    }


def growth_csv(rows) -> str:
    """rows of (k, f, g2); g2 printed with 6 decimals."""
    out = ["k,f,g2"]
    for k, f, g2 in rows:
        out.append(f"{k},{f},{g2:.6f}")
    return "\n".join(out) + "\n"
