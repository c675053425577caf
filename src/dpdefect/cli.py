"""Command-line interface.

Exit codes: 0 = affirmative (colorable / valid / sparse / critical
confirmed / all checks pass), 1 = negative, 2 = usage or input error.
JSON output is deterministic for a fixed (instance, strategy, seed);
wall-clock timing is only attached when --timing is passed.  `main` is
the one place that turns an error into exit code 2: every ValueError, from
the CLI's own usage checks or from the library, is an input error, and any
other exception propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import harness
from .constructions import flag_path_instance, hard_cover_signing
from .discharging import charges as compute_charges
from .model import (
    SIGN_CHARS,
    CoverSigning,
    DefectParams,
    InstanceFormatError,
    WeightedInstance,
    _ascii_int,
    instance_digest,
    map_from_str,
    map_to_str,
    parse_instance,
    serialize_instance,
)
from .potential import (
    MODE_NONEMPTY,
    MODE_NONEMPTY_PROPER,
    min_potential_subset,
    sparsity_test,
    subset_potential,
)
from .solver import DEFAULT_ENUMERATION_CEILING, check_coloring, find_coloring, sample_covers


def _load_instance(path: str) -> tuple[WeightedInstance, CoverSigning | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_instance(text)
    except InstanceFormatError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _signing_json(signing: CoverSigning | None):
    if signing is None:
        return None
    return {
        "edges": [[u, v] for u, v in signing.edges],
        "signs": "".join(SIGN_CHARS[s] for s in signing.signs),
    }


def _emit(args, payload: dict, lines: list[str], started: float) -> None:
    if args.json:
        if args.timing:
            payload["wall_time_ms"] = int((time.monotonic() - started) * 1000)
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
        if args.timing:
            print(f"wall_time_ms: {int((time.monotonic() - started) * 1000)}")


def _instance_json(instance: WeightedInstance, signing: CoverSigning | None) -> dict:
    """The fields of every report on one instance."""
    params = instance.params
    return {
        "instance_digest": instance_digest(instance, signing),
        "params": {"i": params.i, "j": params.j},
    }


def _cmd_solve(args) -> tuple[int, dict, list[str]]:
    instance, signing = _load_instance(args.file)
    if signing is None:
        raise ValueError("instance file carries no cover signs; 'solve' needs them")
    cmap = find_coloring(instance, signing)
    payload = {
        **_instance_json(instance, signing),
        "verdict": "colorable" if cmap is not None else "not-colorable",
        "map": map_to_str(cmap) if cmap is not None else None,
    }
    if cmap is not None:
        return 0, payload, [f"colorable: {map_to_str(cmap)}"]
    return 1, payload, ["not colorable under the given cover"]


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    instance, signing = _load_instance(args.file)
    if signing is None:
        raise ValueError("instance file carries no cover signs; 'check' needs them")
    violation = check_coloring(instance, signing, map_from_str(args.map))
    payload = {
        **_instance_json(instance, signing),
        "verdict": "valid" if violation is None else "violation",
        "violation": None
        if violation is None
        else {
            "vertex": violation.vertex,
            "choice": "PR"[violation.choice],
            "defect": violation.defect,
            "bound": violation.bound,
        },
    }
    if violation is None:
        return 0, payload, ["valid"]
    return 1, payload, [
        f"violation at vertex {violation.vertex}: chose "
        f"{'poor' if violation.choice == 0 else 'rich'}, "
        f"defect {violation.defect} exceeds bound {violation.bound}"
    ]


def _cmd_potential(args) -> tuple[int, dict, list[str]]:
    if args.subset is not None and args.min is not None:
        raise ValueError("--subset and --min cannot be combined")
    instance, signing = _load_instance(args.file)
    payload = _instance_json(instance, signing)
    lines = []
    if args.subset is not None:
        subset = tuple(_ascii_int(t) for t in args.subset.split(",") if t != "")
        if len(set(subset)) != len(subset):
            raise ValueError(f"repeated vertex in --subset {args.subset!r}")
        value = subset_potential(instance, subset)
        payload["subset"] = list(subset)
        payload["value"] = value
        lines.append(f"potential of {list(subset)}: {value}")
    elif args.min is not None:
        mode = MODE_NONEMPTY if args.min == "nonempty" else MODE_NONEMPTY_PROPER
        report = min_potential_subset(instance, mode)
        payload["mode"] = report.mode
        payload["subset"] = list(report.subset)
        payload["value"] = report.value
        lines.append(
            f"minimum {report.mode} potential: {report.value} at {list(report.subset)}"
        )
    else:
        value = subset_potential(instance, range(instance.graph.n))
        payload["subset"] = list(range(instance.graph.n))
        payload["value"] = value
        lines.append(f"whole-graph potential: {value}")
    return 0, payload, lines


def _cmd_charges(args) -> tuple[int, dict, list[str]]:
    instance, signing = _load_instance(args.file)
    ledger = compute_charges(instance)
    residual = ledger.residual_doubled
    payload = {
        **_instance_json(instance, signing),
        "charges_doubled": list(ledger.charges_doubled),
        "classes": list(ledger.classes),
        "total_doubled": ledger.total_doubled,
        "residual_doubled": residual,
        "adjacent_surplus_edges": [[u, v] for u, v in ledger.adjacent_surplus_edges],
        "verdict": "conserved" if residual == 0 else "residual",
    }
    lines = [
        f"vertex {v}: class={ledger.classes[v]} d1={ledger.d1[v]} "
        f"d2={ledger.d2[v]} 2ch={ledger.charges_doubled[v]}"
        for v in range(instance.graph.n)
    ]
    rho2 = ledger.total_doubled - residual
    lines.append(f"total 2*ch = {ledger.total_doubled}, 2*rho = {rho2}, residual = {residual}")
    if ledger.adjacent_surplus_edges:
        lines.append(f"adjacent surplus pairs: {list(ledger.adjacent_surplus_edges)}")
    return (0 if residual == 0 else 1), payload, lines


def _cmd_sparsity(args) -> tuple[int, dict, list[str]]:
    instance, signing = _load_instance(args.file)
    result = sparsity_test(instance.graph, instance.params)
    payload = {
        **_instance_json(instance, signing),
        "verdict": "sparse" if result.sparse else "dense",
        "witness": None if result.witness is None else list(result.witness),
        "margin": result.margin,
    }
    if result.sparse:
        return 0, payload, ["sparse"]
    return 1, payload, [
        f"dense: subset {list(result.witness)} exceeds the bound by {result.margin}"
    ]


def _cmd_construct(args) -> tuple[int, dict, list[str]]:
    instance, spec = flag_path_instance(DefectParams(args.i, args.j), args.m)
    signing = hard_cover_signing(spec) if args.cover else None
    text = serialize_instance(instance, signing)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from exc
        lines = [f"wrote {args.output}"]
    else:
        lines = [text.rstrip("\n")]
    payload = {
        **_instance_json(instance, signing),
        "m": args.m,
        "vertices": instance.graph.n,
        "edges": instance.graph.edge_count(),
        "verdict": "written",
    }
    return 0, payload, lines


def _cmd_critical(args) -> tuple[int, dict, list[str]]:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    if args.construct and args.file:
        raise ValueError("critical takes an instance file or --construct i,j,m, not both")
    if args.strategy != "sampled" and (args.count is not None or args.seed is not None):
        raise ValueError("--count and --seed apply only to --strategy sampled")
    if args.strategy != "exhaustive" and args.max_edges is not None:
        raise ValueError("--max-edges applies only to --strategy exhaustive")
    if args.max_edges is not None and args.max_edges < 0:
        raise ValueError(f"--max-edges must be at least 0, got {args.max_edges}")
    if args.construct:
        i, j, m = _ints(args.construct, 3)
        instance, spec = flag_path_instance(DefectParams(i, j), m)
        signing = None
    else:
        if not args.file:
            raise ValueError("critical needs an instance file or --construct i,j,m")
        instance, signing = _load_instance(args.file)
        spec = None

    if args.strategy == "exhaustive":
        strategy: harness.Strategy = (
            harness.Exhaustive() if args.max_edges is None else harness.Exhaustive(args.max_edges)
        )
    elif args.strategy == "reduced":
        if spec is None:
            raise ValueError("--strategy reduced requires --construct i,j,m")
        strategy = harness.Reduced(spec)
    else:
        strategy = harness.Sampled(
            1000 if args.count is None else args.count, args.seed or 0
        )

    verdict = harness.is_critical(instance, strategy, workers=args.workers)
    payload = {
        **_instance_json(instance, signing),
        "strategy": args.strategy,
        "verdict": verdict.verdict,
        "certifying": verdict.certifying,
        "witness": _signing_json(verdict.witness),
        "failing_edge": list(verdict.failing_edge) if verdict.failing_edge else None,
        "counters": {
            "signings": verdict.solver_signings,
            "classes": verdict.covers_checked,
            "edges_checked": verdict.edges_checked,
            "nodes_expanded": verdict.nodes_expanded,
        },
    }
    lines = [f"verdict: {verdict.verdict}"
             + ("" if verdict.certifying else " (not certifying)")]
    if verdict.failing_edge is not None:
        lines.append(f"deleting edge {verdict.failing_edge} stays non-colorable")
    code = 0 if (verdict.verdict == harness.CRITICAL and verdict.certifying) else 1
    return code, payload, lines


def _cmd_enumerate(args) -> tuple[int, dict, list[str]]:
    params = DefectParams(args.i, args.j)
    report = harness.enumerate_critical(params, args.n, mode=args.mode)
    consistent = not report.potential_violations and not report.sparsity_violations
    if report.bound_satisfied is False and harness.in_guaranteed_range(params):
        consistent = False
    payload = {
        "params": {"i": params.i, "j": params.j},
        "n": args.n,
        "mode": report.mode,
        "graphs_examined": report.graphs_examined,
        "pairs_examined": report.pairs_examined,
        "critical_found": len(report.criticals),
        "min_edges": report.min_edges,
        "bound_min_edges": report.bound_min_edges,
        "potential_violations": len(report.potential_violations),
        "sparsity_violations": len(report.sparsity_violations),
        "verdict": "consistent" if consistent else "violations",
    }
    lines = [
        f"graphs: {report.graphs_examined}, pairs: {report.pairs_examined}, "
        f"critical: {len(report.criticals)}, min edges: {report.min_edges}, "
        f"bound: {report.bound_min_edges}",
        f"potential violations: {len(report.potential_violations)}, "
        f"sparsity violations: {len(report.sparsity_violations)}",
    ]
    return (0 if consistent else 1), payload, lines


def _ints(text: str, size: int) -> tuple[int, ...]:
    """`size` comma-separated integers, each read by the instance-file rule
    (ASCII digits, optional minus sign)."""
    values = tuple(_ascii_int(t) for t in text.split(","))
    if len(values) != size:
        raise ValueError(f"expected {size} comma-separated integers, got {text!r}")
    return values


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    pairs = [_ints(chunk, 2) for chunk in args.pairs.split(";")]
    ms = [_ascii_int(t) for t in args.ms.split(",")]
    crits = [_ints(c, 3) for c in args.criticality.split(";")] if args.criticality else []
    entries = harness.verify_sharpness_suite(pairs, ms, criticality=crits)
    all_ok = all(e.ok for e in entries)
    payload = {
        "entries": [dataclasses.asdict(e) | {"ok": e.ok} for e in entries],
        "verdict": "pass" if all_ok else "fail",
    }
    lines = [
        f"(i={e.i}, j={e.j}, m={e.m}): counts {'ok' if e.counts_ok else 'FAIL'}, "
        f"cover {'uncolorable' if e.uncolorable else 'COLORABLE (FAIL)'}"
        + (f", criticality {e.criticality}" if e.criticality else "")
        for e in entries
    ]
    lines.append("all checks pass" if all_ok else "FAILURES present")
    return (0 if all_ok else 1), payload, lines


def _cmd_sample(args) -> tuple[int, dict, list[str]]:
    instance, signing = _load_instance(args.file)
    scan = sample_covers(instance, args.count, args.seed)
    payload = {
        **_instance_json(instance, signing),
        "count": args.count,
        "seed": args.seed,
        "examined": scan.signings_examined,
        "verdict": "no-witness" if scan.colorable else "witness-found",
        "witness": _signing_json(scan.witness),
    }
    if scan.colorable:
        return 0, payload, [f"no witness among {scan.signings_examined} sampled covers"]
    return 1, payload, [f"witness found after {scan.signings_examined} samples"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdefect",
        description="Exact verification toolkit for defective DP-colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--timing", action="store_true",
                       help="attach wall-clock time (breaks byte-stability)")

    p = sub.add_parser("solve", help="search for a coloring under the file's cover")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("check", help="validate a poor/rich map (e.g. --map PRRP)")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("potential", help="subset potentials and minima")
    p.add_argument("file")
    p.add_argument("--subset", help="comma-separated vertex list")
    p.add_argument("--min", choices=["nonempty", "proper"],
                   help="minimize over nonempty (or nonempty proper) subsets")
    common(p)
    p.set_defaults(handler=_cmd_potential)

    p = sub.add_parser("charges", help="discharging ledger and conservation check")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_charges)

    p = sub.add_parser("sparsity", help="subset density test")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_sparsity)

    p = sub.add_parser("construct", help="emit a flag-path instance file")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cover", action="store_true",
                   help="include the hard cover signing")
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("critical", help="criticality certification")
    p.add_argument("file", nargs="?")
    p.add_argument("--construct", metavar="I,J,M",
                   help="build a flag-path instance instead of reading a file")
    p.add_argument("--strategy", choices=["exhaustive", "reduced", "sampled"],
                   default="exhaustive")
    p.add_argument("--max-edges", type=int,
                   help=f"exhaustive only (default {DEFAULT_ENUMERATION_CEILING})")
    p.add_argument("--count", type=int, help="sampled only (default 1000)")
    p.add_argument("--seed", type=int, help="sampled only (default 0)")
    p.add_argument("--workers", type=int, default=1)
    common(p)
    p.set_defaults(handler=_cmd_critical)

    p = sub.add_parser("enumerate", help="survey small graphs for critical pairs")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["uniform", "weighted"], default="uniform")
    common(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="size identities + hard-cover checks")
    p.add_argument("--pairs", default="1,2", help="semicolon-separated i,j pairs")
    p.add_argument("--ms", default="1", help="comma-separated m values")
    p.add_argument("--criticality", default="",
                   help="semicolon-separated i,j,m triples to certify")
    common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sample", help="seeded random covers smoke test")
    p.add_argument("file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code, payload, lines = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload["command"] = args.command
    _emit(args, payload, lines, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
