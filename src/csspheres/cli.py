"""Batch command-line front end.

Exit codes: 0 when every requested check passes, 1 when a check fails (the
first counterexample is printed), 2 on usage or parameter errors.  All
output is deterministic: facets and report lines are emitted in canonical
order.  Every verification path is a thin wrapper over library operations.

`iso` and `aut` take --budget to bound the node count of their searches,
and `aut` also the number of maps it lists (default: unlimited).  --budget,
--neighborly, --exactly-neighborly, --stacked, --expect and --at-least must
be nonnegative.
"""

from __future__ import annotations

import argparse
import sys

from . import builders, flips, iso, props, sew3, shelling
from .core import fh_vectors, topology_report, vertex_key
from .errors import CsspheresError, InvalidParameters
from .fileio import ComplexFile, dumps, read_path, write_path


def _emit(cf: ComplexFile, args) -> None:
    if args.out:
        write_path(args.out, cf, args.format)
    else:
        sys.stdout.write(dumps(cf, args.format or "json"))


def _write(body: str, out: str | None) -> None:
    """Write a text body to the file `out`, or to stdout when `out` is unset."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _report(checks: list[tuple[bool, str]]) -> int:
    """Print a PASS or FAIL line per check; 0 when all pass, else 1."""
    for ok, line in checks:
        print(("PASS " if ok else "FAIL ") + line)
    return 0 if all(ok for ok, _ in checks) else 1


def _print_map(m: dict[int, int]) -> None:
    for v in sorted(m, key=vertex_key):
        print(f"{v}\t{m[v]}")


def _fmt_face(face) -> str:
    return "{" + ",".join(str(v) for v in face) + "}"


def _indices(text: str | None) -> tuple[int, ...]:
    """The sorted integers of a comma list such as "5, 3"; empty tokens are skipped."""
    try:
        idx = [int(t) for t in (text or "").split(",") if t.strip()]
    except ValueError:
        raise InvalidParameters(f"index set must be a comma list of integers, got {text!r}") from None
    if len(set(idx)) != len(idx):
        raise InvalidParameters(f"index set repeats a value, got {text!r}")
    return tuple(sorted(idx))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _build_delta_i(args) -> ComplexFile:
    index_set = sew3.IndexSet(args.n, _indices(args.i_set))
    if args.tree_out:
        _write(sew3.build_T(index_set).edge_list_text(), args.tree_out)
    return ComplexFile(sew3.build_delta_I(index_set))


def _build_lambda_squeezed(args) -> ComplexFile:
    ball = read_path(args.ball).complex if args.ball else builders.squeezed_ball(args.k, args.n)
    return ComplexFile(builders.lambda_squeezed(args.k, args.n, ball), space="W")


# build kind -> (options it requires besides --n, builder from the parsed arguments)
_BUILDS = {
    "cross": ((), lambda a: ComplexFile(builders.cross_polytope(a.n))),
    "delta": (("d",), lambda a: ComplexFile(builders.build_delta(a.d, a.n))),
    "ball": (("d", "i"), lambda a: ComplexFile(builders.build_B(a.d, a.i, a.n))),
    "lambda": (("d",), lambda a: ComplexFile(builders.build_lambda(a.d, a.n, normalize=a.normalize),
                                             space="V" if a.normalize else "W")),
    "squeezed": (("k",), lambda a: ComplexFile(builders.squeezed_ball(a.k, a.n))),
    "delta-i": ((), _build_delta_i),
    "lambda-squeezed": (("k",), _build_lambda_squeezed),
}


def cmd_build(args) -> int:
    needs, build = _BUILDS[args.kind]
    missing = [f"--{p}" for p in needs if getattr(args, p) is None]
    if missing:
        raise InvalidParameters(f"build {args.kind} requires {', '.join(missing)}")
    _emit(build(args), args)
    return 0


def _verify_one(path: str, args) -> list[tuple[bool, str]]:
    cf = read_path(path)
    c = cf.complex
    ground = None
    if cf.space == "W":
        ground = range(3, c.ambient_n + 1)
    results: list[tuple[bool, str]] = []
    if args.cs:
        ok = props.is_cs(c)
        results.append((ok, f"{path} cs {'holds' if ok else 'fails'}"))
    if args.neighborly is not None or args.exactly_neighborly is not None:
        report = props.cs_neighborliness(c, ground)
        if args.neighborly is not None:
            ok = report.max_i >= args.neighborly
            results.append(
                (ok, f"{path} cs-{args.neighborly}-neighborly (max_i={report.max_i})")
            )
        if args.exactly_neighborly is not None:
            ok = report.max_i == args.exactly_neighborly
            detail = f"max_i={report.max_i}"
            if not ok and report.witness:
                detail += f" witness={_fmt_face(report.witness)}"
            results.append((ok, f"{path} exactly cs-{args.exactly_neighborly}-neighborly ({detail})"))
    if args.sphere or args.ball:
        report = topology_report(c)
        if args.sphere:
            ok = report.is_sphere()
            fh = fh_vectors(c)
            symmetric = fh.h == fh.h[::-1]
            results.append((ok and symmetric, f"{path} sphere report (betti={report.z2_betti}, h-symmetric={symmetric})"))
        if args.ball:
            ok = report.is_ball()
            results.append((ok, f"{path} ball report (betti={report.z2_betti})"))
    if args.stacked is not None:
        report = props.stackedness(c)
        ok = report.min_i == args.stacked
        results.append((ok, f"{path} exactly {args.stacked}-stacked (min_i={report.min_i})"))
    return results


def cmd_verify(args) -> int:
    return _report([check for path in args.files for check in _verify_one(path, args)])


def cmd_census(args) -> int:
    cf = read_path(args.file)
    census = props.edge_link_census(cf.complex)
    edges = props.census_at_least(census, args.at_least)
    lines = [f"{e[0]}\t{e[1]}\t{census[e]}" for e in edges]
    _write("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def cmd_flips(args) -> int:
    indices = _indices(args.j)
    gamma = flips.build_gamma(args.k, args.n, indices)
    delta = builders.build_delta(2 * args.k - 1, args.n)
    drop = len(delta.facets) - len(gamma.facets)
    checks = [
        (props.is_cs(gamma), "flipped sphere is cs"),
        (drop == 2 * len(indices), f"facet drop {drop} == 2|J|"),
    ]
    for i in indices:
        pair = flips.fg_pair(args.k, i)
        checks.append((not gamma.has_face(pair.f), f"F_{i} removed"))
        checks.append((gamma.has_face(pair.g), f"G_{i} present"))
    code = _report(checks)
    if args.out:
        write_path(args.out, ComplexFile(gamma), args.format)
    return code


def cmd_sew(args) -> int:
    base = read_path(args.base)
    ball = read_path(args.ball).complex
    sewn = builders.sew(base.complex, ball)
    _emit(ComplexFile(sewn, space=base.space), args)
    return 0


def cmd_shell(args) -> int:
    if args.kind == "delta3":
        c = builders.build_delta(3, args.n)
        order = shelling.symmetric_shelling_delta3(args.n)
    else:
        c = builders.build_B(4, 2, args.n)
        order = shelling.shelling_B42(args.n)
    result = shelling.is_shelling(c, order)
    if not result.valid:
        print(f"FAIL shelling of {args.kind} n={args.n} breaks at position {result.failed_at}")
        return 1
    lines = [
        " ".join(str(v) for v in f) + "  # restriction " + _fmt_face(r)
        for f, r in zip(result.facets, result.restriction_faces)
    ]
    _write("\n".join(lines) + "\n", args.out)
    print(f"PASS shelling of {args.kind} n={args.n} ({len(result.facets)} facets)")
    return 0


def cmd_iso(args) -> int:
    a = read_path(args.a).complex
    b = read_path(args.b).complex
    for name, ok in iso.necessary_conditions(a, b):
        print(("PASS " if ok else "FAIL ") + f"necessary condition: {name}")
        if not ok:
            print("not isomorphic")
            return 1
    witness = iso.isomorphic(a, b, budget=args.budget)
    if witness is None:
        print("not isomorphic (canonical forms differ)")
        return 1
    print("isomorphic; witness map:")
    _print_map(witness)
    return 0


def cmd_aut(args) -> int:
    c = read_path(args.file).complex
    maps = iso.automorphisms(c, budget=args.budget)
    print(f"automorphisms: {len(maps)}")
    for idx, m in enumerate(maps):
        print(f"# map {idx}")
        _print_map(m)
    if args.expect is not None and len(maps) != args.expect:
        print(f"FAIL expected {args.expect} automorphisms, found {len(maps)}")
        return 1
    return 0


def cmd_export(args) -> int:
    cf = read_path(args.file)
    _emit(cf, args)
    return 0


# ----------------------------------------------------------------------


def _count(text: str) -> int:
    """argparse type for a nonnegative bound or count option."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csspheres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a named complex and write it out")
    p.add_argument("kind", choices=_BUILDS)
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--i", type=int, help="stackedness index for balls")
    p.add_argument("--n", type=int, required=True, help="ambient size")
    p.add_argument("--k", type=int, help="half-dimension for squeezed families")
    p.add_argument("--i-set", help="comma list of sewing indices, e.g. 3,5")
    p.add_argument("--tree-out", help="also write the facet tree as an edge list (delta-i)")
    p.add_argument("--ball", help="squeezed-ball file for lambda-squeezed")
    p.add_argument("--normalize", action="store_true", help="shift W labels onto V labels")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "text"])
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run requested property checks on complex files")
    p.add_argument("files", nargs="+")
    p.add_argument("--cs", action="store_true")
    p.add_argument("--neighborly", type=_count)
    p.add_argument("--exactly-neighborly", type=_count)
    p.add_argument("--sphere", action="store_true")
    p.add_argument("--ball", action="store_true")
    p.add_argument("--stacked", type=_count)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="edge-link census as tab-separated rows")
    p.add_argument("file")
    p.add_argument("--at-least", type=_count, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("flips", help="apply a symmetric flip plan and check the outcome")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", help="comma list of flip indices")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "text"])
    p.set_defaults(func=cmd_flips)

    p = sub.add_parser("sew", help="replace ±ball with cones over its boundary")
    p.add_argument("--base", required=True)
    p.add_argument("--ball", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "text"])
    p.set_defaults(func=cmd_sew)

    p = sub.add_parser("shell", help="emit and verify an explicit shelling order")
    p.add_argument("kind", choices=["delta3", "b42"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_shell)

    p = sub.add_parser("iso", help="isomorphism test with witness or trace")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=_count)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("aut", help="enumerate all automorphisms")
    p.add_argument("file")
    p.add_argument("--expect", type=_count)
    p.add_argument("--budget", type=_count)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("export", help="convert between json and text formats")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "text"], required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CsspheresError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
