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
from typing import TYPE_CHECKING

from .errors import CsspheresError, InvalidParameters

if TYPE_CHECKING:
    from .fileio import ComplexFile

# Each command imports the library modules it runs when it runs, so a fresh
# process loads only those, and calls their functions through the module
# (``props.is_cs``) so that a rebinding on the module is seen here.


def _emit(cf: ComplexFile, args) -> None:
    from . import fileio

    if args.out:
        fileio.write_path(args.out, cf, args.format)
    else:
        sys.stdout.write(fileio.dumps(cf, args.format or "json"))


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
    from . import core

    for v in sorted(m, key=core.vertex_key):
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


def _build_delta_i(builders, args):
    """Delta(I), and with --tree-out the edges of T(I), the facet-ridge graph
    of the ball B(I) that is sewn: one edge a line, endpoints as comma-joined
    facet labels, in canonical order."""
    from . import core, sew3

    ball = sew3.build_B_I(sew3.IndexSet(args.n, _indices(args.i_set)))
    if args.tree_out:
        tree = core.facet_ridge_graph(ball)
        lines = [
            ",".join(map(str, a)) + "\t" + ",".join(map(str, b))
            for a, nbs in tree.items() for b in nbs if core.face_key(a) < core.face_key(b)
        ]
        _write("\n".join(lines) + "\n", args.tree_out)
    return builders.sew(builders.build_delta(3, args.n), ball)


# build kind -> (options it requires besides --n, builder from the `builders`
# module and the parsed arguments, label space of the result)
_BUILDS = {
    "cross": ((), lambda b, a: b.cross_polytope(a.n), "V"),
    "delta": (("d",), lambda b, a: b.build_delta(a.d, a.n), "V"),
    "ball": (("d", "i"), lambda b, a: b.build_B(a.d, a.i, a.n), "V"),
    "lambda": (("d",), lambda b, a: b.build_lambda(a.d, a.n), "W"),
    "squeezed": (("k",), lambda b, a: b.squeezed_ball(a.k, a.n), "V"),
    "delta-i": ((), _build_delta_i, "V"),
}


def cmd_build(args) -> int:
    from . import builders, fileio

    needs, build, space = _BUILDS[args.kind]
    missing = [f"--{p}" for p in needs if getattr(args, p) is None]
    if missing:
        raise InvalidParameters(f"build {args.kind} requires {', '.join(missing)}")
    _emit(fileio.ComplexFile(build(builders, args), space), args)
    return 0


def _verify_one(path: str, args) -> list[tuple[bool, str]]:
    from . import core, fileio, props

    cf = fileio.read_path(path)
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
        report = core.topology_report(c)
        if args.sphere:
            ok = report.is_sphere()
            fh = core.fh_vectors(c)
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
    from . import fileio, props

    cf = fileio.read_path(args.file)
    census = props.edge_link_census(cf.complex)
    edges = props.census_at_least(census, args.at_least)
    lines = [f"{e[0]}\t{e[1]}\t{census[e]}" for e in edges]
    _write("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def cmd_flips(args) -> int:
    from . import builders, fileio, flips, props

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
        fileio.write_path(args.out, fileio.ComplexFile(gamma), args.format)
    return code


def cmd_sew(args) -> int:
    from . import builders, fileio

    base = fileio.read_path(args.base)
    ball = fileio.read_path(args.ball).complex
    sewn = builders.sew(base.complex, ball)
    _emit(fileio.ComplexFile(sewn, space=base.space), args)
    return 0


def cmd_shell(args) -> int:
    from . import builders, shelling

    # the order first: its bound on n is the one this command states
    if args.kind == "delta3":
        order = shelling.symmetric_shelling_delta3(args.n)
        c = builders.build_delta(3, args.n)
    else:
        order = shelling.shelling_B42(args.n)
        c = builders.build_B(4, 2, args.n)
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
    from . import fileio, iso

    a = fileio.read_path(args.a).complex
    b = fileio.read_path(args.b).complex
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
    from . import fileio, iso

    c = fileio.read_path(args.file).complex
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
    from . import fileio

    cf = fileio.read_path(args.file)
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
