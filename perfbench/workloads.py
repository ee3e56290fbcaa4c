"""The three seeded workloads and the known answers their outputs are checked against.

Every workload has a ``setup(seed, workdir)`` that makes its seeded inputs
and a ``run_pass(p, inputs, inproc)`` that performs one cold pass: the
builder memo is cleared and every ``Complex`` is built afresh, so nothing
computed in one pass is reused by the next.  The seed picks a signed
relabelling sigma with sigma(-v) = -sigma(v); the program only ever sees the
relabelled complexes and files, so the checks map each known answer through
sigma before comparing.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from math import comb

import csspheres
from csspheres import builders, cli, core, flips, iso, props, sew3
from csspheres.fileio import ComplexFile, write_path

# CLI child processes import the same source tree as this process.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(csspheres.__file__)))

FAILED = object()  # what Pass.op returns when the call raised


class Pass:
    """Timings, check outcomes and peak child memory of one pass."""

    def __init__(self):
        self.ops: list[tuple[str, float]] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.child_rss_kb = 0

    def op(self, name, fn, *args):
        """Time one certification call; an exception counts as a failed check."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any exception is a wrong answer, not a crash
            self.ops.append((name, time.perf_counter() - t0))
            self.checks.append((name, False, f"raised {exc!r}"))
            return FAILED
        self.ops.append((name, time.perf_counter() - t0))
        return result

    def expect(self, label, result, observe, want):
        """Record whether ``observe(result) == want``."""
        if result is FAILED:
            self.checks.append((label, False, "call failed"))
            return
        try:
            got = observe(result)
        except Exception as exc:
            self.checks.append((label, False, f"check raised {exc!r}"))
            return
        self.checks.append((label, got == want, repr(got)))


# ----------------------------------------------------------------------
# seeded relabelling and known answers
# ----------------------------------------------------------------------


def signed_relabelling(seed: int, positives) -> dict[int, int]:
    """A seeded signed permutation of the labels ±positives, odd under negation."""
    positives = list(positives)
    rng = random.Random(f"csspheres-bench/{seed}/{positives[0]}/{len(positives)}")
    images = positives[:]
    rng.shuffle(images)
    sigma = {}
    for v, w in zip(positives, images):
        w *= rng.choice((1, -1))
        sigma[v], sigma[-v] = w, -w
    return sigma


def relabel(c, sigma):
    return c.relabel(sigma.__getitem__, c.ambient_n)


def mapped(faces, sigma) -> frozenset:
    return frozenset(frozenset(sigma[v] for v in f) for f in faces)


def neighborly_sphere_h(d: int, n: int) -> tuple[int, ...]:
    """h-vector of a cs-ceil(d/2)-neighborly odd-dimensional d-sphere on 2n vertices.

    Neighborliness fixes f_{i-1} = 2^i C(n, i) for i <= k = (d+1)/2, which
    fixes h_0..h_k; Dehn-Sommerville symmetry gives the rest.
    """
    k = (d + 1) // 2
    f = [2**i * comb(n, i) for i in range(k + 1)]
    h = [sum((-1) ** (j - i) * comb(d + 1 - i, j - i) * f[i] for i in range(j + 1)) for j in range(k + 1)]
    return tuple(h + h[:k][::-1])


def sphere_betti(d: int) -> tuple[int, ...]:
    return tuple(1 if i in (0, d) else 0 for i in range(d + 1))


def ball_betti(d: int) -> tuple[int, ...]:
    return tuple(1 if i == 0 else 0 for i in range(d + 1))


def witness_ok(w, a_facets, b_facets) -> bool:
    """True iff the vertex map w sends the facets of a exactly onto those of b."""
    return w is not None and mapped(a_facets, w) == frozenset(frozenset(f) for f in b_facets)


def verify_sphere(c):
    """The calls of `verify --cs --neighborly k --sphere`, timed as one operation."""
    return props.is_cs(c), core.topology_report(c), props.cs_neighborliness(c)


def certify_sphere(p: Pass, tag: str, c, d: int, max_i: int) -> None:
    got = p.op("verify", verify_sphere, c)
    p.expect(f"{tag} cs", got, lambda r: r[0], True)
    p.expect(f"{tag} sphere", got, lambda r: (r[1].is_sphere(), r[1].z2_betti), (True, sphere_betti(d)))
    p.expect(f"{tag} neighborly", got, lambda r: r[2].max_i, max_i)


# ----------------------------------------------------------------------
# family_iso
# ----------------------------------------------------------------------

GAMMA_K, GAMMA_N, GAMMA_J = 3, 14, (3, 4)  # J over {3,4} is the window [3, n-4k+2] at n=14
DELTA_I_N = 12


def family_setup(seed: int, workdir: str) -> dict:
    return {
        "sigma_gamma": signed_relabelling(seed, range(1, GAMMA_N + 1)),
        "sigma_delta_i": signed_relabelling(seed, range(1, DELTA_I_N + 2)),
    }


def family_pass(p: Pass, inputs: dict, inproc: bool) -> None:
    builders.cache_clear()
    sg, sd = inputs["sigma_gamma"], inputs["sigma_delta_i"]
    subsets = [j for r in range(len(GAMMA_J) + 1) for j in itertools.combinations(GAMMA_J, r)]
    gammas = [relabel(flips.build_gamma(GAMMA_K, GAMMA_N, j), sg) for j in subsets]
    index_sets = sew3.enum_I(DELTA_I_N)
    spheres = [sew3.build_delta_I(s) for s in index_sets]
    delta_is = [relabel(c, sd) for c in spheres]

    d_gamma = 2 * GAMMA_K - 1
    full = sum(neighborly_sphere_h(d_gamma, GAMMA_N))
    for j, g in zip(subsets, gammas):
        certify_sphere(p, f"gamma{j}", g, d_gamma, GAMMA_K if not j else GAMMA_K - 1)
        p.expect(f"gamma{j} facet drop", g, lambda c: full - len(c.facets), 2 * len(j))

    n = DELTA_I_N
    top = [(2, 3), (-2, -3), (n - 2, n), (-n + 2, -n)]
    known = {(2, 3): 2 * n - 3, (1, 2): n + 2, (2, n + 1): n - 1, (3, 4): 2 * n - 6}
    for s, c in zip(index_sets, delta_is):
        tag = f"delta_I{s.indices}"
        certify_sphere(p, tag, c, 3, 2)
        census = p.op("edge_link_census", props.edge_link_census, c)
        p.expect(f"{tag} census values", census,
                 lambda cs: {e: cs[core.canon_face(sd[v] for v in e)] for e in known}, known)
        p.expect(f"{tag} census top", census,
                 lambda cs: frozenset(frozenset(e) for e, k in cs.items() if k >= 2 * n - 3),
                 mapped(top, sd))

    for family in (gammas, delta_is):
        for a, b in itertools.combinations(range(len(family)), 2):
            got = p.op("isomorphic", iso.isomorphic, family[a], family[b])
            p.expect(f"non-iso {a},{b} of {len(family)}", got, lambda w: w is None, True)
    for s, a, b in zip(index_sets, spheres, delta_is):
        got = p.op("isomorphic", iso.isomorphic, a, b)
        p.expect(f"witness delta_I{s.indices}", got, lambda w: witness_ok(w, a.facets, b.facets), True)


# ----------------------------------------------------------------------
# verify_ladder
# ----------------------------------------------------------------------

LADDER = ((7, 12), (5, 18), (3, 40))


def ladder_setup(seed: int, workdir: str) -> dict:
    return {n: signed_relabelling(seed, range(1, n + 1)) for _, n in LADDER}


def ladder_pass(p: Pass, inputs: dict, inproc: bool) -> None:
    builders.cache_clear()
    for d, n in LADDER:
        k = (d + 1) // 2
        sigma = inputs[n]
        tag = f"delta({d},{n})"
        # the call pattern of `verify --cs --neighborly k --sphere` then `census`
        sphere = relabel(builders.build_delta(d, n), sigma)
        p.expect(f"{tag} cs", p.op("is_cs", props.is_cs, sphere), bool, True)
        p.expect(f"{tag} neighborly", p.op("cs_neighborliness", props.cs_neighborliness, sphere),
                 lambda r: r.max_i, k)
        rep = p.op("topology_report", core.topology_report, sphere)
        p.expect(f"{tag} sphere", rep, lambda r: (r.is_sphere(), r.z2_betti), (True, sphere_betti(d)))
        fh = p.op("fh_vectors", core.fh_vectors, sphere)
        p.expect(f"{tag} h-vector", fh, lambda v: v.h, neighborly_sphere_h(d, n))
        census = p.op("edge_link_census", props.edge_link_census, sphere)
        p.expect(f"{tag} census", census, lambda cs: (len(cs), min(cs.values()) >= d),
                 (2 * n * (n - 1), True))
        del sphere, rep, fh, census
        # the call pattern of `verify --ball --stacked i --exactly-neighborly i`
        tag = f"B({d},{k - 1},{n})"
        ball = relabel(builders.build_B(d, k - 1, n), sigma)
        p.expect(f"{tag} neighborly", p.op("cs_neighborliness", props.cs_neighborliness, ball),
                 lambda r: (r.max_i, r.exact), (k - 1, True))
        rep = p.op("topology_report", core.topology_report, ball)
        p.expect(f"{tag} ball", rep, lambda r: (r.is_ball(), r.z2_betti), (True, ball_betti(d)))
        p.expect(f"{tag} stacked", p.op("stackedness", props.stackedness, ball),
                 lambda r: r.min_i, k - 1)
        del ball, rep


# ----------------------------------------------------------------------
# cli_pipeline
# ----------------------------------------------------------------------

CLI_N = 10  # Delta(3, 10), B(3, 1, 10)
CLI_I_N, CLI_I_SET = 12, ((3,), (3, 5))  # two Delta(I): relabelled input, built in the pass


def cli_setup(seed: int, workdir: str) -> dict:
    s10 = signed_relabelling(seed, range(1, CLI_N + 1))
    s13 = signed_relabelling(seed, range(1, CLI_I_N + 2))
    sphere = relabel(builders.build_delta(3, CLI_N), s10)
    ball = relabel(builders.build_B(3, 1, CLI_N), s10)
    delta_i = relabel(sew3.build_delta_I(sew3.IndexSet(CLI_I_N, CLI_I_SET[0])), s13)
    paths = {}
    for name, c in (("sd", sphere), ("sb", ball), ("sdi", delta_i)):
        paths[name] = os.path.join(workdir, f"{name}.json")
        write_path(paths[name], ComplexFile(c), "json")
    pass_dir = os.path.join(workdir, "pass")
    os.makedirs(pass_dir)
    return {"paths": paths, "pass_dir": pass_dir, "sigma13": s13, "sd_facets": sphere.facets}


def _run_child(argv: list[str], out_path: str, env: dict, timeout: float) -> tuple[int, int]:
    """Run one `python -m csspheres.cli` process; return (exit code, peak RSS in KB)."""
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-m", "csspheres.cli", *argv], stdout=out,
                                stderr=subprocess.STDOUT, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _run_inproc(argv: list[str], out_path: str) -> int:
    """Run one command through cli.main in this process, as a fresh process would."""
    builders.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return code


def _facets_of(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["facets"]


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _witness(stdout: list[str]) -> dict | None:
    if "isomorphic; witness map:" not in stdout:
        return None
    rows = stdout[stdout.index("isomorphic; witness map:") + 1:]
    return {int(a): int(b) for a, b in (r.split("\t") for r in rows)}


def cli_commands(inputs: dict, wd: str) -> list[tuple[list[str], int, object]]:
    """(argv, expected exit code, output check) for every command of one pass."""
    s, n, m = inputs["paths"], CLI_N, CLI_I_N
    w = lambda name: os.path.join(wd, name)  # noqa: E731 - short path helper
    top = [(2, 3), (-2, -3), (m - 2, m), (-m + 2, -m)]
    census_want = {(e, 2 * m - 3) for e in mapped(top, inputs["sigma13"])}

    def census_rows(out):
        return {(frozenset(map(int, r.split("\t")[:2])), int(r.split("\t")[2])) for r in out}

    return [
        (["build", "delta", "--d", "3", "--n", str(n), "--out", w("d.json")], 0,
         lambda out: len(_facets_of(w("d.json"))) == 2 * n * (n - 2)),
        (["build", "ball", "--d", "3", "--i", "1", "--n", str(n), "--out", w("b.json")], 0,
         lambda out: len(_facets_of(w("b.json"))) == 2 * n - 3),
        (["build", "lambda", "--d", "3", "--n", "8", "--out", w("l.json")], 0,
         lambda out: len(_facets_of(w("l.json"))) == 2 * 8 * 6),
        (["build", "delta-i", "--n", str(m), "--i-set", ",".join(map(str, CLI_I_SET[1])),
          "--out", w("di.json"), "--tree-out", w("tree.tsv")], 0,
         lambda out: (len(_facets_of(w("di.json"))), len(_lines(w("tree.tsv"))))
         == (2 * (m + 1) * (m - 1), 2 * m - 4)),
        (["flips", "--k", "3", "--n", "14", "--j", "3,4", "--out", w("g.json")], 0,
         lambda out: len(out) == 2 + 2 * 2 and all(r.startswith("PASS") for r in out)
         and len(_facets_of(w("g.json"))) == sum(neighborly_sphere_h(5, 14)) - 4),
        (["sew", "--base", w("d.json"), "--ball", w("b.json"), "--out", w("d11.json")], 0,
         lambda out: len(_facets_of(w("d11.json"))) == 2 * (n + 1) * (n - 1)),
        (["verify", s["sd"], w("d11.json"), "--cs", "--neighborly", "2", "--sphere"], 0,
         lambda out: len(out) == 6 and all(r.startswith("PASS") for r in out)),
        (["verify", s["sb"], "--ball", "--stacked", "1", "--exactly-neighborly", "1"], 0,
         lambda out: len(out) == 3 and all(r.startswith("PASS") for r in out)),
        (["verify", w("l.json"), "--cs", "--neighborly", "2", "--sphere"], 0,
         lambda out: len(out) == 3 and all(r.startswith("PASS") for r in out)),
        (["verify", w("g.json"), "--cs", "--neighborly", "3"], 1,
         lambda out: out[0].startswith("PASS") and out[1].startswith("FAIL") and "max_i=2" in out[1]),
        (["census", s["sdi"], "--at-least", str(2 * m - 3)], 0,
         lambda out: census_rows(out) == census_want),
        (["iso", w("di.json"), s["sdi"]], 1, lambda out: out[-1].startswith("not isomorphic")),
        (["iso", w("d.json"), s["sd"]], 0,
         lambda out: witness_ok(_witness(out), _facets_of(w("d.json")), inputs["sd_facets"])),
        (["aut", s["sd"], "--expect", "2"], 0, lambda out: out[0] == "automorphisms: 2"),
        (["shell", "delta3", "--n", str(n), "--out", w("order.txt")], 0,
         lambda out: out == [f"PASS shelling of delta3 n={n} ({2 * n * (n - 2)} facets)"]
         and len(_lines(w("order.txt"))) == 2 * n * (n - 2)),
        (["shell", "b42", "--n", "8"], 0, lambda out: out[-1].startswith("PASS shelling of b42 n=8")),
        (["export", s["sd"], "--format", "text", "--out", w("sd.txt")], 0,
         lambda out: _lines(w("sd.txt"))[0] == f"# dim=3 n={n} space=V"),
        (["export", w("sd.txt"), "--format", "json", "--out", w("sd2.json")], 0,
         lambda out: _bytes(w("sd2.json")) == _bytes(s["sd"])),
    ]


def cli_pass(p: Pass, inputs: dict, inproc: bool) -> None:
    wd = inputs["pass_dir"]
    for name in os.listdir(wd):
        os.remove(os.path.join(wd, name))
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    for idx, (argv, want, check) in enumerate(cli_commands(inputs, wd)):
        out_path = os.path.join(wd, f"stdout{idx}.txt")
        label = " ".join(argv[:2]) if argv[0] in ("build", "shell") else argv[0]
        if inproc:
            code = p.op(label, _run_inproc, argv, out_path)
        else:
            result = p.op(label, _run_child, argv, out_path, env, 120.0)
            code = result if result is FAILED else result[0]
            if result is not FAILED:
                p.child_rss_kb = max(p.child_rss_kb, result[1])
        p.expect(f"{label}#{idx} exit code", code, lambda c: c, want)
        if code == want:
            p.expect(f"{label}#{idx} output", out_path, lambda f: check(_lines(f)), True)


WORKLOADS = {
    "family_iso": (family_setup, family_pass),
    "verify_ladder": (ladder_setup, ladder_pass),
    "cli_pipeline": (cli_setup, cli_pass),
}
