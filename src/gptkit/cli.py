"""Command-line front end.

Subcommands expose the library's demonstrations and decision procedures
with JSON/CSV/text output and stable exit codes: 0 success, 1 invalid
input, 2 scale limit, 3 internal numerical failure.  ``-`` means
stdin/stdout for every FILE argument.  Each subcommand takes only the
options it reads; the default of --seed (tsirelson, bloch) is taken from
the GPTKIT_SEED environment variable (falling back to 0).
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import bell, bloch, composites, distinguish, interference, spaces
from .errors import GptkitError, NumericalFailure, ScaleLimit

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SCALE = 2
EXIT_NUMERICAL = 3


def _default_seed():
    try:
        return int(os.environ.get("GPTKIT_SEED", "0"))
    except ValueError:
        return 0


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path, text):
    if path == "-" or path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _complex_grid(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc])


# ---------------------------------------------------------------------------
# subcommands

def cmd_chsh(args):
    table = bell.table_from_json(_read(args.table))
    value = bell.chsh(table)
    corr = {f"E_{x}{y}": bell.expectation(table, x, y)
            for x in (0, 1) for y in (0, 1)}
    classical = bell.classical_membership(table) is not None
    ns = bell.is_nonsignalling(table)
    if args.format == "json":
        _write(args.output, json.dumps({
            "correlators": corr, "chsh": value,
            "classical": classical, "nonsignalling": ns}))
    elif args.format == "csv":
        lines = ["x,y,E"]
        for x in (0, 1):
            for y in (0, 1):
                lines.append(f"{x},{y},{corr[f'E_{x}{y}']:.12g}")
        _write(args.output, "\n".join(lines))
    else:
        rows = [f"E_{x}{y} = {corr[f'E_{x}{y}']:+.9f}"
                for x in (0, 1) for y in (0, 1)]
        rows.append(f"CHSH  = {value:+.9f}")
        rows.append(f"classical: {'yes' if classical else 'no'}")
        rows.append(f"no-signalling: {'yes' if ns else 'no'}")
        _write(args.output, "\n".join(rows))
    return EXIT_OK


def cmd_prbox(args):
    v = args.variant
    if len(v) != 3 or any(c not in "01" for c in v):
        raise GptkitError("variant must be three bits, e.g. 000")
    table = bell.pr_box(int(v[0]), int(v[1]), int(v[2]))
    _write(args.output, bell.table_to_json(table))
    return EXIT_OK


def cmd_tsirelson(args):
    value, setup = bell.maximize_chsh_quantum(seed=args.seed,
                                              iterations=args.iters)
    norm = float(np.abs(np.linalg.eigvalsh(bell.chsh_operator(setup))).max())
    if args.format == "json":
        _write(args.output, json.dumps({
            "value": value, "operator_norm": norm,
            "seed": args.seed, "iterations": args.iters}))
    else:
        _write(args.output,
               f"CHSH value   = {value:.12f}\n"
               f"operator norm = {norm:.12f}\n"
               f"2*sqrt(2)    = {2 * np.sqrt(2):.12f}")
    return EXIT_OK


def cmd_distinguish(args):
    space = spaces.space_from_json(_read(args.space))
    states = np.asarray(json.loads(_read(args.states))["states"], dtype=float)
    witness = distinguish.perfectly_distinguishable(space, states)
    if witness is None:
        _write(args.output, json.dumps({"distinguishable": False})
               if args.format == "json" else "none")
        return EXIT_OK
    effs = [e.coeffs.tolist() for e in witness.measurement.effects]
    if args.format == "json":
        _write(args.output, json.dumps({
            "distinguishable": True, "effects": effs,
            "delta_error": witness.delta_error()}))
    else:
        lines = ["distinguishable: yes"]
        for i, e in enumerate(effs):
            lines.append(f"effect {i}: {np.round(e, 9).tolist()}")
        _write(args.output, "\n".join(lines))
    return EXIT_OK


def cmd_compose(args):
    a = spaces.space_from_json(_read(args.a))
    b = spaces.space_from_json(_read(args.b))
    comp = (composites.min_tensor if args.kind == "min"
            else composites.max_tensor)(a, b)
    if args.vertices:
        comp = dataclasses.replace(comp, vertices=composites.enumerate_vertices(comp))
    _write(args.output, spaces.space_to_json(comp))
    return EXIT_OK


def cmd_sorkin(args):
    doc = json.loads(_read(args.exp))
    m = int(doc["M"])
    rho = _complex_grid(doc["rho"])
    q = _complex_grid(doc["Q"])
    exp = interference.SlitExperiment(m=m, rho=rho, q=q)
    out = {}
    if m == 2:
        out["I2"] = interference.sorkin_i2(exp)
    else:
        out["I3"] = interference.sorkin_i3(exp)
        if args.blockers:
            bdoc = json.loads(_read(args.blockers))
            blockers = {}
            for key, kraus in bdoc["subsets"].items():
                sub = tuple(int(c) for c in key)
                blockers[sub] = interference.BlockingMap(
                    tuple(_complex_grid(k) for k in kraus))
            out["I3_blockers"] = interference.sorkin_i3_with_blockers(
                rho, blockers, q)
    if args.format == "json":
        _write(args.output, json.dumps(out))
    else:
        _write(args.output, "\n".join(f"{k} = {v:.15g}" for k, v in out.items()))
    return EXIT_OK


def cmd_bloch(args):
    rng = np.random.default_rng(args.seed)
    if args.op == "roundtrip":
        worst = 0.0
        for _ in range(1000):
            r = rng.normal(size=3)
            r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
            back = bloch.density_to_bloch(bloch.bloch_to_density(r))
            worst = max(worst, float(np.abs(back - r).max()))
        out = {"op": "roundtrip", "samples": 1000, "max_error": worst}
    elif args.op == "rotation":
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = np.linalg.qr(h)[0]
        r = bloch.unitary_to_rotation(u)
        out = {"op": "rotation",
               "R": np.round(r, 12).tolist(),
               "det": float(np.linalg.det(r)),
               "orthogonality_error": float(
                   np.abs(r.T @ r - np.eye(3)).max())}
    elif args.op == "average":
        samples = bloch.haar_so3(rng, args.samples)
        avg = bloch.group_average_state(samples, np.array([0.0, 0.0, 1.0]))
        out = {"op": "average", "samples": args.samples,
               "mean_norm": float(np.linalg.norm(avg))}
    else:
        raise GptkitError(f"unknown bloch op {args.op!r}")
    if args.format == "json":
        _write(args.output, json.dumps(out))
    else:
        _write(args.output, "\n".join(f"{k} = {v}" for k, v in out.items()))
    return EXIT_OK


def cmd_nspolytope(args):
    g = spaces.make_gbit()
    comp = composites.max_tensor(g, g)
    verts = composites.enumerate_vertices(comp)
    kinds = [bell.classify_ns_vertex(bell.table_from_composite_state(v))
             for v in verts]
    n_det = kinds.count("deterministic")
    n_pr = kinds.count("pr")
    summary = f"{len(verts)} vertices: {n_det} deterministic, {n_pr} PR-type"
    if args.format == "json":
        _write(args.output, json.dumps({
            "n_vertices": len(verts), "deterministic": n_det,
            "pr_type": n_pr,
            "vertices": np.round(verts, 12).tolist()}))
    else:
        _write(args.output, summary)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="gptkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=("json", "text"), seed=False, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default="-")
        if seed:
            p.add_argument("--seed", type=int, default=_default_seed())
        return p

    p = add("chsh", cmd_chsh, formats=("json", "csv", "text"),
            help="correlators, CHSH value, membership verdicts")
    p.add_argument("--table", required=True)

    p = add("prbox", cmd_prbox, formats=(), help="emit a PR-box table")
    p.add_argument("--variant", default="000")

    p = add("tsirelson", cmd_tsirelson, seed=True,
            help="see-saw CHSH maximization")
    p.add_argument("--iters", type=int, default=200)

    p = add("distinguish", cmd_distinguish, help="perfect distinguishability witness")
    p.add_argument("--space", required=True)
    p.add_argument("--states", required=True)

    p = add("compose", cmd_compose, formats=(), help="min/max tensor product")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kind", choices=["min", "max"], required=True)
    p.add_argument("--vertices", action="store_true")

    p = add("sorkin", cmd_sorkin, help="interference residuals")
    p.add_argument("--exp", required=True)
    p.add_argument("--blockers")

    p = add("bloch", cmd_bloch, seed=True, help="Bloch-ball checks")
    p.add_argument("--op", choices=["roundtrip", "rotation", "average"],
                   required=True)
    p.add_argument("--samples", type=int, default=100000)

    add("nspolytope", cmd_nspolytope,
        help="enumerate and classify the no-signalling polytope vertices")
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ScaleLimit as exc:
        _emit_error(exc, "scale_limit")
        return EXIT_SCALE
    except NumericalFailure as exc:
        _emit_error(exc, "numerical_failure")
        return EXIT_NUMERICAL
    except (GptkitError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        _emit_error(exc, "invalid_input")
        return EXIT_INVALID


def _emit_error(exc, kind):
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
