"""Command-line front end.

Subcommands expose the library's demonstrations and decision procedures
with JSON/CSV/text output and stable exit codes: 0 success, 1 invalid
input, 2 scale limit, 3 internal numerical failure.  ``-`` means
stdin/stdout for every FILE argument.  Each subcommand takes only the
options it reads; the default of --seed (tsirelson, bloch) is taken from
the GPTKIT_SEED environment variable (falling back to 0).  ``main``, the
``gptkit`` command, runs BLAS on one thread unless the environment already
sets a thread count; ``run`` leaves the environment alone.

``main`` also ends the process as soon as the answer is out: it flushes
stdout and stderr and calls ``os._exit``, skipping the interpreter's
shutdown, so atexit handlers do not run in the command.  Where the
platform has SIGPIPE, a closed stdout (``gptkit ... | head -c 5``) ends
the command by that signal, as it ends ``cat``, with nothing on stderr.
``run`` returns the exit code and does none of this.
"""

import argparse
import dataclasses
import json
import os
import sys

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


def _object(text):
    """The JSON object in ``text``; any other JSON value is refused."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise GptkitError("the document must be a JSON object")
    return doc


def _floats(value, name):
    import numpy as np

    try:
        return np.asarray(value, dtype=float)
    except TypeError:  # a JSON object where numbers belong
        raise GptkitError(f"{name} must hold numbers only") from None


def _complex(value, name):
    """Complex numbers written as [re, im] pairs, nested to any depth."""
    pairs = _floats(value, name)
    if pairs.ndim == 0 or pairs.shape[-1] != 2:
        raise GptkitError(f"{name} must hold [re, im] pairs")
    return pairs.view(complex)[..., 0]


# ---------------------------------------------------------------------------
# subcommands; each imports the modules it uses when it runs, so a call
# loads (and, without cached bytecode, compiles) only those

def cmd_chsh(args):
    from . import bell

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
    from . import bell

    v = args.variant
    if len(v) != 3 or any(c not in "01" for c in v):
        raise GptkitError("variant must be three bits, e.g. 000")
    table = bell.pr_box(int(v[0]), int(v[1]), int(v[2]))
    _write(args.output, bell.table_to_json(table))
    return EXIT_OK


def cmd_tsirelson(args):
    import numpy as np

    from . import bell

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
    import numpy as np

    from . import distinguish, spaces

    space = spaces.space_from_json(_read(args.space))
    states = _floats(_object(_read(args.states))["states"], "states")
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
    from . import composites, spaces

    a = spaces.space_from_json(_read(args.a))
    b = spaces.space_from_json(_read(args.b))
    comp = (composites.min_tensor if args.kind == "min"
            else composites.max_tensor)(a, b)
    if args.vertices:
        comp = dataclasses.replace(comp, vertices=composites.enumerate_vertices(comp))
    _write(args.output, spaces.space_to_json(comp))
    return EXIT_OK


def cmd_sorkin(args):
    from . import interference
    from .operators import whole

    doc = _object(_read(args.exp))
    exp = interference.SlitExperiment(m=whole(doc["M"]),
                                      rho=_complex(doc["rho"], "rho"),
                                      q=_complex(doc["Q"], "Q"))
    out = {f"I{exp.m}": interference.sorkin(exp)}
    if args.blockers:
        subsets = _object(_read(args.blockers))["subsets"]
        if not isinstance(subsets, dict) or not all(
                isinstance(ops, list) for ops in subsets.values()):
            raise GptkitError("subsets must map to lists of Kraus operators")
        blockers = {tuple(int(c) for c in key): interference.BlockingMap(
            tuple(_complex(k, f"subset {key}") for k in ops))
            for key, ops in subsets.items()}
        out[f"I{exp.m}_blockers"] = interference.sorkin(exp, blockers)
    if args.format == "json":
        _write(args.output, json.dumps(out))
    else:
        _write(args.output, "\n".join(f"{k} = {v:.15g}" for k, v in out.items()))
    return EXIT_OK


def cmd_bloch(args):
    import numpy as np

    from . import bloch

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
        avg = bloch.haar_mean(rng, args.samples) @ np.array([0.0, 0.0, 1.0])
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
    import numpy as np

    from . import bell, composites, spaces

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
    import signal

    # One BLAS thread unless the caller chose a count: the many small
    # products and solves of an LP search only slow down in a thread pool.
    # Set before numpy is first imported; library callers keep numpy's
    # default.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if hasattr(signal, "SIGPIPE"):
        # a reader that closes the pipe ends the command, as it ends cat,
        # instead of being reported as invalid input
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = run()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the fd was closed at start-up
            stream.flush()
    # The answer is out.  The interpreter's shutdown would now run full
    # garbage collections over the objects numpy's import made and clear
    # every module, about 25 ms or an eighth of a call that nothing waits
    # for; os._exit skips it, atexit handlers included.
    os._exit(code)


if __name__ == "__main__":
    main()
