"""cli: ``python -m gptkit.cli`` subprocesses, one after another.

The only workload that pays interpreter start-up, the gptkit import,
argparse and JSON I/O on every call, as a command-line user does.
``nspolytope`` carries the whole LP and geometry stack across a process
boundary.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import analytic
import oracles
import tensor_vertices
from common import OUT, ROOT, Op, Workload, best_of, require

HERE = ROOT / "perfbench"

TSIRELSON_STARTS = analytic.SEESAW_STARTS
HAAR_SAMPLES = 100_000
GBIT = np.array([[-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                 [1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
UNIT_SLICE = np.array([0.0, 0.0, 1.0])


@dataclasses.dataclass
class CliResult:
    code: int
    out: str
    err: str
    maxrss_kb: int = 0


@dataclasses.dataclass
class CliCall:
    kind: str      # the subcommand
    label: str
    argv: list
    check: object  # parsed JSON document -> None, raises WrongAnswer
    wrong: object  # parsed JSON document -> a wrong document
    stdin_from: str = None  # label of the call whose stdout feeds stdin


def child_env():
    env = dict(os.environ)
    env.pop("GPTKIT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class CliRunner:
    """The cli_runner.py process that forks the CLI calls (see there)."""

    def __init__(self, folder):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "cli_runner.py")], cwd=folder,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def run(self, argv, stdin=None):
        self.proc.stdin.write(json.dumps({"argv": argv, "stdin": stdin}) + "\n")
        self.proc.stdin.flush()
        return CliResult(**json.loads(self.proc.stdout.readline()))

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_in_process(argv, stdin=None):
    """``gptkit.cli.run(argv)`` in this process, with its I/O captured."""
    from gptkit import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# the calls of one round

def make_calls(rng, folder):
    """The round's CLI calls; their input files are written to ``folder``."""
    def write(name, doc):
        path = folder / name
        path.write_text(json.dumps(doc))
        return str(path)

    gbit_file = write("gbit.json", {"kind": "polytopic", "u": UNIT_SLICE.tolist(),
                                    "vertices": GBIT.tolist()})
    bits = rng.integers(0, 2, size=3)
    variant = "".join(str(b) for b in bits)
    pr = oracles.pr_table(*bits)
    calls = [
        CliCall("prbox", "prbox", ["prbox", "--variant", variant],
                prbox_check(pr), lambda d: {"p": [0.5 - d["p"][0]] + d["p"][1:]}),
        CliCall("chsh", "chsh", ["chsh", "--table", "-", "--format", "json"],
                chsh_check(pr), lambda d: {**d, "classical": True},
                stdin_from="prbox"),
        CliCall("nspolytope", "nspolytope", ["nspolytope", "--format", "json"],
                nspolytope_check(), lambda d: {**d, "vertices": d["vertices"][1:]}),
    ]
    group = best_of(TSIRELSON_STARTS, lambda d: d["value"], oracles.SQRT8, 1e-6,
                    "tsirelson")
    for i, seed in enumerate(rng.integers(0, 2 ** 31, size=TSIRELSON_STARTS)):
        calls.append(CliCall(
            "tsirelson", "tsirelson",
            ["tsirelson", "--seed", str(seed), "--iters",
             str(analytic.SEESAW_ITERATIONS), "--format", "json"],
            tsirelson_check(int(seed), group[i]),
            lambda d: {**d, "value": oracles.SQRT8 + 1e-8}))
    seed = int(rng.integers(0, 2 ** 31))
    calls.append(CliCall(
        "bloch", "bloch average",
        ["bloch", "--op", "average", "--samples", str(HAAR_SAMPLES),
         "--seed", str(seed), "--format", "json"],
        average_check, lambda d: {**d, "mean_norm": 0.5}))
    pair = GBIT[rng.choice(4, 2, replace=False)]
    triple = GBIT[rng.choice(4, 3, replace=False)]
    for name, states in (("pair", pair), ("triple", triple)):
        path = write(f"{name}.json", {"states": states.tolist()})
        calls.append(CliCall(
            "distinguish", f"distinguish gbit {name}",
            ["distinguish", "--space", gbit_file, "--states", path, "--format", "json"],
            distinguish_check(states), flip_distinguishable))
    calls.append(CliCall(
        "compose", "compose gbit gbit max",
        ["compose", "--a", gbit_file, "--b", gbit_file, "--kind", "max", "--vertices"],
        compose_check(), lambda d: {**d, "vertices": d["vertices"][1:]}))
    angle = rng.uniform(0.05, 0.8)
    v = np.ones(3) / np.sqrt(3)
    rho = np.outer(v, v).astype(complex)
    exp = write("exp.json", {"M": 3, "rho": grid(rho), "Q": grid(rho)})
    vecs = np.eye(3, dtype=complex)
    vecs[:, 0] = [np.cos(angle), np.sin(angle), 0.0]
    subsets = ("1", "2", "3", "12", "13", "23", "123")
    blockers = write("blockers.json", {"subsets": {
        s: [grid(oracles.span_projector(vecs[:, [int(c) - 1 for c in s]]))]
        for s in subsets}})
    calls.append(CliCall(
        "sorkin", f"sorkin rotated blockers {angle:.3f}",
        ["sorkin", "--exp", exp, "--blockers", blockers, "--format", "json"],
        sorkin_check(analytic.blocker_check(rho, angle)),
        lambda d: {**d, "I3": 1e-6}))
    return calls


def grid(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def prbox_check(p):
    def check(doc):
        require(np.abs(np.asarray(doc["p"]) - p).max() <= 1e-12, "PR box table")
    return check


def chsh_check(p):
    e = oracles.correlators(p)

    def check(doc):
        require(abs(doc["chsh"] - oracles.chsh_value(p)) <= 1e-9, "CHSH value")
        require(all(abs(doc["correlators"][f"E_{x}{y}"] - e[x, y]) <= 1e-9
                    for x in (0, 1) for y in (0, 1)), "correlators")
        require(doc["classical"] is False, "PR box reported classical")
        require(doc["nonsignalling"] is True, "PR box reported signalling")
    return check


def nspolytope_check():
    vertices = tensor_vertices.vertex_check(
        "gbit_gbit", GBIT, UNIT_SLICE, GBIT, UNIT_SLICE, {})

    def check(doc):
        require((doc["n_vertices"], doc["deterministic"], doc["pr_type"])
                == (24, 16, 8), "counts are not 24 = 16 + 8")
        vertices(np.asarray(doc["vertices"], dtype=float))
    return check


def compose_check():
    vertices = tensor_vertices.vertex_check(
        "gbit_gbit", GBIT, UNIT_SLICE, GBIT, UNIT_SLICE, {})

    def check(doc):
        require(doc["kind"] == "max", "kind")
        vertices(np.asarray(doc["vertices"], dtype=float))
    return check


def tsirelson_check(seed, group_check):
    def check(doc):
        require(doc["seed"] == seed and doc["iterations"] == analytic.SEESAW_ITERATIONS,
                "seed or iterations not echoed")
        require(doc["operator_norm"] <= oracles.SQRT8 + 1e-9, "operator norm")
        require(doc["value"] <= doc["operator_norm"] + 1e-9, "value above the norm")
        group_check(doc)
    return check


def average_check(doc):
    require(doc["samples"] == HAAR_SAMPLES, "sample count")
    require(0 < doc["mean_norm"] < 0.02, f"|average| = {doc['mean_norm']}")


def distinguish_check(states):
    ref = {}

    def check(doc):
        if not doc["distinguishable"]:
            if not ref:
                ref["highs"] = oracles.highs_distinguishable(GBIT, UNIT_SLICE, states)
            require(not ref["highs"], "says no, HiGHS finds a measurement")
            return
        err = oracles.check_measurement(GBIT, UNIT_SLICE, states, doc["effects"])
        require(err <= oracles.CERT_TOL and doc["delta_error"] <= oracles.CERT_TOL,
                f"witness off by {err:.3g}")
    return check


def flip_distinguishable(doc):
    if doc["distinguishable"]:
        return {"distinguishable": False}
    half = (UNIT_SLICE / 2).tolist()
    return {"distinguishable": True, "effects": [half, half, half],
            "delta_error": 0.0}


def sorkin_check(blocked):
    def check(doc):
        require(abs(doc["I3"]) <= 1e-12, f"I3 {doc['I3']!r}")
        blocked(doc["I3_blockers"])
    return check


# ---------------------------------------------------------------------------

def build(rng):
    OUT.mkdir(exist_ok=True)
    folder = OUT / f"cli-inputs-{os.getpid()}"
    folder.mkdir()
    calls = make_calls(rng, folder)
    runner = CliRunner(folder)
    stdout_of = {}

    def call(c):
        stdin = stdout_of[c.stdin_from] if c.stdin_from else None
        res = runner.run(c.argv, stdin)
        stdout_of[c.label] = res.out
        return res

    def cleanup():
        runner.close()
        shutil.rmtree(folder, ignore_errors=True)

    ops = [Op(c.kind, c.label, lambda c=c: call(c), result_check(c),
              result_mutants(c))
           for c in calls]
    return Workload(ops=ops, headline=("nspolytope",), details=details,
                    children_rss=True, cleanup=cleanup)


def result_check(c):
    def check(res):
        require(res.code == 0, f"{c.label}: exit code {res.code}: {res.err.strip()}")
        c.check(json.loads(res.out))
    return check


def result_mutants(c):
    def mutants(res):
        return [dataclasses.replace(res, code=2),
                dataclasses.replace(res, out=json.dumps(c.wrong(json.loads(res.out))))]
    return mutants


def details(times):
    return {"cli_nspolytope_ms": 1e3 * times["nspolytope"][0]}


# ---------------------------------------------------------------------------
# the cli layer, measured in a traced run

def layer_metrics(rng, repeats):
    """Start-up and import cost of the CLI, and in-process ``cli.run`` time
    per subcommand (median of ``repeats`` passes over one round's calls)."""
    env = child_env()

    def median_ms(code):
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True)
            runs.append(time.perf_counter() - t0)
        return 1e3 * float(np.median(runs))

    startup = median_ms("pass")
    metrics = {"cli.startup_ms": (startup, "ms"),
               "cli.import_ms": (median_ms("import gptkit.cli") - startup, "ms")}
    OUT.mkdir(exist_ok=True)
    folder = OUT / f"cli-layer-{os.getpid()}"
    folder.mkdir()
    try:
        calls = make_calls(rng, folder)
        times = {c.kind: [] for c in calls}
        for _ in range(repeats):
            stdout_of = {}
            for c in calls:
                stdin = stdout_of[c.stdin_from] if c.stdin_from else None
                t0 = time.perf_counter()
                res = run_in_process(c.argv, stdin)
                times[c.kind].append(time.perf_counter() - t0)
                stdout_of[c.label] = res.out
                result_check(c)(res)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    for kind, t in times.items():
        metrics[f"cli.run.{kind}_ms"] = (1e3 * float(np.median(t)), "ms")
    return metrics
