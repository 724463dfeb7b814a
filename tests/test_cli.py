import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gptkit
from gptkit import bell, cli, interference, spaces

from .conftest import polygon, random_density, random_effect_operator

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, argv, stdin=None):
    if stdin is not None:
        import io
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = cli.run(argv)
        finally:
            sys.stdin = old
    else:
        code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prbox_chsh_pipeline(capsys):
    code, out, _ = run_cli(capsys, ["prbox", "--variant", "000"])
    assert code == 0
    code, out, _ = run_cli(capsys, ["chsh", "--table", "-"], stdin=out)
    assert code == 0
    assert "CHSH  = +4.000000000" in out
    assert "classical: no" in out
    assert "no-signalling: yes" in out


def test_chsh_json_and_csv(capsys, tmp_path):
    table_file = tmp_path / "t.json"
    table_file.write_text(bell.table_to_json(bell.pr_box()))
    code, out, _ = run_cli(capsys, ["chsh", "--table", str(table_file),
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["chsh"] == 4.0
    assert doc["classical"] is False
    code, out, _ = run_cli(capsys, ["chsh", "--table", str(table_file),
                                    "--format", "csv"])
    assert out.splitlines()[0] == "x,y,E"
    assert len(out.splitlines()) == 5


def test_tsirelson(capsys):
    code, out, _ = run_cli(capsys, ["tsirelson", "--seed", "0",
                                    "--iters", "100", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 2 * np.sqrt(2)) < 1e-6
    assert doc["operator_norm"] <= 2 * np.sqrt(2) + 1e-9


def test_distinguish(capsys, tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(spaces.space_to_json(spaces.make_gbit()))
    states_file = tmp_path / "states.json"
    states_file.write_text(json.dumps(
        {"states": [[-1, -1, 1], [1, 1, 1]]}))
    code, out, _ = run_cli(capsys, ["distinguish", "--space", str(space_file),
                                    "--states", str(states_file),
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["distinguishable"] is True
    states_file.write_text(json.dumps(
        {"states": [[-1, -1, 1], [1, 1, 1], [1, -1, 1]]}))
    code, out, _ = run_cli(capsys, ["distinguish", "--space", str(space_file),
                                    "--states", str(states_file)])
    assert code == 0
    assert out.strip() == "none"


def test_compose(capsys, tmp_path):
    space_file = tmp_path / "c2.json"
    space_file.write_text(spaces.space_to_json(spaces.make_classical(2)))
    code, out, _ = run_cli(capsys, ["compose", "--a", str(space_file),
                                    "--b", str(space_file), "--kind", "max",
                                    "--vertices"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 4


def test_compose_output_feeds_distinguish_and_compose(capsys, tmp_path):
    g = spaces.make_gbit()
    gbit_file = tmp_path / "gbit.json"
    gbit_file.write_text(spaces.space_to_json(g))
    code, comp, _ = run_cli(capsys, ["compose", "--a", str(gbit_file),
                                     "--b", str(gbit_file), "--kind", "max"])
    assert code == 0 and json.loads(comp)["kind"] == "max"
    states = [np.kron(g.vertices[0], g.vertices[0]),
              np.kron(g.vertices[2], g.vertices[2])]
    states_file = tmp_path / "states.json"
    states_file.write_text(json.dumps({"states": np.array(states).tolist()}))
    code, out, _ = run_cli(capsys, ["distinguish", "--space", "-",
                                    "--states", str(states_file),
                                    "--format", "json"], stdin=comp)
    assert code == 0
    doc = json.loads(out)
    assert doc["distinguishable"] is True and doc["delta_error"] <= 1e-7
    values = np.array(doc["effects"]) @ np.array(states).T
    assert np.abs(values - np.eye(2)).max() <= 1e-7
    # a composite is a factor like any other space
    code, out, _ = run_cli(capsys, ["compose", "--a", str(gbit_file),
                                    "--b", "-", "--kind", "max"], stdin=comp)
    assert code == 0
    nested = spaces.space_from_json(out)
    assert nested.ambient_dim == 27 and nested.ineqs.shape == (64, 27)
    assert nested.factors[1].factors is not None


def test_sorkin(capsys, tmp_path):
    exp_file = tmp_path / "exp.json"
    third = [[1 / 3, 0.0]] * 3
    exp_file.write_text(json.dumps(
        {"M": 3, "rho": [third, third, third],
         "Q": [[[1.0, 0.0], [0, 0], [0, 0]],
               [[0, 0], [1.0, 0.0], [0, 0]],
               [[0, 0], [0, 0], [1.0, 0.0]]]}))
    code, out, _ = run_cli(capsys, ["sorkin", "--exp", str(exp_file),
                                    "--format", "json"])
    assert code == 0
    assert abs(json.loads(out)["I3"]) < 1e-12


# a 2-slit state and detector with complex coherences
SORKIN_M2 = ([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]],
             [[0.6, 0.3j], [-0.3j, 0.4]])


def grid(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def sorkin_argv(tmp_path, m, rho, q, blockers=None):
    """argv for ``sorkin`` on files written under ``tmp_path``; ``blockers``
    maps open-slit subsets to BlockingMaps."""
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"M": m, "rho": grid(rho), "Q": grid(q)}))
    argv = ["sorkin", "--exp", str(exp)]
    if blockers is not None:
        path = tmp_path / "blockers.json"
        path.write_text(json.dumps({"subsets": {
            "".join(map(str, s)): [grid(k) for k in b.kraus]
            for s, b in blockers.items()}}))
        argv += ["--blockers", str(path)]
    return argv


def test_sorkin_two_slits_reads_blockers(capsys, tmp_path):
    argv = sorkin_argv(tmp_path, 2, *SORKIN_M2,
                       interference.projector_blockers(2))
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["I2", "I2_blockers"]
    assert abs(doc["I2_blockers"] - doc["I2"]) < 1e-12
    code, out, err = run_cli(
        capsys, sorkin_argv(tmp_path, 2, *SORKIN_M2)
        + ["--blockers", str(tmp_path / "missing.json")])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "invalid_input"


def test_sorkin_four_slits(capsys, tmp_path):
    rng = np.random.default_rng(4)
    argv = sorkin_argv(tmp_path, 4, random_density(rng, 4),
                       random_effect_operator(rng, 4))
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["I4"] and abs(doc["I4"]) <= 1e-12


MALFORMED = "Kraus operators must be square matrices of one size"


@pytest.mark.parametrize("kraus, message", [
    ([[1, 0]], MALFORMED),
    ([grid(np.eye(2) / 2), grid(np.eye(3) / 2)], MALFORMED),
    (5, "subsets must map to lists of Kraus operators"),
], ids=["0-d operator", "2x2 among 3x3", "not a list"])
def test_sorkin_refuses_malformed_kraus(capsys, tmp_path, kraus, message):
    argv = sorkin_argv(tmp_path, 3, np.eye(3) / 3, np.eye(3))
    blockers = tmp_path / "bad.json"
    blockers.write_text(json.dumps({"subsets": {"1": kraus}}))
    code, out, err = run_cli(capsys, argv + ["--blockers", str(blockers)])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "invalid_input", "message": message}


def test_sorkin_refuses_blockers_of_another_size(capsys, tmp_path):
    argv = sorkin_argv(tmp_path, 2, *SORKIN_M2,
                       interference.projector_blockers(2))
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"M": 3, "rho": grid(np.eye(3) / 3),
                               "Q": grid(np.eye(3))}))
    subsets = {"".join(map(str, s)): [grid(np.eye(2) / 2)]
               for s in interference.projector_blockers(3)}
    (tmp_path / "blockers.json").write_text(json.dumps({"subsets": subsets}))
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "invalid_input", "message":
                               "need one m x m blocker per open-slit subset, no other"}


def test_quantum_space_above_the_scale_limit_exit_code(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"kind": "quantum", "N": 100}))
    states = tmp_path / "states.json"
    states.write_text(json.dumps({"states": [[1.0]]}))
    code, out, err = run_cli(capsys, ["distinguish", "--space", str(space),
                                      "--states", str(states)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "scale_limit"


def test_sorkin_too_many_slits_exit_code(capsys, tmp_path):
    argv = sorkin_argv(tmp_path, 10, np.eye(10) / 10, np.eye(10))
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "scale_limit"


def test_sorkin_non_finite_exit_code(capsys, tmp_path):
    rho = np.array(SORKIN_M2[0])
    rho[0, 1] = np.nan
    code, out, err = run_cli(capsys,
                             sorkin_argv(tmp_path, 2, rho, SORKIN_M2[1]))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "invalid_input"


def test_bloch_ops(capsys):
    code, out, _ = run_cli(capsys, ["bloch", "--op", "roundtrip",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["max_error"] < 1e-12
    code, out, _ = run_cli(capsys, ["bloch", "--op", "average",
                                    "--samples", "100000", "--seed", "0",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["mean_norm"] < 0.02


@pytest.mark.parametrize("n", ["0", "-5"])
def test_bloch_average_needs_a_sample(capsys, n):
    code, out, err = run_cli(capsys, ["bloch", "--op", "average",
                                      "--samples", n])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "invalid_input",
                               "message": "need at least one sample"}


# Starts the command from a small interpreter and prints its peak RSS in kB:
# a child's ru_maxrss also counts the process it was forked from.
PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_bloch_average_memory_does_not_grow_with_samples():
    src = str(Path(gptkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    res = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "gptkit.cli",
         "bloch", "--op", "average", "--samples", "2000000"],
        capture_output=True, text=True, env=env, check=True)
    code, maxrss_kb = map(int, res.stdout.split())
    assert code == 0
    # holding all 2e6 rotations at once peaks near 260 MB
    assert maxrss_kb < 100 * 1024


def test_nspolytope(capsys):
    code, out, _ = run_cli(capsys, ["nspolytope"])
    assert code == 0
    assert out.strip() == "24 vertices: 16 deterministic, 8 PR-type"


def test_invalid_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["chsh", "--table", str(bad)])
    assert code == 1
    assert json.loads(err)["error"] == "invalid_input"
    code, _, _ = run_cli(capsys, ["prbox", "--variant", "7"])
    assert code == 1


def test_non_finite_table_exit_code(capsys):
    # json.loads reads the bare NaN literal that json.dumps writes
    code, _, err = run_cli(capsys, ["chsh", "--table", "-"],
                           stdin=json.dumps({"p": [float("nan")] * 16}))
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "invalid_input"
    assert "table" in doc["message"]


def test_non_finite_state_exit_code(capsys, tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(spaces.space_to_json(spaces.make_gbit()))
    code, out, err = run_cli(
        capsys, ["distinguish", "--space", str(space_file), "--states", "-"],
        stdin=json.dumps({"states": [[float("nan"), 0, 1], [1, 1, 1]]}))
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "invalid_input"
    assert doc["message"] == "state has a non-finite coordinate"


def test_no_states_exit_code(capsys, tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(spaces.space_to_json(spaces.make_gbit()))
    code, out, err = run_cli(
        capsys, ["distinguish", "--space", str(space_file), "--states", "-"],
        stdin=json.dumps({"states": []}))
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "invalid_input"
    assert doc["message"] == "need at least one state"


def test_scale_limit_exit_code(capsys, tmp_path):
    big = tmp_path / "c11.json"
    big.write_text(spaces.space_to_json(spaces.make_classical(11)))
    code, _, err = run_cli(capsys, ["compose", "--a", str(big),
                                    "--b", str(big), "--kind", "max"])
    assert code == 2
    assert json.loads(err)["error"] == "scale_limit"


def test_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["tsirelson", "--seed", "7",
                                        "--iters", "50", "--format", "json"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_entry_point_installed(tmp_path):
    """The declared `gptkit` entry point runs as a program end to end.

    The launcher is built here from `[project.scripts]` in this checkout's
    pyproject.toml, the same three lines an installer writes, so the test
    runs this checkout's code without an install.  How pip itself
    generates console scripts is left to pip.
    """
    toml = tomllib or pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = toml.load(fh)["project"]["scripts"]["gptkit"]
    module, func = target.split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "gptkit"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {func}\n"
                      f"sys.exit({func}())\n")
    script.chmod(0o755)
    src = str(Path(gptkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    res = subprocess.run(["gptkit", "prbox", "--variant", "000"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert json.loads(res.stdout)["p"][0] == 0.5


@pytest.mark.parametrize("argv", [
    ["prbox", "--format", "text"],
    ["prbox", "--seed", "1"],
    ["nspolytope", "--format", "csv"],
    ["chsh", "--table", "{table}", "--seed", "1"],
    ["compose", "--a", "{space}", "--b", "{space}", "--kind", "min",
     "--format", "json"],
    ["distinguish", "--space", "{space}", "--states", "{states}",
     "--format", "csv"],
], ids=["prbox-format", "prbox-seed", "nspolytope-csv", "chsh-seed",
        "compose-format", "distinguish-csv"])
def test_unread_options_rejected(capsys, tmp_path, argv):
    files = {"table": bell.table_to_json(bell.pr_box()),
             "space": spaces.space_to_json(spaces.make_gbit()),
             "states": json.dumps({"states": [[-1, -1, 1], [1, 1, 1]]})}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    argv = [a.format(**{k: str(tmp_path / f"{k}.json") for k in files})
            for a in argv]
    code, out, _ = run_cli(capsys, argv)
    assert code == 1
    assert out == ""


# sha256 of the stdout of each call, recorded before maximal composites
# became StateSpaces given by inequalities (compose, nspolytope) and before
# the Sorkin quantities became one inclusion-exclusion (sorkin), and before
# each kind of state space answered its own questions (distinguish); the
# output must not move
PINNED_STDOUT = {
    "c3-pentagon-max":
        "f47284a09b85169d610a00c363904ce30d845112e86493efa8c9239c316cae58",
    "c3-pentagon-max-vertices":
        "206ac618639c36954f0f37b16dcfccc914054891d8a1037123baad410b8aaa02",
    "distinguish-ball3-antipodal":
        "3b7916595365f4e1c7735b0a37453b2dab79d84d7b81dc07bc430874bc5ea75c",
    "distinguish-gbit-gbit-max-products":
        "cc7f45897f36345c979bc2d66837e39ac5754307707a90eca7f74219b6120dac",
    "distinguish-gbit-single":
        "4c4030dbbe0c89793d8b51e318a3f3dc998054ddac2ef1d7dcc5edab0bd818c5",
    "distinguish-pentagon-pair":
        "3a8320a67eee4f9f97fe372a11b556e32bc15dafacbf4d1e79af46770296b4ea",
    "distinguish-quantum2-basis":
        "7b1b988e1f28894e60a484bccf4d5695ff13a5111fbb155c1af4c4949f08f5c5",
    "c3-pentagon-min":
        "ff7a43c43ab920309f6f6627fa3ca3a749ece917544adf11955a1105585ebfa9",
    "gbit-gbit-max":
        "799f7fe6b313c18229b25808e9f8b22a83a457e8507dbcd5b3927ab5e8d462b7",
    "gbit-gbit-max-vertices":
        "43838ed2d52d7a8196b71850ef233f96b4d61a9e181e561f277513e70fcd0aca",
    "gbit-gbit-min":
        "e62cd17a04248e26e5853fc015689b321b75fa16abc1407fb045f82035c41efd",
    "nspolytope-json":
        "844bc61a53167caf9de0b70e0c998c18d99e91b0ee2a90a89e50d3c91d68c7d5",
    "sorkin-m2-json":
        "af7a047925e51161a6c66f9879a534c1ece5e8872e411eb476f72e2f2d9f6d4d",
    "sorkin-m2-text":
        "c9057f40dd97752699ec876fbb0837092ea62fcd256145174206b653ecc885e2",
    "sorkin-m3-rotated-json":
        "0ca288bcb0a8faac6601cf310aea8f4f26d510cd9d368004b122db988205115f",
    "sorkin-m3-rotated-text":
        "588f02c355d81282bebaa1ecc796d9ae9d44b9528b56e6c1234dea4ad582d69e",
}


def _distinguish_input(case):
    """The space and states of a ``distinguish-*`` case."""
    g = spaces.make_gbit()
    if case == "distinguish-pentagon-pair":
        return polygon(5), polygon(5).vertices[[0, 2]]
    if case == "distinguish-gbit-gbit-max-products":
        from gptkit import composites
        return (composites.max_tensor(g, g),
                [np.kron(g.vertices[0], g.vertices[0]),
                 np.kron(g.vertices[2], g.vertices[2])])
    if case == "distinguish-ball3-antipodal":
        return spaces.make_ball(3), [[1, 0, 0.6, 0.8], [1, 0, -0.6, -0.8]]
    if case == "distinguish-quantum2-basis":
        return spaces.make_quantum(2), [[1, 0, 0, 0], [0, 1, 0, 0]]
    return g, g.vertices[1:2]


@pytest.mark.parametrize("case", sorted(PINNED_STDOUT))
def test_stdout_pinned(capsys, tmp_path, case):
    if case.startswith("distinguish-"):
        space, states = _distinguish_input(case)
        (tmp_path / "space.json").write_text(spaces.space_to_json(space))
        (tmp_path / "states.json").write_text(
            json.dumps({"states": np.asarray(states, dtype=float).tolist()}))
        argv = ["distinguish", "--space", str(tmp_path / "space.json"),
                "--states", str(tmp_path / "states.json"), "--format", "json"]
    elif case == "nspolytope-json":
        argv = ["nspolytope", "--format", "json"]
    elif case.startswith("sorkin-m2-"):
        argv = sorkin_argv(tmp_path, 2, *SORKIN_M2)
        argv += ["--format", case.rsplit("-", 1)[1]]
    elif case.startswith("sorkin-m3-"):
        v = np.full(3, 1 / np.sqrt(3))
        rho = np.outer(v, v)
        argv = sorkin_argv(tmp_path, 3, rho, rho,
                           interference.rotated_blockers(0.3))
        argv += ["--format", case.rsplit("-", 1)[1]]
    else:
        name_a, name_b, kind, *flag = case.split("-")
        factors = {"gbit": spaces.make_gbit(), "c3": spaces.make_classical(3),
                   "pentagon": polygon(5)}
        for side, name in (("a", name_a), ("b", name_b)):
            (tmp_path / f"{side}.json").write_text(
                spaces.space_to_json(factors[name]))
        argv = ["compose", "--a", str(tmp_path / "a.json"),
                "--b", str(tmp_path / "b.json"), "--kind", kind]
        argv += [f"--{f}" for f in flag]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[case]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Runs the CLI as ``python -m gptkit.cli`` would and prints, to stderr, the
# BLAS thread variables as they stood when numpy was first imported.
BLAS_PROBE = f"""
import os, runpy, sys
class NumpyImportSpy:
    seen = False
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name == "numpy" and not cls.seen:
            cls.seen = True
            print(*(os.environ.get(v) for v in {BLAS_VARS!r}), file=sys.stderr)
sys.meta_path.insert(0, NumpyImportSpy)
sys.argv[0] = "gptkit"
runpy.run_module("gptkit.cli", run_name="__main__")
"""


@pytest.mark.parametrize("given, seen", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
], ids=["unset", "user-set"])
def test_cli_pins_blas_threads_before_numpy(given, seen):
    src = str(Path(gptkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(given)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    res = subprocess.run([sys.executable, "-c", BLAS_PROBE, "prbox"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stderr.split() == seen


def test_library_call_leaves_blas_threads_alone(capsys, monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    code, _, _ = run_cli(capsys, ["prbox"])
    assert code == 0
    assert not set(BLAS_VARS) & set(os.environ)


# Documents of the wrong shape, each refused as invalid input rather than
# ending in a traceback.
E2 = {"M": 2, "rho": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
      "Q": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
WRONG_SHAPES = {
    "sorkin-number": (["sorkin", "--exp", "-"], 5),
    "sorkin-number-grids": (["sorkin", "--exp", "-"],
                            {"M": 3, "rho": 5, "Q": 5}),
    "blockers-number": (["sorkin", "--exp", "{e2}", "--blockers", "-"],
                        {"subsets": 5}),
    "blockers-number-kraus": (["sorkin", "--exp", "{e2}", "--blockers", "-"],
                              {"subsets": {"1": 5}}),
    "chsh-list": (["chsh", "--table", "-"], [1, 2]),
    "distinguish-number": (["distinguish", "--space", "{gbit}",
                            "--states", "-"], {"states": 3}),
    "compose-list": (["compose", "--a", "-", "--b", "{gbit}",
                      "--kind", "min"], [1]),
    "compose-string": (["compose", "--a", "-", "--b", "{gbit}",
                        "--kind", "min"], "x"),
    "compose-number-u": (["compose", "--a", "-", "--b", "{gbit}",
                          "--kind", "min"],
                         {"kind": "polytopic", "u": 5, "vertices": [[1]]}),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_wrong_shape_document_is_invalid_input(capsys, tmp_path, case):
    (tmp_path / "e2.json").write_text(json.dumps(E2))
    (tmp_path / "gbit.json").write_text(spaces.space_to_json(spaces.make_gbit()))
    argv, doc = WRONG_SHAPES[case]
    argv = [a.format(e2=tmp_path / "e2.json", gbit=tmp_path / "gbit.json")
            for a in argv]
    code, out, err = run_cli(capsys, argv, stdin=json.dumps(doc))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "invalid_input"


def cli_process(argv, cwd, **kwargs):
    """``python -m gptkit.cli`` with ``argv``, run from ``cwd``, its stdout
    buffered: what the command leaves in a buffer is lost unless it flushes
    before os._exit."""
    src = str(Path(gptkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.Popen([sys.executable, "-m", "gptkit.cli", *argv],
                            cwd=cwd, env=env, **kwargs)


# min tensor product of two 40-gons: 273,827 bytes of stdout, more than a
# pipe holds, so the command is still writing when its reader acts
BIG_COMPOSE = ["compose", "--a", "p40.json", "--b", "p40.json", "--kind", "min"]


@pytest.fixture
def p40(tmp_path):
    (tmp_path / "p40.json").write_text(spaces.space_to_json(polygon(40)))
    return tmp_path


def test_process_stdout_is_run_stdout(capsys, p40, monkeypatch):
    monkeypatch.chdir(p40)
    code, expected, _ = run_cli(capsys, BIG_COMPOSE)
    assert code == 0 and len(expected) > 1 << 16
    proc = cli_process(BIG_COMPOSE, p40, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err == b""
    assert out == expected.encode()
    proc = cli_process(BIG_COMPOSE + ["--output", "out.json"], p40,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.communicate(timeout=60) == (b"", b"") and proc.returncode == 0
    assert (p40 / "out.json").read_text() == expected.rstrip("\n")


@pytest.mark.parametrize("argv, code, kind", [
    (["prbox", "--variant", "7"], 1, "invalid_input"),
    (["compose", "--a", "c11.json", "--b", "c11.json", "--kind", "max"], 2,
     "scale_limit"),
], ids=["invalid", "scale"])
def test_process_exit_code_and_error_line(tmp_path, argv, code, kind):
    (tmp_path / "c11.json").write_text(
        spaces.space_to_json(spaces.make_classical(11)))
    proc = cli_process(argv, tmp_path, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == code and out == ""
    assert json.loads(err)["error"] == kind


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="needs SIGPIPE")
def test_closed_stdout_ends_the_command_by_sigpipe(p40):
    proc = cli_process(BIG_COMPOSE, p40, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    assert proc.stdout.read(5) == b'{"kin'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""
