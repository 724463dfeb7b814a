import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gptkit
from gptkit import bell, cli, spaces

from .conftest import polygon

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
# became StateSpaces given by inequalities; the output must not move
PINNED_STDOUT = {
    "c3-pentagon-max":
        "f47284a09b85169d610a00c363904ce30d845112e86493efa8c9239c316cae58",
    "c3-pentagon-max-vertices":
        "206ac618639c36954f0f37b16dcfccc914054891d8a1037123baad410b8aaa02",
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
}


@pytest.mark.parametrize("case", sorted(PINNED_STDOUT))
def test_stdout_pinned(capsys, tmp_path, case):
    if case == "nspolytope-json":
        argv = ["nspolytope", "--format", "json"]
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
