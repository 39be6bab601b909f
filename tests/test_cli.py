"""Command-line behaviour: outputs, formats, exit codes, cache handling."""

import json
import os
import subprocess
import sys

import pytest

import fatrec
from fatrec.cli import SUITE_NAMES, main
from fatrec.correlators import CorrelatorCache

# The children run in a temp dir, where a relative PYTHONPATH (``src``) does
# not resolve; point them at the package these tests import.
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(fatrec.__file__)))


def cli_env(**extra):
    path = os.pathsep.join(filter(None, [SRC_ROOT, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "fatrec.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=cli_env())


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


def test_correlator_text(workdir):
    r = run_cli(["correlator", "--g", "0", "--mu", "10"], workdir)
    assert r.returncode == 0
    assert r.stdout.strip() == "21/5 * t^6"


def test_correlator_numeric_matches_symbolic(workdir):
    r = run_cli(["correlator", "--g", "0", "--mu", "10", "--t", "3/7"], workdir)
    # 21/5 * (3/7)^6 = 21 * 729 / (5 * 117649)
    assert r.stdout.strip() == "2187/84035"


def test_correlator_json(workdir):
    r = run_cli(["correlator", "--g", "0", "--mu", "4", "--format", "json"], workdir)
    data = json.loads(r.stdout)
    assert data == {"g": 0, "mu": [4], "coeff": "1/2", "t_power": 3}


def test_enumerate_details(workdir):
    r = run_cli(["enumerate", "--mu", "6", "--genus", "0", "--details"], workdir)
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 2
    coeffs = sorted(line.split()[0] for line in lines)
    assert coeffs == ["coeff=1/2", "coeff=1/3"]
    assert all("genus=0" in line and "alpha=(" in line for line in lines)


def test_verify_pass_exit_zero(workdir):
    r = run_cli(["verify", "--suite", "virasoro", "--m-max", "2",
                 "--max-weight", "4"], workdir)
    assert r.returncode == 0
    assert "status=pass" in r.stdout


def test_verify_json_report_shape(workdir):
    r = run_cli(["verify", "--suite", "virasoro", "--m-max", "0",
                 "--max-weight", "4", "--format", "json"], workdir)
    data = json.loads(r.stdout)
    assert data["suite"] == "virasoro"
    assert data["status"] == "pass"
    assert data["violations"] == []


def test_npoint_json(workdir):
    r = run_cli(["npoint", "--g", "1", "--n", "1", "--max-weight", "8",
                 "--format", "json"], workdir)
    data = json.loads(r.stdout)
    assert {"exps": [-5], "coeff": "1", "t_power": 1} in data["terms"]


def test_unknown_flag_exits_2(workdir):
    r = run_cli(["correlator", "--g", "0", "--mu", "4", "--bogus"], workdir)
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


def test_deterministic_output(workdir):
    args = ["partition", "--max-weight", "4"]
    a = run_cli(args, workdir)
    b = run_cli(args, workdir)
    assert a.stdout == b.stdout
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout.strip()


def test_cache_roundtrip_command(workdir):
    run_cli(["correlator", "--g", "0", "--mu", "4"], workdir)
    r = run_cli(["cache"], workdir)
    assert r.returncode == 0
    assert "status=pass" in r.stdout
    with open(os.path.join(workdir, "fatrec-cache.json")) as fh:
        data = json.load(fh)
    assert data["version"] == 1
    assert {"g": 0, "mu": [4], "t_power": 3, "coeff": "1/2"} in data["entries"]


def test_cache_corrupted_exit_1(workdir):
    with open(os.path.join(workdir, "fatrec-cache.json"), "w") as fh:
        fh.write("{broken")
    r = run_cli(["correlator", "--g", "0", "--mu", "4"], workdir)
    assert r.returncode == 1
    assert r.stderr.startswith("error: cannot read cache ")


def test_cache_version_mismatch_exit_1(workdir):
    with open(os.path.join(workdir, "fatrec-cache.json"), "w") as fh:
        json.dump({"version": 99, "entries": []}, fh)
    r = run_cli(["cache"], workdir)
    assert r.returncode == 1
    assert r.stderr.startswith("error: cache version mismatch ")


def test_no_cache_writes_nothing(workdir):
    r = run_cli(["correlator", "--g", "0", "--mu", "4", "--no-cache"], workdir)
    assert r.returncode == 0
    assert not os.path.exists(os.path.join(workdir, "fatrec-cache.json"))


def test_cache_env_override(workdir, monkeypatch):
    env = cli_env(FATREC_CACHE=os.path.join(workdir, "alt.json"))
    r = subprocess.run([sys.executable, "-m", "fatrec.cli", "correlator",
                        "--g", "0", "--mu", "4"], capture_output=True, text=True,
                       cwd=workdir, env=env)
    assert r.returncode == 0
    assert os.path.exists(os.path.join(workdir, "alt.json"))


def test_main_callable_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["correlator", "--g", "1", "--mu", "6", "--no-cache"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "5/3 * t^2"


def test_paranoid_flag_runs(workdir):
    run_cli(["correlator", "--g", "0", "--mu", "6"], workdir)
    r = run_cli(["correlator", "--g", "0", "--mu", "6", "--paranoid"], workdir)
    assert r.returncode == 0
    assert r.stdout.strip() == "5/6 * t^4"


def test_bad_valence_one_line_exit_2(workdir):
    r = run_cli(["correlator", "--g", "0", "--mu", "0,2"], workdir)
    assert r.returncode == 2
    assert r.stderr == "error: valences must be positive (or the single (0))\n"
    assert r.stdout == ""


@pytest.mark.parametrize("route", ["recursion", "correlators"])
def test_npoint_without_variables_one_line_exit_2(workdir, route):
    r = run_cli(["npoint", "--g", "0", "--n", "0", "--max-weight", "7",
                 "--route", route, "--no-cache"], workdir)
    assert r.returncode == 2
    assert r.stderr == "error: invalid key\n"
    assert r.stdout == ""


def test_deep_correlator_exits_0(workdir):
    r = run_cli(["correlator", "--g", "0", "--mu", "2000", "--no-cache"], workdir)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().endswith(" * t^1001")


def test_paranoid_mismatch_one_line_exit_1(workdir):
    path = os.path.join(workdir, "fatrec-cache.json")
    poisoned = '{"version":1,"entries":[{"coeff":"3/4","g":0,"mu":[4],"t_power":3}]}'
    with open(path, "w") as fh:
        fh.write(poisoned)
    r = run_cli(["correlator", "--g", "0", "--mu", "4", "--paranoid"], workdir)
    assert r.returncode == 1
    assert r.stderr == "error: cache mismatch at (0, (4,))\n"
    assert r.stdout == ""
    with open(path) as fh:
        assert fh.read() == poisoned


def test_warm_repeat_leaves_cache_file_untouched(workdir):
    path = os.path.join(workdir, "fatrec-cache.json")
    assert run_cli(["correlator", "--g", "1", "--mu", "6,2"], workdir).returncode == 0
    os.utime(path, ns=(10 ** 9, 10 ** 9))  # a rewrite would move the mtime
    with open(path, "rb") as fh:
        before = fh.read()
    for args in (["correlator", "--g", "1", "--mu", "6,2"],
                 ["correlator", "--g", "1", "--mu", "2,6", "--format", "json"],
                 ["correlator", "--g", "1", "--mu", "4"]):  # a cell of the first run
        r = run_cli(args, workdir)
        assert r.returncode == 0 and r.stderr == ""
        assert os.stat(path).st_mtime_ns == 10 ** 9
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert sorted(os.listdir(workdir)) == ["fatrec-cache.json"]


def test_cold_request_still_writes_its_cells(workdir):
    path = os.path.join(workdir, "fatrec-cache.json")
    run_cli(["correlator", "--g", "0", "--mu", "4"], workdir)
    os.utime(path, ns=(10 ** 9, 10 ** 9))
    r = run_cli(["correlator", "--g", "1", "--mu", "8"], workdir)
    assert r.returncode == 0
    assert os.stat(path).st_mtime_ns != 10 ** 9
    with open(path) as fh:
        entries = json.load(fh)["entries"]
    assert {"g": 1, "mu": [8], "t_power": 3, "coeff": "35/4"} in entries
    assert {"g": 0, "mu": [4], "t_power": 3, "coeff": "1/2"} in entries
    assert sorted(os.listdir(workdir)) == ["fatrec-cache.json"]


def test_fresh_run_without_cells_writes_an_empty_cache(workdir):
    r = run_cli(["enumerate", "--mu", "4", "--genus", "0"], workdir)
    assert r.returncode == 0
    with open(os.path.join(workdir, "fatrec-cache.json")) as fh:
        assert fh.read() == '{"entries":[],"version":1}'


@pytest.mark.parametrize("no_cache", [False, True])
def test_cache_command_loads_the_file_twice(tmp_path, capsys, monkeypatch, no_cache):
    monkeypatch.chdir(tmp_path)
    assert main(["correlator", "--g", "1", "--mu", "4"]) == 0
    capsys.readouterr()
    loads = []
    load = CorrelatorCache.load

    def counted(self):
        loads.append(self.path)
        return load(self)

    monkeypatch.setattr(CorrelatorCache, "load", counted)
    assert main(["cache"] + ["--no-cache"] * no_cache) == 0
    path = "./fatrec-cache.json"
    assert loads == [path, path]
    assert capsys.readouterr().out == f"cache path={path} entries=3 status=pass\n"


def test_cache_cell_of_another_value_is_an_error(tmp_path, capsys, monkeypatch):
    # Another process writes C_1(4) + 1 between this run's load and save.
    from fatrec import cli
    path = str(tmp_path / "c.json")
    assert main(["correlator", "--g", "1", "--mu", "4", "--no-cache"]) == 0
    answer = capsys.readouterr().out
    run = cli._cmd_correlator

    def run_then_write(args, cache):
        code = run(args, cache)
        other = CorrelatorCache(path)
        other.table[(1, (4,))] = cache.table[(1, (4,))] + 1
        other.save()
        return code
    monkeypatch.setattr(cli, "_cmd_correlator", run_then_write)
    assert main(["correlator", "--g", "1", "--mu", "4", "--cache-path", path]) == 1
    out, err = capsys.readouterr()
    assert out == answer
    assert err.startswith("error: ") and "another value" in err
    assert err.count("\n") == 1
    other = CorrelatorCache(path)
    other.load()
    assert list(other.table) == [(1, (4,))]  # the other process's file, untouched
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


def test_concurrent_processes_all_save_their_cells(tmp_path):
    # Five processes that finish together on one cache file: each waits for
    # the lock, so none drops its cell or warns.
    path = str(tmp_path / "c.json")
    sizes = (10, 12, 14, 16, 18)  # more processes than cores
    procs = [subprocess.Popen(
        [sys.executable, "-m", "fatrec.cli", "correlator", "--g", "0",
         "--mu", str(m), "--cache-path", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path, env=cli_env()) for m in sizes]
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")
    cache = CorrelatorCache(path)
    cache.load()
    assert {(0, (m,)) for m in sizes} <= set(cache.table)
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


# bounds that leave a suite nothing to check
@pytest.mark.parametrize("args", [
    ["--suite", "oracle", "--max-weight", "-2"],
    ["--suite", "virasoro", "--m-max", "-3"],
    ["--suite", "commutators", "--m-max", "-2"],
    ["--suite", "heisenberg", "--m-max", "-1"],
    ["--suite", "cutjoin", "--max-weight", "-1"],
    ["--suite", "abstract-rec", "--max-weight", "-2"],
    ["--suite", "abstract-rec", "--max-parts", "0"],
    ["--suite", "virasoro", "--max-weight", "0"],
    ["--suite", "npoint", "--max-order", "1"],
])
def test_vacuous_suite_one_line_exit_2(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    assert main(["verify"] + args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_suite_choices_are_the_names_run_suite_accepts():
    from fatrec import suites
    assert len(set(SUITE_NAMES)) == len(SUITE_NAMES)
    assert set(SUITE_NAMES) == set(suites._RUNNERS)
    with pytest.raises(ValueError, match="unknown suite"):
        suites.run_suite("bogus")


# what any fatrec subcommand loads
BASE_MODULES = ["fatrec", "fatrec.cli", "fatrec.correlators", "fatrec.exact"]


def modules_loaded_by(code):
    """The fatrec and dataclasses modules a fresh interpreter holds after ``code``."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code +
             "\nprint(' '.join(sorted(m for m in set(sys.modules) - before"
             " if m.split('.')[0] in ('fatrec', 'dataclasses'))))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                       text=True, env=cli_env())
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


def test_import_fatrec_loads_no_submodule():
    assert modules_loaded_by("import fatrec") == ["fatrec"]


def test_suite_names_load_no_suite_module():
    code = "import fatrec.cli\nassert 'oracle' in fatrec.cli.SUITE_NAMES"
    assert modules_loaded_by(code) == BASE_MODULES


@pytest.mark.parametrize("argv, extra", [
    (["correlator", "--g", "1", "--mu", "6"], []),
    (["enumerate", "--mu", "4,4"], ["dataclasses", "fatrec.graphsum", "fatrec.ribbon"]),
])
def test_run_loads_only_its_modules(tmp_path, argv, extra):
    argv = argv + ["--cache-path", str(tmp_path / "c.json")]
    code = ("import contextlib, io\nfrom fatrec import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0")
    assert modules_loaded_by(code) == sorted(BASE_MODULES + extra)
