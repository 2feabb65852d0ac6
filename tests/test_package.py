"""The package surface and what a launch imports.

`import skeindim` resolves its public names lazily, and each CLI command
imports only the modules it runs; the launch tests check both in fresh
interpreters, where nothing is loaded yet.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skeindim
from skeindim import certify, cli, errors, suites, verlinde
from skeindim.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# ----------------------------------------------------------- package surface


@pytest.mark.parametrize("name", skeindim.__all__)
def test_public_name_is_the_object_of_its_home_module(name):
    home = importlib.import_module(f"skeindim.{skeindim._EXPORTS[name]}")
    assert getattr(skeindim, name) is getattr(home, name)


def test_all_is_listed_by_dir_and_bound_by_star_import():
    assert set(skeindim.__all__) <= set(dir(skeindim))
    namespace: dict = {}
    exec("from skeindim import *", namespace)
    for name in skeindim.__all__:
        assert namespace[name] is getattr(skeindim, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        skeindim.no_such_name
    assert not hasattr(skeindim, "no_such_name")


def test_the_value_matrix_rank_engine_left_the_package():
    # the certificate reads its ranks off proven exact degrees; the value
    # matrix and its rank live on only in the test oracle `rank_oracle`
    for name in ("phi_rank", "rank", "WITNESS_PRIMES", "RANK_COLUMN_SLACK"):
        assert not hasattr(certify, name)
    assert not hasattr(skeindim, "phi_rank")


def test_suite_names_match_the_suites():
    assert cli.SUITE_NAMES == tuple(suites.SUITES)


def test_absolute_imports_are_standard_library():
    # the package has no runtime dependencies, however much the test
    # environment has installed
    names = set()
    for path in (SRC / "skeindim").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    assert "fractions" in names
    assert {name for name in names if name.split(".")[0] not in sys.stdlib_module_names} == set()


# (exception, the module that raises it, base class, exit code)
MOVED_ERRORS = [
    ("FaulhaberInconsistency", "bernoulli", ArithmeticError, 1),
    ("IntegralityError", "verlinde", ArithmeticError, 1),
    ("StructureViolation", "verlinde", ValueError, 1),
    ("VanishingDenominator", "skein", ZeroDivisionError, 2),
]


@pytest.mark.parametrize("name, module, base, code", MOVED_ERRORS,
                         ids=[case[0] for case in MOVED_ERRORS])
def test_moved_error_keeps_base_and_exit_code(monkeypatch, capsys, name, module, base, code):
    error = getattr(errors, name)
    assert getattr(importlib.import_module(f"skeindim.{module}"), name) is error
    assert error.__bases__ == (base,)

    def planted(g, p, m):
        raise error(f"planted {name}")

    monkeypatch.setattr(verlinde, "dimension", planted)
    assert main(["dim", "--genus", "2", "--p", "7", "--color", "3"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": f"planted {name}"}) + "\n"


# ------------------------------------------------------------------ launches


def launch(code: str, *argv: str, **kwargs) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env, **kwargs)


# Runs one command, then reports on stderr which package modules were
# loaded and whether dataclasses was.
PROBE = """\
import json, sys
{setup}
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("skeindim."))
print(json.dumps([loaded, "dataclasses" in sys.modules]), file=sys.stderr)
"""
RUN_MAIN = "from skeindim.cli import main\ncode = main(sys.argv[1:])"


def loaded_modules(setup: str, *argv: str) -> tuple[set[str], bool]:
    proc = launch(PROBE.format(setup=setup), *argv,
                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    loaded, dataclasses = json.loads(err.splitlines()[-1])
    return set(loaded), dataclasses


BASE = {"cli", "errors"}
VERLINDE = BASE | {"verlinde", "exact"}
CERTIFY = VERLINDE | {"bernoulli", "cyclotomic", "skein", "certify"}
# (test id, argv, the package modules it loads)
COMMAND_LOADS = [
    ("dim", ["dim", "--genus", "2", "--p", "7", "--color", "3"], VERLINDE),
    ("poly", ["poly", "--genus", "2"], VERLINDE),
    ("decompose", ["decompose", "--genus", "2"], VERLINDE),
    ("table", ["table", "--genus", "1:2", "--p", "3:7", "--color", "0:3"], VERLINDE),
    ("bernoulli", ["bernoulli", "--max-index", "4"], BASE | {"bernoulli", "exact"}),
    ("eval-curve", ["eval-curve", "--genus", "2", "--p", "7", "--color", "2"],
     BASE | {"exact", "cyclotomic", "skein"}),
    ("eval-curve-odd", ["eval-curve", "--genus", "2", "--p", "7", "--color", "3"],
     BASE | {"exact", "cyclotomic", "skein"}),
    ("verify", ["verify", "--suite", "bernoulli"], CERTIFY | {"suites"}),
    ("certify", ["certify", "--genus", "2"], CERTIFY),
]


def test_import_skeindim_loads_no_submodule():
    assert loaded_modules("import skeindim") == (set(), False)


def test_import_cli_loads_only_cli_and_errors():
    assert loaded_modules("import skeindim.cli") == (BASE, False)


DIM = ("dim", "--genus", "2", "--p", "7", "--color", "3")


@pytest.mark.parametrize(
    "setup, argv, loads_json",
    [("import skeindim.cli", (), False), (RUN_MAIN, DIM, False),
     (RUN_MAIN, ("poly", "--genus", "2", "--format", "json"), True)],
    ids=["import", "text-command", "json-command"],
)
def test_cli_loads_json_only_for_json_output(setup, argv, loads_json):
    # PROBE itself imports json, so this launch reports without it
    code = f"import sys\n{setup}\nprint('json' in sys.modules, file=sys.stderr)"
    proc = launch(code, *argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert err.splitlines()[-1] == str(loads_json)


@pytest.mark.parametrize("argv, expected", [case[1:] for case in COMMAND_LOADS],
                         ids=[case[0] for case in COMMAND_LOADS])
def test_command_loads_only_what_it_runs(argv, expected):
    loaded, dataclasses = loaded_modules(RUN_MAIN, *argv)
    assert loaded == expected
    # the check records are named tuples, so no command needs dataclasses
    assert not dataclasses


def test_closed_pipe_exits_quietly_with_the_command_code():
    # 290,568 bytes, more than a pipe holds, so the write after the
    # reader closes fails every time
    proc = launch("from skeindim.cli import main; raise SystemExit(main())",
                  "table", "--genus", "1:6", "--p", "3:99", "--color", "0:97",
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"genus,p,color,dimension\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_closed_pipe_keeps_a_failed_verify_exit_code(monkeypatch):
    failed = [certify.CheckResult("planted", False, "planted failure")]
    monkeypatch.setattr(suites, "run_suite", lambda name: failed)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["verify", "--suite", "bernoulli"]) == 1


def test_closed_pipe_stops_the_table(monkeypatch, capsys):
    # the table streams one level at a time, so once the reader is gone no
    # further level is computed
    levels = []
    real = verlinde._level_dimensions

    def counted(g, p, colors, poly):
        levels.append(p)
        return real(g, p, colors, poly)

    monkeypatch.setattr(verlinde, "_level_dimensions", counted)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        # 500 levels of up to 31 rows, 266 kB in all
        assert main(["table", "--genus", "2", "--p", "3:1001", "--color", "0:30"]) == 0
    assert capsys.readouterr().err == ""
    assert 0 < len(levels) < 50


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_stdout_write_error_is_usage_error():
    with open("/dev/full", "w") as full:
        proc = launch("from skeindim.cli import main; raise SystemExit(main())",
                      "dim", "--genus", "1", "--p", "5", "--color", "0",
                      stdout=full, stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    # one JSON line, and no "Exception ignored" from the flush at shutdown
    [line] = err.splitlines()
    assert json.loads(line)["error"].startswith("cannot write output: ")


# Runs one command and, at exit, reports the process's own peak RSS
# (VmHWM, kB) on stderr, as perfbench's bootstrap does.
PEAK_PROBE = """\
import atexit, sys
def report():
    with open("/proc/self/status") as status:
        print(next(line for line in status if line.startswith("VmHWM:")).split()[1],
              file=sys.stderr)
atexit.register(report)
from skeindim.cli import main
raise SystemExit(main())
"""


def peak_rss_kib(*argv: str) -> int:
    proc = launch(PEAK_PROBE, *argv,
                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return int(err.split()[-1])


def has_peak_rss() -> bool:
    try:
        with open("/proc/self/status") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


@pytest.mark.skipif(not has_peak_rss(), reason="no VmHWM in /proc/self/status")
def test_table_memory_does_not_grow_with_the_row_count():
    small = peak_rss_kib("table", "--genus", "1:2", "--p", "3:9", "--color", "0:7")
    # 241,201 rows
    large = peak_rss_kib("table", "--genus", "1:6", "--p", "3:401", "--color", "0:399")
    assert abs(large - small) < 4 * 1024, (small, large)


@pytest.mark.skipif(not has_peak_rss(), reason="no VmHWM in /proc/self/status")
def test_certificate_memory_holds_one_genus():
    # a certificate holds one genus at a time: its own record, let go
    # before the crosscheck builds each genus 1..g in turn
    small = peak_rss_kib("certify", "--genus", "20", "--format", "text")
    large = peak_rss_kib("certify", "--genus", "60", "--format", "text")
    assert large - small < 6 * 1024, (small, large)
