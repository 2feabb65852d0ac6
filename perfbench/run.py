"""End-to-end benchmark of the skeindim command line.

Run from the repository root:

    python3 perfbench/run.py --workload certify-genus --seed 0 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all            # every workload, readable summary
    python3 perfbench/run.py --record-golden           # re-record output digests

Every command runs in a fresh interpreter, one after another, because the
package memoises with unbounded caches and every real CLI run pays the
cold cost.  With --trace 0 the run repeats the workload's commands as long
as another pass is expected to end within --seconds, and reports:

  wall_s        wall time of all commands, averaged over the passes
  setup_s       median time of a fresh `python -c "import skeindim.cli"`
  peak_rss_mib  largest peak RSS (VmHWM) of any command's own process

With --trace 1 it runs the commands once untraced and once in a traced
process (see trace_child.py) and reports per-layer metrics.  Every output
is checked against its golden digest and for floating-point literals; a
command fails on a non-zero exit, a timeout, a digest mismatch or a float
literal that the golden output did not already contain.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Full records, including input properties and the environment, are written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import DEFAULT_SEED, WORKLOADS, Command, commands, family  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORK = HERE / "work" / str(os.getpid())  # per run, so runs never share files
RESULTS = HERE / "results"

SETUP_LAUNCHES = 20
RUN_LIMIT_S = 160  # no command may run past this point of a run
# Runs the CLI as `python -m skeindim.cli` would and, at exit, writes the
# process's own peak RSS (VmHWM, kB) to the file named by its first
# argument.  ru_maxrss from wait4 is no use here: a child's high-water mark
# starts at the RSS of the process that spawned it, which is this one.
BOOTSTRAP = """\
import atexit, runpy, sys
rss_path = sys.argv.pop(1)
def report():
    with open("/proc/self/status") as status, open(rss_path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(report)
runpy.run_module("skeindim.cli", run_name="__main__", alter_sys=True)
"""
FLOAT_LITERAL = re.compile(
    r"(?<![\w.])(?:\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\.\d+)(?![\w.])"
    r"|\b(?:inf|nan)\b"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SKEINDIM_OUTPUT_DIR", None)
    return env


def launch(argv: list[str], stdout_path: Path, timeout: float) -> dict:
    """Run one process to completion; wall time, exit code."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), expire)
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "timed_out": expired.is_set()}


def cli_argv(command: Command, output: Path | None, rss: Path) -> list[str]:
    argv = [sys.executable, "-c", BOOTSTRAP, str(rss), *command.args]
    if output is not None:
        argv += ["--output", str(output)]
    return argv


def output_paths(index: int, command: Command) -> tuple[Path, Path | None]:
    """(file the process stdout goes to, --output file or None), with any
    output left by an earlier pass removed."""
    stdout = WORK / f"cmd{index}.stdout"
    output = WORK / f"cmd{index}.out" if command.to_file else None
    if output is not None and output.exists():
        output.unlink()
    return stdout, output


def float_literals(text: str) -> list[str]:
    return sorted(set(FLOAT_LITERAL.findall(text)))


def item_count(command: Command, text: str) -> int:
    """Values, checks or coefficients in one output."""
    kind = command.args[0]
    if kind == "table":
        return len(text.splitlines()) - 1
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return len(payload.get("checks") or payload.get("coefficients") or [])
    if kind == "eval-curve":
        return text.split("]")[0].count(",") + 1
    return sum(line.startswith(("PASS ", "FAIL ")) for line in text.splitlines())


def check(command: Command, result: dict, golden: dict, stdout: Path,
          output: Path | None) -> dict:
    """Judge one command's outcome against its golden record."""
    problems = []
    if result["timed_out"]:
        problems.append("timeout")
    elif result["exit"] != 0:
        problems.append(f"exit {result['exit']}")
    source = output if output is not None else stdout
    data = source.read_bytes() if source.exists() else b""
    text = data.decode("utf-8", "replace")
    expected = golden.get(command.golden_key)
    digest = hashlib.sha256(data).hexdigest()
    if expected is None:
        problems.append("no golden digest")
    elif digest != expected["sha256"]:
        problems.append("digest mismatch")
    floats = float_literals(text)
    known = set(expected["float_literals"]) if expected else set()
    new_floats = [f for f in floats if f not in known]
    if new_floats:
        problems.append(f"float literal {new_floats[0]!r}")
    items = item_count(command, text) if not problems else None
    return {"args": list(command.args), "to_file": command.to_file, **result,
            "problems": problems, "known_float_literals": sorted(known & set(floats)),
            "items": items}


def run_pass(cmds: list[Command], golden: dict, deadline: float) -> list[dict]:
    records = []
    for index, command in enumerate(cmds):
        stdout, output = output_paths(index, command)
        rss = WORK / f"cmd{index}.rss"
        rss.unlink(missing_ok=True)
        result = launch(cli_argv(command, output, rss), stdout, deadline - time.monotonic())
        result["rss_mib"] = int(rss.read_text()) / 1024 if rss.exists() else None
        records.append(check(command, result, golden, stdout, output))
    return records


def measure_setup(deadline: float) -> list[float]:
    argv = [sys.executable, "-c", "import skeindim.cli"]
    sink = WORK / "setup.stdout"
    warm = launch(argv, sink, deadline - time.monotonic())  # writes bytecode caches
    if warm["exit"] != 0:
        raise BenchmarkError("importing skeindim.cli failed")
    samples = []
    for _ in range(SETUP_LAUNCHES):
        result = launch(argv, sink, deadline - time.monotonic())
        if result["exit"] != 0:
            raise BenchmarkError("importing skeindim.cli failed")
        samples.append(result["wall_s"])
    return samples


def run_traced(cmds: list[Command], golden: dict, deadline: float, tag: str) -> tuple[dict, list[dict]]:
    spec_path, result_path = WORK / "trace_spec.json", WORK / "trace_result.json"
    spans_path = RESULTS / f"{tag}-spans.csv"
    entries, outputs = [], []
    for index, command in enumerate(cmds):
        stdout, output = output_paths(index, command)
        argv = list(command.args) + (["--output", str(output)] if output else [])
        entries.append({"argv": argv, "stdout": str(stdout)})
        outputs.append((command, stdout, output))
    spec_path.write_text(json.dumps({"src": str(SRC), "commands": entries,
                                     "spans": str(spans_path)}))
    proc = launch([sys.executable, str(HERE / "trace_child.py"), str(spec_path), str(result_path)],
                  WORK / "trace.stdout", deadline - time.monotonic())
    if proc["exit"] != 0:
        raise BenchmarkError(f"traced run failed with exit {proc['exit']}")
    traced = json.loads(result_path.read_text())
    records = []
    for (command, stdout, output), code in zip(outputs, traced["exit_codes"]):
        result = {"wall_s": None, "rss_mib": None, "exit": code, "timed_out": False}
        records.append(check(command, result, golden, stdout, output))
    traced["process_wall_s"] = proc["wall_s"]
    return traced, records


def git_commit() -> str | None:
    """HEAD of the checkout's own git metadata; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    result = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or None


def environment() -> dict:
    match = re.search(r'__version__\s*=\s*"([^"]+)"', (SRC / "skeindim" / "__init__.py").read_text())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "package_version": match.group(1) if match else None, "git_commit": git_commit()}


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "skeindim" / "cli.py").is_file():
        raise BenchmarkError(f"package source not found under {SRC}")
    if not GOLDEN.is_file():
        raise BenchmarkError(f"golden digests not found at {GOLDEN}")
    golden = json.loads(GOLDEN.read_text())
    cmds = commands(workload, seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "commands": [{"args": list(c.args), "to_file": c.to_file, **c.properties}
                           for c in cmds],
              "environment": environment()}
    if trace:
        untraced = run_pass(cmds, golden, deadline)
        traced, traced_records = run_traced(cmds, golden, deadline, tag)
        records = untraced + traced_records
        wall = sum(r["wall_s"] for r in untraced)
        metrics = dict(traced["metrics"])
        metrics["trace.wall_s"] = traced["process_wall_s"]
        metrics["trace.overhead_s"] = traced["process_wall_s"] - wall
        metrics["trace.coverage"] = traced["below_cli_s"] / traced["command_s"]
        metrics["trace.spans"] = traced["spans"]
        record.update(untraced_wall_s=wall, wrapped_callables=traced["wrapped"])
    else:
        setup = measure_setup(deadline)
        passes: list[list[dict]] = []
        walls: list[float] = []
        # Start another pass only if it is expected to end within --seconds.
        while not passes or time.monotonic() - start + statistics.mean(walls) <= seconds:
            passes.append(run_pass(cmds, golden, deadline))
            walls.append(sum(r["wall_s"] for r in passes[-1]))
        records = [r for p in passes for r in p]
        # The mean, not the median: CPU speed on a shared host drifts between
        # states lasting tens of seconds, and the median of a few passes
        # jumps between states where the mean moves smoothly.
        metrics = {"wall_s": statistics.mean(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mib": max((r["rss_mib"] for r in records if r["rss_mib"]),
                                       default=0.0)}
        record.update(pass_walls_s=walls, setup_samples_s=setup)
    failed = sum(bool(r["problems"]) for r in records)
    record.update(attempted=len(records), failed=failed, fail_frac=failed / len(records),
                  metrics=metrics, records=records)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    remove_work()
    return record


def summary_lines(record: dict) -> list[str]:
    lines = [f"# {record['workload']} seed {record['seed']}: "
             + "; ".join(" ".join(c["args"]) for c in record["commands"])]
    for name, value in record["metrics"].items():
        lines.append(f"{record['workload']} {name} {value:.6g} {unit(name)}")
    lines.append(f"{record['workload']} fail_frac {record['fail_frac']:.6g} "
                 f"({record['failed']}/{record['attempted']} commands)")
    for r in record["records"]:
        if r["problems"]:
            lines.append(f"FAILED {' '.join(r['args'])}: {', '.join(r['problems'])}")
    known = sorted({f for r in record["records"] for f in r["known_float_literals"]})
    if known:
        lines.append(f"known defect: golden output already contains float literal(s) {known}")
    return lines


def result_line(record: dict) -> str:
    metrics = {name: {"value": value, "unit": unit(name)}
               for name, value in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("bits"):
        return "bits"
    if name == "trace.coverage":
        return "ratio"
    return "count"


def record_golden() -> None:
    """Digest every command any seed can draw, from the current tree.  Each
    command runs twice under different hash seeds; outputs must agree."""
    WORK.mkdir(parents=True, exist_ok=True)
    golden = {}
    for workload in WORKLOADS:
        for command in family(workload):
            digests = set()
            for hash_seed in ("1", "2"):
                stdout = WORK / "golden.stdout"
                with open(stdout, "wb") as out:
                    subprocess.run(cli_argv(command, None, WORK / "golden.rss"), stdout=out, check=True,
                                   env={**child_env(), "PYTHONHASHSEED": hash_seed}, cwd=ROOT)
                data = stdout.read_bytes()
                digests.add(hashlib.sha256(data).hexdigest())
            if len(digests) != 1:
                raise BenchmarkError(f"output of {command.golden_key!r} is not reproducible")
            golden[command.golden_key] = {"sha256": digests.pop(),
                                          "float_literals": float_literals(data.decode())}
            print(command.golden_key, golden[command.golden_key], flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    remove_work()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_golden:
            record_golden()
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(summary_lines(record)))
            print(result_line(record), flush=True)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
