#!/usr/bin/env python3
"""End-to-end and traced benchmark of the chimptrack CLI pipeline.

    python3 perfbench/run.py --workload medium --seed 9 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` runs the workload's CLI commands as subprocesses
(``python -m chimptrack.cli ...``), one at a time, repeating the pipeline
until ``--seconds`` have passed and at least ``MIN_PIPELINES`` pipelines have
run, and reports the end-to-end metrics. Each pipeline is preceded by one
fresh ``import chimptrack.cli``, so set-up and pipeline times are sampled in
the same window.
``--trace 1`` makes one traced run instead: the pipeline once as subprocesses
(per-command wall and CPU time), once in process untraced and once in process
traced, and reports the per-layer metrics.

Every command's outputs are checked and their sha256 digests printed. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. If the program cannot be imported
the benchmark exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import traced
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # work files, digest records and trace dumps

SETUP_REPEATS = 5  # fresh imports timed by the traced run
MOTA_TOL = 1e-9

# Headline scores that must lie in [0, 100] or be null. MOTA is left out
# because it has no lower bound; it is checked against its decomposition.
HEADLINE = {
    "tracking": ("hota", "deta", "assa", "motp", "idf1"),
    "detection": ("ap", "ap50", "ap75", "ap_medium", "ap_large", "ar"),
    "behavior": ("map", "map_locomotion", "map_object", "map_social", "map_others"),
    "pose": ("ap", "ap50", "ap75", "ap_medium", "ap_large", "ar", "pck05", "pck10"),
}


class SetupError(RuntimeError):
    """The program under test cannot be started; no result is printed."""


@dataclass
class Op:
    """One CLI command as run: timings, failures and output digests."""

    kind: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


# --- processes ---


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["CHIMPTRACK_NO_COLOR"] = "1"
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, user+sys s, max RSS MB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def time_import(logs: Path, i: int) -> float:
    """Wall time of a fresh `import chimptrack.cli`."""
    log = logs / f"import-{i}.log"
    code, wall, _, _ = spawn([sys.executable, "-c", "import chimptrack.cli"], log)
    if code != 0:
        raise SetupError(f"`import chimptrack.cli` exited {code}: {_tail(log)}")
    return wall


def _tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


# --- output checks ---


def check_sidecar(path: Path) -> list[str]:
    """MOTA decomposition and score ranges of an evaluate metrics sidecar."""
    try:
        doc = json.loads(path.read_text())
        reports = [*doc["sequences"].values(), doc["aggregate"]]
        errors = []
        for rep in reports:
            sid = rep["sequence_id"]
            tracking = rep.get("tracking")
            if tracking and tracking["mota"] is not None:
                expected = 100.0 - tracking["n_fp"] - tracking["n_fn"] - tracking["n_ids"]
                if abs(tracking["mota"] - expected) > MOTA_TOL:
                    errors.append(f"{path.name} {sid}: mota {tracking['mota']} != 100 - nFP - nFN - nIDs = {expected}")
                if tracking["mota"] > 100.0:
                    errors.append(f"{path.name} {sid}: mota {tracking['mota']} above 100")
            for section, keys in HEADLINE.items():
                block = rep.get(section)
                if not block:
                    continue
                values = [(k, block[k]) for k in keys]
                if section == "behavior":
                    values += [(f"per_class[{i}]", v) for i, v in enumerate(block["per_class"])]
                for key, value in values:
                    if value is not None and not 0.0 <= value <= 100.0:
                        errors.append(f"{path.name} {sid}: {section}.{key} = {value} outside [0, 100]")
        return errors
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{path.name}: unreadable sidecar ({type(exc).__name__}: {exc})"]


def check_outputs(cmd: workloads.Command, work: Path) -> tuple[list[str], dict[str, str]]:
    """Errors in a finished command's outputs, and the sha256 of each output."""
    errors, digests = [], {}
    for path in cmd.outputs:
        if not path.is_file():
            errors.append(f"missing output {path.relative_to(work)}")
            continue
        digests[str(path.relative_to(work))] = hashlib.sha256(path.read_bytes()).hexdigest()
    if cmd.sidecar is not None and cmd.sidecar.is_file():
        errors += check_sidecar(cmd.sidecar)
    return errors, digests


class Ledger:
    """Output digests of every run of one seed and one source tree.

    Outputs must be byte-identical across repetitions in a run and across
    runs; the record is keyed by a digest of the sources, so a change to the
    program starts a fresh record instead of failing.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known: dict[str, str] = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, digests: dict[str, str]) -> list[str]:
        return [
            f"{name}: sha256 {digest[:12]} differs from {self.known[name][:12]} in an earlier run of this seed"
            for name, digest in digests.items()
            if self.known.setdefault(name, digest) != digest
        ]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.known, indent=2, sort_keys=True) + "\n")


def _finish(op: Op, cmd: workloads.Command, work: Path, ledger: Ledger) -> Op:
    errors, op.digests = check_outputs(cmd, work)
    op.errors += errors
    if not op.errors:
        op.errors += ledger.check(op.digests)
    return op


# --- passes over a pipeline ---


def run_subprocess_pipeline(cmds, work: Path, logs: Path, ledger: Ledger, rep: int) -> list[Op]:
    ops = []
    for i, cmd in enumerate(cmds):
        log = logs / f"rep{rep}-{i}-{cmd.kind}.log"
        code, wall, cpu, rss = spawn([sys.executable, "-m", "chimptrack.cli", *cmd.argv], log)
        op = Op(cmd.kind, wall, cpu, rss)
        if code != 0:
            op.errors.append(f"{cmd.kind} exited {code}: {_tail(log)}")
        ops.append(_finish(op, cmd, work, ledger))
    return ops


def _call_main(argv: list[str]) -> int:
    from chimptrack import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not an aborted benchmark
        traceback.print_exc()
        return 1


def run_in_process_pipeline(cmds, work: Path, ledger: Ledger, tracer: traced.Tracer | None) -> list[Op]:
    ops = []
    for i, cmd in enumerate(cmds):
        captured = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(captured), redirect_stderr(captured):
            if tracer is None:
                code = _call_main(list(cmd.argv))
            else:
                with tracer.request(i, f"cli.{cmd.kind}"):
                    code = _call_main(list(cmd.argv))
        op = Op(cmd.kind, time.perf_counter() - start)
        if code != 0:
            tail = " | ".join(captured.getvalue().strip().splitlines()[-5:])
            op.errors.append(f"{cmd.kind} (in process) exited {code}: {tail}")
        ops.append(_finish(op, cmd, work, ledger))
    return ops


# --- reporting ---


def environment(source: str) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": source,
    }


def source_digest() -> str:
    """sha256 over the program sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted([*SRC.rglob("*.py"), *SRC.rglob("*.json"), *Path(__file__).parent.glob("*.py")])
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def print_metric(name: str, value: float, unit: str, samples: list[float] | None = None) -> None:
    extra = f"  (median of n={len(samples)}, max {max(samples)!r})" if samples else ""
    print(f"metric {name} {value!r} {unit}{extra}")


def print_ops(label: str, ops: list[Op]) -> None:
    parts = ", ".join(f"{op.kind} {op.wall_s:.3f} s" for op in ops)
    print(f"{label}: {parts}; total {sum(op.wall_s for op in ops):.3f} s")
    for op in ops:
        for error in op.errors:
            print(f"  FAIL {op.kind}: {error}")


def print_digests(ops: list[Op]) -> None:
    for op in ops:
        for name, digest in sorted(op.digests.items()):
            print(f"sha256 {digest} {name}")


def result(ops: list[Op], metrics: dict[str, tuple[float, str]]) -> dict:
    failed = sum(1 for op in ops if op.errors)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# --- the two modes ---


def end_to_end(workload, seed: int, seconds: float, tiny: bool, dirs: dict[str, Path], ledger: Ledger) -> dict:
    cmds = workloads.commands(workload, dirs["work"], seed, tiny)
    min_pipelines = 2 if tiny else workloads.MIN_PIPELINES
    imports: list[float] = []
    all_ops: list[Op] = []
    pipelines = []
    start = time.perf_counter()
    while len(pipelines) < min_pipelines or time.perf_counter() - start < seconds:
        imports.append(time_import(dirs["logs"], len(pipelines)))
        ops = run_subprocess_pipeline(cmds, dirs["work"], dirs["logs"], ledger, len(pipelines))
        print_ops(f"pipeline {len(pipelines) + 1}", ops)
        all_ops += ops
        pipelines.append(ops)
    print(f"measured {len(pipelines)} pipelines in {time.perf_counter() - start:.3f} s")
    print_digests(pipelines[0])

    walls = [sum(op.wall_s for op in ops) for ops in pipelines]
    pipeline_s = statistics.median(walls)
    values = {
        "setup_s": statistics.median(imports),
        "pipeline_s": pipeline_s,
        "frames_per_s": workloads.sequence_frames(workload, tiny) / pipeline_s,
        "peak_rss_mb": max(op.rss_mb for op in all_ops),
    }
    samples = {"setup_s": imports, "pipeline_s": walls}
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in workloads.spec()["end_to_end"]}
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit, samples.get(name))
    for kind in workloads.KINDS:
        times = [op.wall_s for op in all_ops if op.kind == kind]
        if times:
            print_metric(f"{kind}_s", statistics.median(times), "s", times)
    failed = sum(1 for op in all_ops if op.errors)
    print_metric("error_rate", failed / len(all_ops), "ratio")
    return result(all_ops, metrics)


def traced_run(workload, seed: int, tiny: bool, dirs: dict[str, Path], ledger: Ledger) -> dict:
    repeats = 2 if tiny else SETUP_REPEATS
    imports = [time_import(dirs["logs"], i) for i in range(repeats)]
    bare = [spawn([sys.executable, "-c", "pass"], dirs["logs"] / f"bare-{i}.log")[1] for i in range(repeats)]
    cmds = workloads.commands(workload, dirs["work"], seed, tiny)
    sub = run_subprocess_pipeline(cmds, dirs["work"], dirs["logs"], ledger, 0)
    print_ops("subprocess", sub)
    print_digests(sub)
    import chimptrack.cli  # noqa: F401  imported before the in-process passes are timed

    plain = run_in_process_pipeline(cmds, dirs["work"], ledger, None)
    print_ops("in process, untraced", plain)
    tracer = traced.Tracer()
    with tracer.installed():
        with_trace = run_in_process_pipeline(cmds, dirs["work"], ledger, tracer)
    print_ops("in process, traced", with_trace)

    dump = STATE / f"trace-{workload.name}.json"
    dump.write_text(json.dumps(tracer.dump()) + "\n")
    print(f"spans and counts written to {dump.relative_to(ROOT)}")
    total, own, calls = tracer.summary()
    for name in sorted(total):
        print(f"span {name}: calls {calls[name]}, total {total[name]:.6f} s, self {own[name]:.6f} s")

    measured = {
        "cli.import_s": statistics.median(imports) - statistics.median(bare),
        "cli.cpu_per_wall": sum(op.cpu_s for op in sub) / sum(op.wall_s for op in sub),
        "trace.overhead_s": sum(op.wall_s for op in with_trace) - sum(op.wall_s for op in plain),
        **{f"{kind}_s": 0.0 for kind in workloads.KINDS},
        **{f"{op.kind}_s": op.wall_s for op in sub},
    }
    values = traced.layer_metrics(tracer, measured)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in workloads.spec()["per_layer"]}
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    return result(sub + plain + with_trace, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=float(workloads.spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale (2 agents x 20 frames, 10-frame clip)")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if not (SRC / "chimptrack" / "cli.py").is_file():
        print(f"perfbench: {SRC.relative_to(ROOT)}/chimptrack/cli.py not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scale = "tiny" if args.tiny else "full"
    dirs = {"work": STATE / "work" / workload.name, "logs": STATE / "logs" / workload.name}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    source = source_digest()
    ledger = Ledger(STATE / "digests" / f"{workload.name}-{scale}-seed{args.seed}-{source[:16]}.json")

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} scale={scale}")
    print("environment " + json.dumps(environment(source), sort_keys=True))
    print(f"why: {workload.why}")
    print(f"inputs at full scale: {workload.inputs}")
    print(f"exercises: {', '.join(workload.exercises)}; bypasses: {', '.join(workload.bypasses)}")
    try:
        start = time.perf_counter()
        generated = workloads.prepare(workload, dirs["work"], args.seed, args.tiny)
        print(f"generated {len(generated)} input files in {time.perf_counter() - start:.3f} s (untimed)")
        inputs = {
            f"input:{path.relative_to(dirs['work'])}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in generated
        }
        for name, digest in inputs.items():
            print(f"sha256 {digest} {name}")
        errors = ledger.check(inputs)
        if errors:
            raise SetupError("generated inputs are not reproducible: " + "; ".join(errors))
        if args.trace:
            out = traced_run(workload, args.seed, args.tiny, dirs, ledger)
        else:
            out = end_to_end(workload, args.seed, args.seconds, args.tiny, dirs, ledger)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    ledger.save()
    shutil.rmtree(dirs["work"], ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
