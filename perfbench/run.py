"""covstim benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload {demo,curate,simulate_large} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it imports covstim from the
checkout's ``src`` and the simulator oracle from its ``tests``, and writes
only under ``.perfbench/`` at the checkout root.  With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run.  The last line of standard output is the result; the line
before it is the run record (environment, inputs, workload-named metrics).
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 11
# The reference set-up's time on a quiet 2-core x86-64 host (2.1 GHz),
# Python 3.11.7, numpy 2.4.6; it only sets the unit of ``setup_s``.
REFERENCE_SETUP_S = 0.075


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _setup_probe(*args: str) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median cold set-up time over several fresh interpreters, as
    (reference seconds, wall seconds).

    Each probe is followed by a reference set-up in another fresh
    interpreter, and scaled by it: the host's speed at starting programs
    drifts by up to 2x over tens of seconds, and the reference loop does
    not follow it.
    """
    scaled, walls = [], []
    for _ in range(SETUP_PROBES):
        wall = _setup_probe(workload, str(seed))
        walls.append(wall)
        scaled.append(wall / _setup_probe("reference") * REFERENCE_SETUP_S)
    return statistics.median(scaled), statistics.median(walls)


def _code_fingerprint() -> str:
    """Hash of the benchmark and program sources: same hash, same outputs."""
    h = hashlib.sha256()
    for path in sorted([*HERE.glob("*.py"), *(ROOT / "src" / "covstim").rglob("*.*")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Output digests per (code, workload, seed, input), kept across runs."""

    def __init__(self, path: Path):
        self.path = path
        self.code = _code_fingerprint()
        self.data = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, workload: str, seed: int, key: str, digest: str) -> str | None:
        slot = self.data.setdefault(f"{self.code}:{workload}:{seed}", {})
        known = slot.setdefault(key, digest)
        if known == digest:
            return None
        try:  # per-artifact digests: name the artifacts that differ
            old, new = json.loads(known), json.loads(digest)
            differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        except (ValueError, AttributeError):
            differ = [key]
        return f"output differs from an earlier run with this seed: {', '.join(differ)}"

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True))


def _run_ops(wl, count: int | None = None, seconds: float = 0.0, tracer=None):
    """Closed loop: ``count`` operations, or until ``seconds`` of busy time
    and ``wl.min_ops`` operations.  Returns (starts, walls, outputs, errors)."""
    starts, walls, outputs, errors = [], [], [], {}
    now = time.perf_counter
    busy = 0.0
    i = 0
    while (i < count) if count is not None else (busy < seconds or i < wl.min_ops):
        if tracer is not None:
            tracer.run_id = i + 1  # run 0 is set-up
        t0 = now()
        try:
            out = wl.op(i)
        except Exception as err:  # one failed operation; the run goes on
            out = None
            errors[i] = repr(err)
        wall = now() - t0
        busy += wall
        starts.append(t0)
        walls.append(wall)
        outputs.append(out)
        i += 1
    return starts, walls, outputs, errors


def _verify(wl, outputs, errors, store: DigestStore) -> tuple[list[str], list[str]]:
    """Check every operation's output; returns (digests, problem per failed op)."""
    digests, problems = [], []
    first: dict[str, str] = {}
    for i, out in enumerate(outputs):
        if i in errors:
            digests.append("")
            problems.append(f"op {i} raised {errors[i]}")
            continue
        try:
            found = wl.check(i, out)
            digest = wl.digest(i, out)
        except Exception as err:
            found, digest = [f"check raised {err!r}"], ""
        key = wl.key(i)
        if digest and first.setdefault(key, digest) != digest:
            found.append(f"input {key}: output differs from an earlier op in this run")
        elif digest:
            mismatch = store.check(wl.name, wl.seed, key, digest)
            if mismatch:
                found.append(mismatch)
        digests.append(digest)
        if found:
            problems.append(f"op {i}: " + "; ".join(found))
    return digests, problems


def run_untraced(wl, seconds: float, store: DigestStore) -> dict:
    """Times are scaled to the host's reference speed (``hostclock``); the
    workload-named metrics in the run record are in wall time."""
    setup_s, setup_wall_s = _setup_seconds(wl.name, wl.seed)
    wl.setup()
    with HostClock() as clock:
        starts, walls, outputs, errors = _run_ops(wl, seconds=seconds)
    _, problems = _verify(wl, outputs, errors, store)
    problems = wl.setup_failures + problems
    attempted = wl.setup_ops() + len(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    named = {"setup_wall_s": (setup_wall_s, "s"),
             "host_scale": (clock.median_scale(), "ratio")}
    if not problems:
        ref_walls = [clock.reference_seconds(t0, t0 + w) for t0, w in zip(starts, walls)]
        work = [wl.work(out) for out in outputs]
        metrics["work_per_s"] = (statistics.median(map(operator.truediv, work, ref_walls)), "1/s")
        named.update(wl.metrics(walls, outputs))
    named["failed_share"] = (len(problems) / attempted, "ratio")
    return {"attempted": attempted, "failed": len(problems), "problems": problems,
            "metrics": metrics, "named": named}


def run_traced(wl, seconds: float, store: DigestStore) -> dict:
    """Untraced passes for reference, then one traced pass of the same work.

    Set-up runs inside each pass, so the traced pass records it too.
    """
    import layers
    from spans import TraceError, Tracer

    n = wl.trace_ops()
    now = time.perf_counter
    untraced_walls = []
    while True:
        t0 = now()
        wl.setup()
        _, _, ref_outputs, ref_errors = _run_ops(wl, count=n)
        untraced_walls.append(now() - t0)
        if sum(untraced_walls) >= seconds / 2:
            break
    ref_digests, ref_problems = _verify(wl, ref_outputs, ref_errors, store)

    tracer = Tracer()
    try:
        layers.install(tracer)
        t0 = now()
        wl.setup()
        _, _, outputs, errors = _run_ops(wl, count=n, tracer=tracer)
        traced_wall = now() - t0
    finally:
        tracer.uninstall()
    digests, problems = _verify(wl, outputs, errors, store)
    problems = wl.setup_failures + ref_problems + problems
    if digests != ref_digests:
        problems.append("traced outputs differ from untraced outputs")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}-{wl.seed}.npz")
    try:
        metrics = layers.per_layer_metrics(wl.name, tracer)
    except TraceError as err:
        problems.append(str(err))
        metrics = {}
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced_walls), "s")
    named = {"traced_s": (traced_wall, "s"), "untraced_s": (statistics.median(untraced_walls), "s"),
             "spans": (len(tracer.start), "count")}
    attempted = wl.setup_ops() + 2 * n
    named["failed_share"] = (len(problems) / attempted, "ratio")
    return {"attempted": attempted, "failed": len(problems), "problems": problems,
            "metrics": metrics, "named": named}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("demo", "curate", "simulate_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "covstim" / "__init__.py").is_file():
        print(f"no covstim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import covstim
    if Path(covstim.__file__).resolve().parent != ROOT / "src" / "covstim":
        print(f"covstim imported from {covstim.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    load_start = _loadavg()
    workdir = OUT / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    store = DigestStore(OUT / "digests.json")
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        run = (run_traced if args.trace else run_untraced)(wl, args.seconds, store)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    store.save()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {**_environment(), "loadavg_start": load_start, "loadavg_end": _loadavg()},
        "inputs": wl.describe(),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in run["named"].items()},
        "problems": run["problems"],
    }
    print(json.dumps(record))
    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
