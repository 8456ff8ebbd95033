#!/usr/bin/env python3
"""Cold-process benchmark of the ``pstwalk export`` command line.

Every target of a workload runs ``pstwalk export`` in a fresh interpreter,
one at a time: a single client in a closed loop.  That is what a user of the
command line pays -- a cold start with every ``lru_cache`` empty and nothing
carried from one target to the next.  Every target's outputs are compared
with the goldens in ``goldens.json``.

    python3 perfbench/run.py --workload charsum-cayley --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 1   # one table, every workload
    python3 perfbench/run.py --record-goldens             # rewrite goldens.json

``--trace 0`` repeats whole passes over the workload until ``--seconds`` have
been measured (a pass is never cut short), runs a short target again within a
pass until it has run ``MIN_TARGET_S``, and reports the end-to-end metrics of
``BENCHMARK.json`` from each target's median.  ``--trace 1`` runs each target twice, untraced and
then under the outside-in tracer of ``tracer.py``, whatever ``--seconds``
says, and reports the per-layer metrics with the tracing overhead.  A readable summary goes to stderr, the
last line of stdout is one JSON object, and run records and raw spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from tracer import NUMPY_TARGETS, TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "pstwalk"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"
SPEC = ROOT / "BENCHMARK.json"

# Pinned for every child and printed with each run: one BLAS/OpenMP thread,
# so the dense eigensolves of explicit-crosscheck do not depend on how many
# cores happen to be free, and one hash seed, so set and dict order is the same
# in every child.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# A run must exit within 180 s: no pass starts that would not end before
# this, and a child still running at it is killed.
RUN_LIMIT_S = 170.0

# Within a pass a target runs again until it has run this long: a sub-second
# target is then a median of several spawns, not one sample of the host's
# speed, which here swings by a quarter from one second to the next.
MIN_TARGET_S = 1.0

BRUTE = ("--brute-force-bound", "2100")


def _target(family: str, q: int, *extra: str) -> tuple[str, ...]:
    return ("--family", family, "--q", str(q), *extra)


WORKLOADS = {
    # Every group order is above 10 000, so no explicit graph is built: the
    # character-sum path alone (class_rep, classify, char_value, class_sum and
    # cyclotomic reduction).  gl/gu make many small reductions, sl 23 a few
    # huge ones (root order 12 144).  The gl and gu slots each have a pool of
    # primes {19, 23} and every member runs on every seed, in an order the
    # seed draws: drawing one member per slot from the seed would move wall_s
    # by a third from seed to seed.  A gain tied to one q shows on that target
    # alone.
    "charsum-cayley": [
        _target("gl", 19),
        _target("gl", 23),
        _target("gu", 19),
        _target("gu", 23),
        _target("gl", 25),
        _target("sl", 23),
    ],
    # Every target enumerates its group, builds the graph and simulates the
    # walk; the exact spectrum costs milliseconds, so enumeration, adjacency,
    # components and dense eigendecomposition carry the run.  orbital 3 keeps
    # the double-coset pipeline (coset space, Gamma graph, orbital_spectrum
    # three times) under measurement.
    "explicit-crosscheck": [
        _target("gl", 3, *BRUTE),
        _target("gl", 3, "--variant", "small-orders", *BRUTE),
        _target("gu", 3, *BRUTE),
        _target("sl", 5, *BRUTE),
        _target("gl", 5, *BRUTE),
        _target("gu", 5, *BRUTE),
        _target("sl", 11, *BRUTE),
        _target("gl", 7, *BRUTE),
        _target("orbital", 3, *BRUTE),
    ],
}

CERTIFICATE_FIELDS = ("ok", "residue", "gap", "time", "connected")
ARTIFACTS = ("report.json", "spectrum.csv", "graph.edges")


class Refusal(Exception):
    """The tree under test cannot be measured; no result is printed."""


def target_name(args: tuple[str, ...]) -> str:
    """``gl-3``, ``gl-3-small-orders``, ``orbital-3`` and so on."""
    opts = dict(zip(args[::2], args[1::2]))
    parts = [opts["--family"], opts["--q"]]
    if "--variant" in opts:
        parts.append(opts["--variant"])
    return "-".join(parts)


def golden_key(args: tuple[str, ...]) -> str:
    return " ".join(args)


# ---------------------------------------------------------------------------
# the tree under test


def tree_digest() -> str:
    """sha256 over the relative paths and bytes of ``src/pstwalk``."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(str(path.relative_to(PACKAGE)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(PACKAGE.parent) + (os.pathsep + rest if rest else "")
    return env


def check_modules(modules: dict[str, str]) -> None:
    """Every pstwalk module the child loaded must come from this tree."""
    if "pstwalk" not in modules:
        raise Refusal("the child did not import pstwalk")
    for name, path in modules.items():
        if not Path(path).resolve().is_relative_to(PACKAGE):
            raise Refusal(f"{name} was imported from {path}, not from {PACKAGE}")


# ---------------------------------------------------------------------------
# one target in one fresh interpreter


def _wait(pid: int, timeout: float | None):
    """``os.wait4`` with a deadline.

    The usage is this child's alone, unlike the cumulative RUSAGE_CHILDREN,
    but its ru_maxrss is at least the parent's own peak resident set.
    """

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001) if timeout else 0)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def observe(work: Path, code: int) -> dict:
    """The outputs compared against the goldens.

    The cross-check float strings (walk_min_fidelity, spectrum_deviation)
    are left out: they depend on BLAS threading.
    """
    lines = (work / "stdout.txt").read_text(encoding="utf-8").splitlines()
    verdicts = [line[len("verdict: "):] for line in lines if line.startswith("verdict: ")]
    report = work / "report.json"
    certificate = json.loads(report.read_text(encoding="utf-8"))["certificate"] if report.exists() else {}
    return {
        "exit_code": code,
        "verdict": verdicts[-1] if verdicts else None,
        "spectrum.csv": _digest(work / "spectrum.csv"),
        "graph.edges": _digest(work / "graph.edges"),
        "certificate": {key: certificate.get(key) for key in CERTIFICATE_FIELDS},
    }


def run_target(args: tuple[str, ...], traced: bool, deadline: float | None, spans_dir: Path | None = None) -> dict:
    """Spawn ``pstwalk export`` for one target, wait for it, observe its outputs."""
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record_path = work / "record.json"
    cmd = [
        sys.executable, str(BENCH / "child.py"), str(record_path), "trace" if traced else "run",
        "--", "export", *args, "--out-dir", str(work),
    ]
    env = child_env()
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out, stderr=err)
        timed_out = False
        try:
            status, usage = _wait(proc.pid, None if deadline is None else deadline - start)
        except TimeoutError:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text(encoding="utf-8")) if record_path.exists() else {}
    if record:
        check_modules(record["modules"])
    result = {
        "target": target_name(args),
        "args": list(args),
        "seconds": end - start,
        "setup_s": record["imported"] - start if record else None,
        "pstwalk_file": record["modules"]["pstwalk"] if record else None,
        # The child's own VmHWM; wait4's ru_maxrss only when it wrote no record.
        "rss_mb": (record.get("peak_rss_kb") or usage.ru_maxrss) / 1024.0,
        "timed_out": timed_out,
        "artifact_bytes": sum((work / a).stat().st_size for a in ARTIFACTS if (work / a).exists()),
        "observed": observe(work, code),
    }
    if traced and record:
        layers = layer_summary(record["trace"], work / "spans.bin")
        layers["cli.artifact_bytes"] = result["artifact_bytes"]
        result["layers"] = layers
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            stem = spans_dir / result["target"]
            shutil.move(work / "spans.bin", stem.with_suffix(".spans.bin"))
            stem.with_suffix(".spans.json").write_text(
                json.dumps({"record": "name id, parent index, start ns, end ns", **record["trace"]}),
                encoding="utf-8",
            )
    return result


def layer_summary(trace: dict, spans_path: Path) -> dict:
    """Self seconds and calls per span name, plus the tracer's counters.

    A span's self time is its duration minus the durations of its children.
    """
    spans = array("q")
    spans.frombytes(spans_path.read_bytes())
    names = trace["names"]
    n = len(spans) // 4
    child = [0] * n
    for i in range(n):
        parent = spans[4 * i + 1]
        if parent >= 0:
            child[parent] += spans[4 * i + 3] - spans[4 * i + 2]
    self_ns = [0] * len(names)
    calls = [0] * len(names)
    for i in range(n):
        ident = spans[4 * i]
        self_ns[ident] += spans[4 * i + 3] - spans[4 * i + 2] - child[i]
        calls[ident] += 1
    out: dict = {}
    for ident, name in enumerate(names):
        out[f"{name}_s"] = self_ns[ident] / 1e9
        out[f"{name}.calls"] = calls[ident]
    out.update(trace["maxima"])
    out.update(trace["counts"])
    out["cli.self_s"] = out.pop("cli.main_s", 0.0)
    return out


def check(result: dict, goldens: dict) -> str | None:
    """Why a target failed, or None."""
    if result["timed_out"]:
        return "killed at the run deadline"
    observed = result["observed"]
    if observed["exit_code"] != 0:
        return f"exit code {observed['exit_code']}"
    if observed["verdict"] != "ok":
        return f"verdict {observed['verdict']!r}"
    golden = goldens.get(golden_key(tuple(result["args"])))
    if golden is None:
        return "no golden recorded for this target"
    diff = sorted(key for key in golden if golden[key] != observed.get(key))
    return f"differs from its golden in {', '.join(diff)}" if diff else None


# ---------------------------------------------------------------------------
# workloads and metrics


def gmean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(runs: list[dict]) -> dict:
    """wall_s sums, and target_s.gmean combines, each target's median."""
    per_target: dict[str, list[float]] = {}
    for r in runs:
        per_target.setdefault(r["target"], []).append(r["seconds"])
    medians = [statistics.median(v) for v in per_target.values()]
    setups = [r["setup_s"] for r in runs if r["setup_s"] is not None]
    return {
        "wall_s": sum(medians),
        "target_s.gmean": gmean(medians),
        "setup_s": statistics.median(setups) if setups else math.nan,
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }


def per_layer(untraced: list[dict], traced: list[dict], wanted: list[str]) -> dict:
    spans = {name for *_, name in TARGETS} | {name for _, name in NUMPY_TARGETS}
    known = {f"{s}{suffix}" for s in spans for suffix in ("_s", ".calls")}
    known |= {"chars.phi.builds", "chars.root_order.max", "ctqw.vertices.max", "cli.self_s", "cli.artifact_bytes"}
    untraced_wall = sum(r["seconds"] for r in untraced)
    traced_wall = sum(r["seconds"] for r in traced)
    trace = {
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out = {}
    for name in wanted:
        if name in trace:
            out[name] = trace[name]
        elif name not in known:
            raise ValueError(f"BENCHMARK.json names an unknown per-layer metric {name!r}")
        elif name.endswith(".max"):
            out[name] = max(r.get("layers", {}).get(name, 0) for r in traced)
        else:
            out[name] = sum(r.get("layers", {}).get(name, 0) for r in traced)
    return out


def log(text: str = "") -> None:
    print(text, file=sys.stderr, flush=True)


def show(results: list[dict], whys: list[str | None], label: str = "") -> None:
    """One line for one or more spawns of the same target: medians, peak."""
    setups = [r["setup_s"] for r in results if r["setup_s"] is not None]
    setup = f"{statistics.median(setups):.3f}" if setups else "-"
    failed = [why for why in whys if why is not None]
    log(
        f"  {results[0]['target'] + label:<26} x{len(results):<2} "
        f"{statistics.median(r['seconds'] for r in results):8.3f} s  setup {setup} s  "
        f"rss {max(r['rss_mb'] for r in results):7.1f} MB  "
        f"{'FAILED: ' + '; '.join(failed) if failed else 'ok'}"
    )


def run_workload(name: str, seed: int, seconds: float, traced: bool, goldens: dict, deadline: float | None) -> dict:
    rng = random.Random(seed)
    targets = WORKLOADS[name]
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    group = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    failures: list[tuple[str, str]] = []
    attempted = 0

    def run(args, traced_child, repeat_s=0.0, spans_dir=None):
        """Spawn the target, again until it has run repeat_s; show one line."""
        nonlocal attempted
        results, whys = [], []
        while not results or sum(r["seconds"] for r in results) < repeat_s:
            results.append(run_target(args, traced_child, deadline, spans_dir))
            whys.append(check(results[-1], goldens))
            attempted += 1
            if whys[-1] is not None:
                failures.append((results[-1]["target"], whys[-1]))
        show(results, whys, " (traced)" if traced_child else "")
        return results

    begin = time.monotonic()
    passes: list[list[dict]] = []
    traced_runs: list[dict] = []
    if traced:
        order = rng.sample(targets, len(targets))
        log(f"workload {name}, seed {seed}: each target untraced, then traced")
        spans_dir = OUT / "spans" / name
        shutil.rmtree(spans_dir, ignore_errors=True)
        untraced = []
        for args in order:
            untraced += run(args, False)
            traced_runs += run(args, True, spans_dir=spans_dir)
        passes.append(untraced)
        metrics = per_layer(untraced, traced_runs, list(units))
    else:
        while not passes or time.monotonic() - begin < seconds:
            last = time.monotonic()
            if passes and deadline is not None and last + (last - begin) / len(passes) > deadline:
                break
            log(f"workload {name}, seed {seed}, pass {len(passes) + 1}")
            passes.append([r for args in rng.sample(targets, len(targets)) for r in run(args, False, MIN_TARGET_S)])
        metrics = end_to_end([r for p in passes for r in p])
        missing = set(units) - set(metrics)
        if missing:
            raise ValueError(f"BENCHMARK.json names unknown end-to-end metrics {sorted(missing)}")
    failed = len(failures)
    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "failed_ratio": failed / attempted,
        "failures": failures,
        "passes": passes,
        "traced": traced_runs,
        "metrics": metrics,
    }
    for key, value in metrics.items():
        if key in units:
            log(f"  {key:<26} {value:14.6f} {units[key]}")
    log(f"  {'failed_ratio':<26} {failed / attempted:14.6f} ({failed} of {attempted} target runs)")
    if traced:
        log("  per target (traced): orbital.spectrum.calls, numeric.eig.calls")
        for r in traced_runs:
            layers = r.get("layers", {})
            log(
                f"    {r['target']:<22} {layers.get('orbital.spectrum.calls', 0):3d} "
                f"{layers.get('numeric.eig.calls', 0):3d}"
            )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
        "summary": summary,
    }


def record_goldens() -> int:
    goldens = {}
    for name, targets in WORKLOADS.items():
        log(f"recording {name}")
        for args in targets:
            result = run_target(args, False, None)
            observed = result["observed"]
            show([result], [None])
            if observed["exit_code"] != 0 or observed["verdict"] != "ok":
                log(f"refusing to record a failing target: {observed}")
                return 1
            goldens[golden_key(args)] = observed
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    log(f"wrote {GOLDENS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if not (PACKAGE / "__init__.py").is_file():
            raise Refusal(f"no pstwalk source tree at {PACKAGE}")
        if not SPEC.is_file():
            raise Refusal(f"missing {SPEC}")
        digest = tree_digest()
        log(f"tree under test: {PACKAGE} (sha256 {digest[:16]}, commit {commit() or 'unknown: not a git checkout'})")
        log("child environment: " + " ".join(f"{k}={v}" for k, v in CHILD_ENV.items()))
        if args.record_goldens:
            return record_goldens()
        if args.workload is None:
            parser.error("--workload is required")
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        deadline = None if args.workload == "all" else started + RUN_LIMIT_S
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), goldens, deadline)
            for name in names
        }
        if tree_digest() != digest:
            raise Refusal("src/pstwalk changed while the benchmark ran")
    except Refusal as exc:
        log(f"refusing to run: {exc}")
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"tree_sha256": digest, "commit": commit(), "child_env": CHILD_ENV, "results": results}, indent=1),
        encoding="utf-8",
    )
    for result in results.values():
        del result["summary"]
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
