"""Benchmark of the runvec command line, end to end and per layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Every pass runs in fresh child processes (``child.py``) that import
``runvec.cli`` from ``src/`` and call ``runvec.cli.main(argv)``, so the
import and the ``balanced_run_tuples`` cache fill are paid the way a
command-line user pays them.  Passes repeat, alternating workers=1 and
workers=2, until ``--seconds`` have passed; metrics are medians over
passes.  Each pass runs between two timings of ``calibrate.py`` and its
times are scaled to a reference host speed (see README.md, "Host
speed").  Every output is checked.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the run conditions.

With ``--trace 1`` each round adds a traced workers=1 pass whose spans
give the per-layer metrics (see ``spans.py``); end-to-end numbers always
come from untraced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby
from pathlib import Path
from typing import Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
CALIBRATE = BENCH / "calibrate.py"
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

WORKERS = 2  # the machine this was sized on has 2 cores
# Median calibrate.py time, spawn to exit, on that machine.  Each pass runs
# between two calibrations, and its times are reported as if the host ran
# at the reference speed: measured * REFERENCE / mean of the two.
REFERENCE_CALIBRATION_S = 0.28
CHILD_TIMEOUT_S = 150
SMALL_N = 15  # search and classify hits are compared with brute force up to here
RECOMPUTE_ONE_IN = 8  # share of analyze replies whose C is recomputed here
MAX_LEN = 256  # analyze-mix request lengths are 1..MAX_LEN
MALFORMED_PER_CLASS = 8

ALL_SEQUENCE_TARGETS = ("theorem1", "delta", "prop-skew")
BALANCED_TARGETS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L7n", "p-odd")

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_w2_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms.p50": "ms",
    "latency_ms.p99": "ms",
}

LAYER_METRICS = {
    **{
        f"{layer}.{fn}.{kind}": unit
        for layer, fns in spans.LAYER_FUNCTIONS.items()
        for fn in fns
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    "lemmalab.balanced_run_tuples.misses": "count",
    "lemmalab.balanced_run_tuples.hit_ratio": "ratio",
    "search.hits": "count",
    "cli.output_bytes": "bytes",
    "pool.efficiency": "ratio",
    "trace.overhead_s": "s",
}


class CheckError(Exception):
    """An output that is not what the program must produce."""


# ---------------------------------------------------------------------------
# First-principles sequence arithmetic, independent of runvec.
# ---------------------------------------------------------------------------


def elems_of(text: str) -> list[int]:
    return [1 if ch == "+" else -1 for ch in text]


def encoding_of(text: str) -> str:
    return ",".join([text[0]] + [str(len(list(g))) for _, g in groupby(text)])


def aperiodic(a: list[int]) -> list[int]:
    n = len(a)
    return [sum(a[i] * a[i + k] for i in range(n - k)) for k in range(n)] + [0]


def periodic(a: list[int]) -> list[int]:
    n = len(a)
    return [sum(a[i] * a[(i + k) % n] for i in range(n)) for k in range(n)]


def percentile(values, p: float):
    """Nearest-rank percentile: the smallest value with at least ``p``
    percent of the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(golden: dict, command: str, stdout: str) -> None:
    want = golden.get(command)
    if want is None:
        raise CheckError(f"no golden digest for {command!r}")
    if digest(stdout) != want:
        raise CheckError(f"stdout of {command!r} differs from its golden digest")


# ---------------------------------------------------------------------------
# Operations and their checks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One command-line operation and what its outcome must be.

    ``check`` receives (exit code, stdout, stderr) and raises CheckError.
    ``client`` places the op at workers=2 when a workload splits its ops
    over two concurrent clients.  A failed op with ``expected_error``
    set is a mishandled malformed request: it counts as failed but does
    not make the run's outputs incorrect.
    """

    argv: tuple[str, ...]
    check: Callable[[int, str, str], None]
    items: int
    digest_key: str | None = None
    client: int = 0
    expected_error: bool = False


def _require_clean(code: int, stderr: str) -> None:
    if code != 0 or stderr:
        raise CheckError(f"exit {code}, stderr {stderr[-300:]!r}")


def sweep_lengths(target: str, n_max: int) -> range:
    return range(1, n_max + 1) if target in ("theorem1", "delta") else range(1, n_max + 1, 2)


def sweep_population(target: str, n: int) -> int:
    return 2**n if target in ALL_SEQUENCE_TARGETS else 2 ** ((n - 1) // 2)


def check_verify(targets, n_max, code, stdout, stderr) -> None:
    _require_clean(code, stderr)
    report = json.loads(stdout)
    if report["complete"] is not True or report["ok"] is not True:
        raise CheckError("sweep report not complete and ok")
    want = [(t, n) for t in targets for n in sweep_lengths(t, n_max)]
    got = [(r["target"], r["n"]) for r in report["records"]]
    if got != want:
        raise CheckError(f"sweep records {got} != {want}")
    for rec in report["records"]:
        if rec["failure_count"] != 0 or rec["failures"]:
            raise CheckError(f"sweep failures in {rec['target']} n={rec['n']}")
        if rec["population"] != sweep_population(rec["target"], rec["n"]):
            raise CheckError(f"population {rec['population']} at {rec['target']} n={rec['n']}")


@lru_cache(maxsize=None)
def barker_oracle(n: int) -> frozenset[str]:
    """Barker sequences of length n from the program's unpruned filter."""
    from runvec.search import brute_force_barker

    return frozenset(seq.to_text() for seq in brute_force_barker(n))


def check_classify(n_max, code, stdout, stderr) -> None:
    _require_clean(code, stderr)
    report = json.loads(stdout)
    counts = report["counts"]
    if sorted(counts, key=int) != [str(n) for n in range(1, n_max + 1, 2)]:
        raise CheckError(f"classify lengths {sorted(counts)}")
    for n in range(1, min(n_max, SMALL_N) + 1, 2):
        if counts[str(n)] != len(barker_oracle(n)):
            raise CheckError(f"classify count {counts[str(n)]} at n={n}")
    for chk in report["checks"]:
        if not (chk["structure_ok"] and chk["length_bound_ok"]):
            raise CheckError(f"classify check failed: {chk}")


def check_search(n_max, code, stdout, stderr) -> None:
    _require_clean(code, stderr)
    hits: dict[int, set[str]] = {}
    for line in stdout.splitlines():
        rec = json.loads(line)
        seq, n = rec["sequence"], rec["n"]
        c = aperiodic(elems_of(seq))
        if not (len(seq) == n and n % 2 == 1 and n <= n_max and rec["verdict"] == "barker"):
            raise CheckError(f"bad search record {line[:200]}")
        if rec["rle"] != encoding_of(seq) or rec["C"] != c:
            raise CheckError(f"search record disagrees with its sequence: {seq}")
        if any(abs(v) > 1 for v in c[1:n]):
            raise CheckError(f"search hit is not Barker: {seq}")
        hits.setdefault(n, set()).add(seq)
    for n in range(1, min(n_max, SMALL_N) + 1, 2):
        if hits.get(n, set()) != barker_oracle(n):
            raise CheckError(f"search hits at n={n} differ from brute force")


def _command(text: str, check, items: int) -> Op:
    return Op(tuple(text.split()), check, items, digest_key=text)


def verify_op(targets, n_max) -> Op:
    return _command(
        f"verify --targets {','.join(targets)} --max-n {n_max} --json",
        partial(check_verify, targets, n_max),
        sum(sweep_population(t, n) for t in targets for n in sweep_lengths(t, n_max)),
    )


def classify_op(n_max) -> Op:
    return _command(f"classify --max-n {n_max} --json", partial(check_classify, n_max), 0)


def search_op(mode, n_max) -> Op:
    free = (lambda n: n - 1) if mode == "full" else (lambda n: (n - 1) // 2)
    return _command(
        f"search --mode {mode} --min-n 1 --max-n {n_max} --json",
        partial(check_search, n_max),
        sum(2 ** free(n) for n in range(1, n_max + 1, 2)),
    )


# analyze-mix requests ------------------------------------------------------

NON_ASCII_DIGITS = ("²", "³", "¹", "①", "⑦")  # str.isdigit() is true, int() fails
ASCII_NON_DIGITS = ("a", "1a", "-2", "", "3.0", " 4")
BAD_CHARS = "x0*=.a"


def check_analyze(text, recompute, code, stdout, stderr) -> None:
    _require_clean(code, stderr)
    rep = json.loads(stdout)
    n = len(text)
    if (rep["sequence"], rep["n"], rep["rle"]) != (text, n, encoding_of(text)):
        raise CheckError(f"analyze reply is for another sequence: {stdout[:200]}")
    c, cp = rep["C"], rep["C_periodic"]
    if len(c) != n + 1 or c[0] != n or c[-1] != 0 or len(cp) != n or cp[0] != n:
        raise CheckError(f"analyze reply has malformed correlations: {stdout[:200]}")
    if recompute:
        a = elems_of(text)
        if c != aperiodic(a) or cp != periodic(a):
            raise CheckError(f"analyze correlations are wrong for {text}")
        if rep["barker"] != all(abs(v) <= 1 for v in c[1:n]):
            raise CheckError(f"analyze Barker verdict is wrong for {text}")


def check_rle(text, code, stdout, stderr) -> None:
    _require_clean(code, stderr)
    want = json.dumps({"sequence": text, "rle": encoding_of(text)}, sort_keys=True) + "\n"
    if stdout != want:
        raise CheckError(f"rle reply {stdout[:200]!r} != {want[:200]!r}")


def check_rejected(code, stdout, stderr) -> None:
    """A malformed request must exit 1 with a one-line error, no traceback."""
    if code != 1 or stdout or "Traceback" in stderr or not stderr.startswith("error:"):
        raise CheckError(f"malformed request gave exit {code}, stderr {stderr[-200:]!r}")


def _request_argv(command: str, text: str, encoded: bool) -> tuple[str, ...]:
    # Text after "--": argparse reads a leading "-" as an option otherwise.
    if command == "analyze" and encoded:
        return ("analyze", "--json", f"--rle={text}")
    return (command, "--json", "--", text)


def _random_text(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("+-") for _ in range(n))


def _malformed(rng: random.Random, cls: str, j: int, text: str) -> tuple[str, bool]:
    """A corrupted text of one documented error class; True if it is an
    encoding text."""
    if cls == "bad-char":
        pos = rng.randrange(len(text))
        return text[:pos] + rng.choice(BAD_CHARS) + text[pos + 1 :], False
    tokens = encoding_of(text).split(",")
    if cls == "missing-comma":
        return tokens[0] + ",".join(tokens[1:]), True
    if cls == "zero-run":
        tokens.insert(rng.randint(1, len(tokens)), "0")
    else:  # non-digit run; every other one is a non-ASCII digit
        pool = NON_ASCII_DIGITS if j % 2 else ASCII_NON_DIGITS
        tokens[rng.randint(1, len(tokens) - 1)] = rng.choice(pool)
    return ",".join(tokens), True


MALFORMED_CLASSES = ("bad-char", "missing-comma", "zero-run", "non-digit-run")


def analyze_mix_ops(seed: int, pass_idx: int) -> list[Op]:
    """One analyze and one rle request per length 1..MAX_LEN, each given
    as a sequence or an encoding at random, plus a fixed number of
    malformed requests per error class, in random order.  Every batch
    has the same lengths, so its cost barely depends on the seed."""
    rng = random.Random(f"analyze-mix:{seed}:{pass_idx}")
    ops = []
    for n in range(1, MAX_LEN + 1):
        for command in ("analyze", "rle"):
            text = _random_text(rng, n)
            encoded = rng.random() < 0.5
            argv = _request_argv(command, encoding_of(text) if encoded else text, encoded)
            if command == "analyze":
                check = partial(check_analyze, text, rng.randrange(RECOMPUTE_ONE_IN) == 0)
            else:
                check = partial(check_rle, text)
            ops.append(Op(argv, check, 1, client=n % 2))
    for cls in MALFORMED_CLASSES:
        for j in range(MALFORMED_PER_CLASS):
            n = rng.randint(2, MAX_LEN)
            bad, encoded = _malformed(rng, cls, j, _random_text(rng, n))
            command = rng.choice(("analyze", "rle"))
            argv = _request_argv(command, bad, encoded)
            ops.append(Op(argv, check_rejected, 1, client=n % 2, expected_error=True))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``ops(seed, pass_idx)`` gives one pass.  At workers=2 a ``split``
    workload runs its ops on two concurrent clients; the others pass
    ``--workers 2`` to every command."""

    name: str
    ops: Callable[[int, int], list[Op]]
    split: bool = False


def _fixed(*ops: Op) -> Callable[[int, int], list[Op]]:
    return lambda seed, pass_idx: list(ops)


# Sizes fit several passes of each kind into one run on 2 cores.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("seq-sweep", _fixed(verify_op(ALL_SEQUENCE_TARGETS, 12))),
        Workload(
            "balanced-lemmas",
            _fixed(verify_op(BALANCED_TARGETS, 21), classify_op(21)),
        ),
        Workload("barker-search", _fixed(search_op("skew", 37), search_op("full", 19))),
        Workload("analyze-mix", analyze_mix_ops, split=True),
    )
}


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    wall: float  # spawn of the first child to the last command's end
    cpu: float  # user + system of all children and their pool workers
    rss_mb: float  # peak resident set of any child or pool worker
    setups: list[float]  # spawn to runvec.cli imported, per child
    results: list  # [exit code, stdout, stderr, seconds] per command
    caches: list[dict]  # balanced_run_tuples cache_info per child


def calibrate() -> float:
    """Seconds from spawn to exit of calibrate.py."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CALIBRATE)], stdout=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()  # a blocking wait: Popen.wait(timeout) polls in 50 ms steps
    finally:
        timer.cancel()
    elapsed = time.monotonic() - t0
    if code != 0:
        raise RuntimeError(f"calibrate.py exited with {code}")
    return elapsed


def run_pass(jobs: list[list[tuple[str, ...]]], trace_path=None, pass_id=0) -> PassResult:
    """Run each job (a list of argv) in its own fresh child, concurrently."""
    procs, spawned, timers = [], [], []
    try:
        for argvs in jobs:
            spawned.append(time.monotonic())
            procs.append(
                subprocess.Popen(
                    [sys.executable, str(CHILD), str(SRC)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
            )
            timers.append(threading.Timer(CHILD_TIMEOUT_S, procs[-1].kill))
            timers[-1].start()
        for proc, argvs in zip(procs, jobs):
            job = {
                "commands": [list(a) for a in argvs],
                "trace": trace_path is not None,
                "pass_id": pass_id,
                "spans": str(trace_path) if trace_path else None,
            }
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
        outputs, cpu, rss = [], 0.0, 0
        for proc in procs:
            raw = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                raise RuntimeError(f"benchmark child exited with {proc.returncode}")
            outputs.append(json.loads(raw))
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss)
    finally:
        for timer in timers:
            timer.cancel()
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return PassResult(
        wall=max(o["finished"] for o in outputs) - spawned[0],
        cpu=cpu,
        rss_mb=rss / 1024,
        setups=[o["imported"] - s for o, s in zip(outputs, spawned)],
        results=[r for o in outputs for r in o["results"]],
        caches=[o["cache"] for o in outputs],
    )


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    first_error: str = ""

    def fail(self, op: Op, message: str) -> None:
        self.failed += 1
        if not op.expected_error:
            self.correct = False
            self.first_error = self.first_error or message


def check_pass(ops, results, golden, tally: Tally) -> list[bool]:
    """Check each op's result of one workers=1 pass; True where it passed."""
    passed = []
    for op, (code, out, err, _) in zip(ops, results):
        tally.attempted += 1
        try:
            op.check(code, out, err)
            if op.digest_key is not None:
                check_digest(golden, op.digest_key, out)
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            tally.fail(op, f"{' '.join(op.argv)}: {exc}")
            passed.append(False)
        else:
            passed.append(True)
    return passed


def check_same(ops, results, reference, passed, tally: Tally) -> None:
    """Each result must equal the checked workers=1 result byte for byte."""
    for op, res, ref, ok in zip(ops, results, reference, passed):
        tally.attempted += 1
        if res[:3] != ref[:3] or not ok:
            tally.fail(op, f"output differs from workers=1: {' '.join(op.argv)}")


def w2_jobs(workload: Workload, ops: list[Op]):
    """Jobs at workers=2 and the op index behind each result they return."""
    if workload.split:
        order = [[i for i, op in enumerate(ops) if op.client == c] for c in range(WORKERS)]
        return [[ops[i].argv for i in idx] for idx in order], [i for idx in order for i in idx]
    return [[op.argv + ("--workers", str(WORKERS)) for op in ops]], list(range(len(ops)))


def layer_values(trace_file, caches) -> dict:
    data = spans.load(trace_file)
    timed = spans.self_times(
        data["names"], data["name_ids"], data["starts"], data["ends"], data["parents"]
    )
    values = {}
    for layer, fns in spans.LAYER_FUNCTIONS.items():
        for fn in fns:
            calls, self_s = timed.get(f"{layer}.{fn}", (0, 0.0))
            values[f"{layer}.{fn}.calls"] = calls
            values[f"{layer}.{fn}.self_s"] = self_s
    hits, misses = caches[0]["hits"], caches[0]["misses"]
    values["lemmalab.balanced_run_tuples.misses"] = misses
    values["lemmalab.balanced_run_tuples.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["search.hits"] = data["counters"].get("search.hits", 0)
    return values


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    golden = json.loads(GOLDEN.read_text())
    tally = Tally()
    run_pass([[]])  # warm-up: the first child in a fresh checkout compiles runvec
    calibrations = [calibrate()]

    def scaled_pass(jobs, **kwargs) -> tuple[PassResult, float]:
        """A pass between two calibrations, and the factor that scales its
        times to the reference host speed."""
        result = run_pass(jobs, **kwargs)
        calibrations.append(calibrate())
        return result, 2 * REFERENCE_CALIBRATION_S / sum(calibrations[-2:])

    setups, walls, walls_w2, cpus_w2, rss, latencies, traced, factors = ([] for _ in range(8))
    spans_path = OUT / f"{workload.name}.spans"  # each traced pass overwrites it
    if trace:
        OUT.mkdir(exist_ok=True)
    items = 0
    deadline = time.monotonic() + seconds
    pass_idx = 0
    while pass_idx == 0 or time.monotonic() < deadline:
        ops = workload.ops(seed, pass_idx)
        items = sum(op.items for op in ops)
        argvs = [op.argv for op in ops]

        p1, f1 = scaled_pass([argvs])
        passed = check_pass(ops, p1.results, golden, tally)
        setups.extend(s * f1 for s in p1.setups)
        walls.append(p1.wall * f1)
        latencies.append([r[3] * f1 for r in p1.results])
        factors.append(f1)

        jobs, order = w2_jobs(workload, ops)
        p2, f2 = scaled_pass(jobs)
        results = [None] * len(ops)
        for i, res in zip(order, p2.results):
            results[i] = res
        check_same(ops, results, p1.results, passed, tally)
        setups.append(p2.setups[0] * f2)
        walls_w2.append(p2.wall * f2)
        cpus_w2.append(p2.cpu * f2)
        rss.append(max(p1.rss_mb, p2.rss_mb))

        if trace:
            pt, ft = scaled_pass([argvs], trace_path=spans_path, pass_id=pass_idx)
            check_same(ops, pt.results, p1.results, passed, tally)
            values = layer_values(spans_path, pt.caches)
            values = {k: v * ft if LAYER_METRICS[k] == "s" else v for k, v in values.items()}
            values["cli.output_bytes"] = sum(len(r[1].encode()) for r in pt.results)
            values["wall"] = pt.wall * ft
            traced.append(values)
        pass_idx += 1

    median = statistics.median
    if trace:
        metrics = {
            name: median(v[name] for v in traced)
            for name in LAYER_METRICS
            if name not in ("pool.efficiency", "trace.overhead_s")
        }
        metrics["pool.efficiency"] = median(cpus_w2) / (WORKERS * median(walls_w2))
        metrics["trace.overhead_s"] = median(v["wall"] for v in traced) - median(walls)
        units = LAYER_METRICS
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "wall_w2_s": median(walls_w2),
            "items_per_s": items / median(walls),
            "cpu_s": median(cpus_w2),
            "peak_rss_mb": median(rss),
            "latency_ms.p50": 1000 * median(percentile(v, 50) for v in latencies),
            "latency_ms.p99": 1000 * median(percentile(v, 99) for v in latencies),
        }
        units = E2E_METRICS
    conditions = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers": [1, WORKERS],
        "passes": pass_idx,
        "items_per_pass": items,
        "setup_samples": len(setups),
        "latency_samples_per_pass": len(latencies[0]),
        "calibration_s": median(calibrations),
        "host_factor": median(factors),
        "fail_ratio": tally.failed / tally.attempted,
        "first_error": tally.first_error,
    }
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return conditions, result


def write_golden() -> None:
    """Record the sha256 of each fixed command's stdout at workers=1,
    after its invariants pass.  Run only when the output may change."""
    golden = {}
    for workload in WORKLOADS.values():
        for op in workload.ops(0, 0):
            if op.digest_key is None:
                continue
            code, out, err, _ = run_pass([[op.argv]]).results[0]
            op.check(code, out, err)
            golden[op.digest_key] = digest(out)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "runvec" / "cli.py").is_file():
        print(f"error: runvec sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    conditions, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"conditions": conditions}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
