"""timnoma benchmark: wall time, set-up time and memory of the figure runs.

Usage, from the root of a checkout (the package need not be installed):

    python3 bench/run.py --workload ber-hybrid --seed 1 --seconds 20 --trace 0

Each workload runs the CLI (``python -m timnoma.cli`` with PYTHONPATH=src)
as a closed loop: one invocation at a time from this single process, each
in its own process group under a timeout. ``--seed`` becomes the CLI's
``--seed``, so the same seed gives the same CSV.

``--trace 0`` first times the set-up (a fresh interpreter that imports
timnoma and validates the workload's config) SETUP_REPEATS times. Then,
for ``--seconds`` seconds, it runs whole rounds of one run at
TIMNOMA_WORKERS=1 and POOL_RUNS_PER_ROUND at TIMNOMA_WORKERS=<allowed
CPUs>, and prints the medians (the mean, for the pool).
BLAS thread variables are passed through exactly as the caller has them.

``--trace 1`` runs rounds of the same untraced runs plus two in-process
runs at one worker, the second with every public function of the package
wrapped in a span (see spans.py), and prints the per-layer metrics.

Every CSV is checked against exact oracles (oracles.py, which imports
nothing from timnoma), the one-worker and pool CSVs must be byte-identical,
and no process may outlive its invocation. The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

sys.path.insert(0, HERE)
import oracles  # noqa: E402
from spans import Tracer  # noqa: E402

# |estimate - exact| must stay within this many standard errors
Z_LIMIT = 5.0
SETUP_REPEATS = 7
# pool times scatter more from run to run than one-worker times (see pool_mean)
POOL_RUNS_PER_ROUND = 2
INVOCATION_TIMEOUT_S = 60.0
# every invocation must end by then, so the whole run ends well within 180 s
RUN_DEADLINE_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI subcommand and its own flags
    experiment: str  # the SimConfig.experiment the command selects
    snr: str
    frames: int

    @property
    def argv(self) -> list[str]:
        """CLI arguments without --seed and --out."""
        return [*self.command, "--snr", self.snr, "--frames", str(self.frames)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ber-hybrid", ("ber",), "ber", "0:2:30", 8),
        Workload("ber-single-user", ("single-user", "--metric", "ber"), "ber_single_user", "20:4:44", 20),
        Workload("rate-ratio", ("ratio",), "ratio", "0:10:70", 500_000),
    )
}


def snr_grid(spec: str) -> list[float]:
    start, step, stop = (float(p) for p in spec.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + step * i for i in range(count)]


class Ledger:
    """Operations attempted and failed; a failed check also marks the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, ok: bool, what: str, is_check: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if is_check:
                self.correct = False
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


# ---------------------------------------------------------------------------
# child processes

_started_groups: list[int] = []


def _live_members(pgid: int) -> list[int]:
    """Processes of a group that are not zombies (zombies no longer run)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(int(entry))
    return members


def _kill_group(pgid: int) -> bool:
    """SIGKILL a process group; True once no member of it is left running."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    for _ in range(500):
        if not _live_members(pgid):
            return True
        time.sleep(0.01)
    return False


def run_child(cmd: list[str], env: dict, log_path: str, deadline: float, ledger: Ledger, what: str):
    """Run one command to completion; return (wall seconds, peak RSS MB) or None.

    The child leads a new process group. On timeout the whole group is
    killed. Wall time runs from spawn to reaping; the peak RSS is the
    child's own, from wait4.
    """
    timeout = min(INVOCATION_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        raise RuntimeError("run deadline passed before all rounds finished")
    outcome: dict = {}
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=log,
            start_new_session=True,
        )
        _started_groups.append(proc.pid)

        def reap() -> None:
            _pid, status, usage = os.wait4(proc.pid, 0)
            outcome["end"] = time.perf_counter()
            outcome["status"] = status
            outcome["usage"] = usage

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        waiter.join(timeout)
        timed_out = waiter.is_alive()
        if timed_out:
            _kill_group(proc.pid)
            waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(outcome["status"])
    leftover = _live_members(proc.pid)
    if leftover:
        _kill_group(proc.pid)
    ledger.record(not leftover, f"{what}: processes {leftover} outlived the invocation", is_check=False)
    ok = not timed_out and proc.returncode == 0
    if not ledger.record(ok, f"{what}: exit {proc.returncode}, timed out {timed_out}", is_check=False):
        with open(log_path, encoding="utf-8", errors="replace") as log:
            sys.stderr.write(log.read()[-2000:])
        return None
    return outcome["end"] - start, outcome["usage"].ru_maxrss / 1024.0


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TIMNOMA_WORKERS"] = str(workers)
    return env


def setup_command(workload: Workload, seed: int) -> list[str]:
    """A fresh interpreter that imports timnoma and validates the config."""
    code = (
        "import timnoma, timnoma.cli\n"
        f"timnoma.cli.build_parser().parse_args({workload.argv + ['--seed', str(seed)]!r})\n"
        f"timnoma.SimConfig(experiment={workload.experiment!r}, frames={workload.frames!r}, "
        f"seed={seed!r}, snr_grid_db=timnoma.parse_snr_grid({workload.snr!r})).validated()\n"
    )
    return [sys.executable, "-c", code]


# ---------------------------------------------------------------------------
# output checks


def read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _row_keys(rows) -> list[tuple]:
    return [(float(r["snr_db"]), r["entity"], r["metric"]) for r in rows]


def check_ber(rows, grid, metric, oracle, with_sum, ledger, what) -> None:
    users = len(oracles.DISTANCES)
    entities = [str(k + 1) for k in range(users)] + (["sum"] if with_sum else [])
    expected = [(snr, e, metric) for snr in grid for e in entities]
    if not ledger.record(_row_keys(rows) == expected, f"{what}: rows are not {metric} over the grid"):
        return
    for index, snr in enumerate(grid):
        block = rows[index * len(entities) : (index + 1) * len(entities)]
        exact = oracle(snr)
        for k in range(users):
            p, n = exact[k], int(block[k]["samples"])
            # the two bits of a symbol share one fading draw, which can raise
            # the variance of the bit count up to twice the binomial one
            sigma = math.sqrt(2.0 * p * (1.0 - p) / n)
            z = (float(block[k]["value"]) - p) / sigma
            ledger.record(abs(z) <= Z_LIMIT, f"{what}: {snr} dB user {k + 1} BER z = {z:.2f} against {p:.6g}")
        if with_sum:
            bits = sum(int(r["samples"]) for r in block[:users])
            mean = sum(float(r["value"]) * int(r["samples"]) for r in block[:users]) / bits
            total = block[users]
            ok = int(total["samples"]) == bits and math.isclose(float(total["value"]), mean, rel_tol=1e-12, abs_tol=1e-15)
            ledger.record(ok, f"{what}: {snr} dB sum row is not the bit-weighted mean of the users")


def check_ratio(rows, grid, ledger, what) -> None:
    metrics = ("rate_hybrid", "rate_tdma", "rate_ratio")
    expected = [(snr, "sum", m) for snr in grid for m in metrics]
    if not ledger.record(_row_keys(rows) == expected, f"{what}: rows are not the ratio table over the grid"):
        return
    for index, snr in enumerate(grid):
        hybrid, tdma = oracles.sum_rates(snr)
        for row, exact in zip(rows[3 * index : 3 * index + 3], (hybrid, tdma, hybrid / tdma)):
            z = (float(row["value"]) - exact) / float(row["stderr"])
            ledger.record(abs(z) <= Z_LIMIT, f"{what}: {snr} dB {row['metric']} z = {z:.2f} against {exact:.6g}")


def check_output(workload: Workload, path: str, ledger: Ledger, what: str) -> None:
    rows = read_rows(path)
    grid = snr_grid(workload.snr)
    if workload.experiment == "ber":
        check_ber(rows, grid, "ber", oracles.hybrid_ber, True, ledger, what)
    elif workload.experiment == "ber_single_user":
        check_ber(rows, grid, "ber_single", oracles.single_user_ber, False, ledger, what)
    else:
        check_ratio(rows, grid, ledger, what)


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


# ---------------------------------------------------------------------------
# runs


def environment_block(workers: int) -> str:
    """Versions, CPUs and thread variables, one line.

    numpy is imported in a child: the benchmark process stays small, because
    a child's peak RSS from wait4 can never read below its parent's.
    """
    probe = (
        "import numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(f\"numpy {numpy.__version__}, blas {blas.get('name')} {blas.get('version')}\")"
    )
    numpy_line = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S, check=True
    ).stdout.strip()
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return (
        f"python {sys.version.split()[0]}, {numpy_line}, cpu_count {os.cpu_count()}, "
        f"allowed CPUs {sorted(os.sched_getaffinity(0))} (pool workers {workers}), "
        f"thread variables {threads or 'unset'}"
    )


def untraced_round(workload, seed, workers, work_dir, round_no, deadline, ledger):
    """One invocation at one worker, then POOL_RUNS_PER_ROUND at the pool.

    Checks every CSV against the oracles and each pool CSV against the
    one-worker CSV byte for byte. Returns the one-worker (wall s, peak RSS
    MB), None if it failed, and the wall times of the pool runs that did not.
    """
    def invoke(label, count):
        out = os.path.join(work_dir, f"{label}-{round_no}.csv")
        cmd = [sys.executable, "-m", "timnoma.cli", *workload.argv, "--seed", str(seed), "--out", out]
        what = f"round {round_no} {label}"
        measured = run_child(cmd, child_env(count), out + ".log", deadline, ledger, what)
        if measured is not None:
            check_output(workload, out, ledger, what)
        return measured, out

    w1, w1_out = invoke("w1", 1)
    pool = []
    for i in range(POOL_RUNS_PER_ROUND):
        measured, out = invoke(f"pool{i}", workers)
        if measured is None:
            continue
        pool.append(measured[0])
        if ledger.record(w1 is not None, f"round {round_no}: no one-worker CSV to compare with"):
            ledger.record(same_bytes(w1_out, out), f"round {round_no}: one-worker and pool{i} CSVs differ")
    return w1, pool


def layer_metrics(tracer: Tracer, workload: Workload) -> dict:
    points = len(snr_grid(workload.snr))
    frames = points * workload.frames  # for rate-ratio, a frame is one realization
    per_frame = {
        "channel.draw_fading.us_per_frame": tracer.layer_self_us("channel", {"draw_fading"}),
        "channel.add_noise.us_per_frame": tracer.layer_self_us("channel", {"add_noise"}),
        "modem.qpsk_modulate.us_per_frame": tracer.layer_self_us("modem", {"qpsk_modulate"}),
        "modem.qpsk_demodulate.us_per_frame": tracer.layer_self_us("modem", {"qpsk_demodulate"}),
        "receiver.project.us_per_frame": tracer.layer_self_us("receiver", {"project"}),
        "receiver.decode.us_per_frame": tracer.layer_self_us("receiver", exclude={"project", "ml_detect"}),
        "receiver.ml_detect.us_per_frame": tracer.layer_self_us("receiver", {"ml_detect"}),
        "analytics.hybrid_rate_table.us_per_frame": tracer.layer_self_us("analytics", {"hybrid_rate_table"}),
        "analytics.single_user_rate_table.us_per_frame": tracer.layer_self_us(
            "analytics", {"single_user_rate_table"}
        ),
        "harness.self_us_per_frame": tracer.layer_self_us("harness", exclude={"emit_csv"}),
        "channel.normals_per_frame": tracer.counts["normals"],
        "receiver.calls_per_frame": tracer.layer_calls("receiver"),
        "receiver.symbols_detected_per_frame": tracer.counts["symbols_detected"],
    }
    metrics = {name: value / frames for name, value in per_frame.items()}
    metrics["topology.us_per_point"] = tracer.layer_self_us("topology") / points
    metrics["precoding.us_per_point"] = tracer.layer_self_us("precoding") / points
    metrics["harness.emit_csv_ms"] = tracer.layer_self_us("harness", {"emit_csv"}) / 1e3
    return metrics


END_TO_END_UNITS = {"wall_s.w1": "s", "wall_s.pool": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"us_per_frame": "us", "us_per_point": "us", "per_frame": "count", "_ms": "ms", "_s": "s"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return next(unit for suffix, unit in LAYER_UNITS.items() if name.endswith(suffix))


def median_of(samples: list, name: str) -> float:
    if not samples:
        raise RuntimeError(f"no successful sample for {name}")
    return statistics.median(samples)


def inprocess(cli_main, workload, seed, out, context, ledger, what):
    """One CLI run inside this process at one worker, within ``context``
    (a Tracer, or nothing); wall seconds or None."""
    argv = [*workload.argv, "--seed", str(seed), "--out", out]
    with context:
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception as exc:  # a crash counts as one failed operation
            code = repr(exc)
        elapsed = time.perf_counter() - start
    if not ledger.record(code == 0, f"{what}: exit {code}", is_check=False):
        return None
    check_output(workload, out, ledger, what)
    return elapsed


def pool_mean(samples: list) -> float:
    """Mean pool wall time.

    Under BLAS oversubscription the pool time is bimodal from run to run
    (about 1.8 s or 3.0 s for ber-hybrid on 2 CPUs, depending on where the
    scheduler puts the workers and their BLAS threads), so the median jumps
    between the modes while the mean moves only with their mix.
    """
    if not samples:
        raise RuntimeError("no successful sample for wall_s.pool")
    return statistics.fmean(samples)


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    ledger = Ledger()
    workers = len(os.sched_getaffinity(0))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    print(environment_block(workers), file=sys.stderr)
    samples: dict = {"w1": [], "pool": [], "rss": [], "setup": [], "plain": [], "traced": []}
    layers: dict = {}
    os.makedirs(RUNS, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=RUNS) as work_dir:
        if trace:
            os.environ["TIMNOMA_WORKERS"] = "1"
            sys.path.insert(0, SRC)
            from timnoma.cli import main as cli_main
        else:
            for i in range(SETUP_REPEATS):
                log = os.path.join(work_dir, f"setup-{i}.log")
                measured = run_child(setup_command(workload, seed), child_env(1), log, deadline, ledger, f"setup {i}")
                if measured is not None:
                    samples["setup"].append(measured[0])
        measure_end = time.perf_counter() + seconds
        round_no = 0
        while True:
            w1, pool = untraced_round(workload, seed, workers, work_dir, round_no, deadline, ledger)
            if w1 is not None:
                samples["w1"].append(w1[0])
                samples["rss"].append(w1[1])
            samples["pool"].extend(pool)
            if trace:
                # the same run in-process untraced, then traced: their ratio is the tracing overhead
                w1_out = os.path.join(work_dir, f"w1-{round_no}.csv")
                tracer = Tracer()
                for label, context in (("plain", contextlib.nullcontext()), ("traced", tracer)):
                    out = os.path.join(work_dir, f"{label}-{round_no}.csv")
                    what = f"round {round_no} {label}"
                    elapsed = inprocess(cli_main, workload, seed, out, context, ledger, what)
                    if elapsed is None:
                        continue
                    samples[label].append(elapsed)
                    if w1 is not None:
                        ledger.record(same_bytes(out, w1_out), f"{what}: CSV differs from the one-worker run")
                    if label == "traced":
                        for name, value in layer_metrics(tracer, workload).items():
                            layers.setdefault(name, []).append(value)
                        if round_no == 0:
                            print("\n".join(tracer.table()), file=sys.stderr)
            round_no += 1
            if time.perf_counter() >= measure_end:
                break
    print(f"{round_no} rounds; samples {samples}", file=sys.stderr)
    if trace:
        plain = median_of(samples["plain"], "untraced in-process run")
        traced = median_of(samples["traced"], "traced run")
        print(f"tracing overhead: in-process traced {traced:.3f} s against untraced {plain:.3f} s "
              f"({traced / plain - 1:+.1%}); wall_s.w1 {median_of(samples['w1'], 'wall_s.w1'):.3f} s",
              file=sys.stderr)
        values = {name: median_of(v, name) for name, v in layers.items()}
        values["harness.core_idle_s"] = workers * pool_mean(samples["pool"]) - median_of(samples["w1"], "wall_s.w1")
    else:
        values = {
            "wall_s.w1": median_of(samples["w1"], "wall_s.w1"),
            "wall_s.pool": pool_mean(samples["pool"]),
            "setup_s": median_of(samples["setup"], "setup_s"),
            "peak_rss_mb": median_of(samples["rss"], "peak_rss_mb"),
        }
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(v), "unit": unit_of(name)} for name, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="timnoma benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "timnoma", "cli.py")):
        print(f"error: no timnoma package under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be a non-negative 64-bit integer", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through the finally below so no child outlives the benchmark
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        stuck = [pgid for pgid in _started_groups if _live_members(pgid) and not _kill_group(pgid)]
    if stuck:
        print(f"error: process groups {stuck} could not be stopped", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
