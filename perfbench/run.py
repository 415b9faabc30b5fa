"""The repository's benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout. Ray is started with ``num_cpus=1`` and,
once set up, the driver and every Ray process are pinned to one CPU: the
single-CPU host the workloads were sized for, whatever the machine has. The loop is closed with a single client:
the next operation starts when the previous one returns, until
``--seconds`` have passed. Every operation writes to a fresh output
directory made outside its timing, and its output is checked outside its
timing too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
operations for half the time and traced ones for the other half, prints
the per-layer metrics (median over the traced operations) and the tracing
overhead, and writes the span log to ``.perfbench_work/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
exceptions, timeouts, wrong outputs and undetected mutations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time

from spans import (
    LAYER_METRICS,
    Patches,
    Tracer,
    median,
    pass_metrics,
    replay_partition,
    self_time_by_layer,
    write_span_log,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

NUM_CPUS = 1
SETUP_REPS = 3
OP_TIMEOUT_S = 60.0
RSS_SAMPLE_S = 0.25
# longest Ray temp dir whose session socket paths fit in AF_UNIX's 107 bytes
RAY_TMP_MAX = 40

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("seq_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


def use_checkout() -> None:
    """Import the package from this checkout, in the driver and in the Ray
    workers it starts."""
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )


def log(msg: str) -> None:
    print(f"[perfbench {time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    kw = {}
    tmp = os.path.join(WORK, "ray")
    if len(tmp) <= RAY_TMP_MAX:
        kw["_temp_dir"] = tmp
    ray.init(
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        **kw,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def _tree_pids(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def pin_tree(root: int, cpu: int) -> None:
    """Pin every thread of ``root`` and of all its descendants to one CPU.
    Threads and processes they start later inherit it."""
    for p in _tree_pids(root):
        try:
            tids = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue  # exited meanwhile
        for t in tids:
            try:
                os.sched_setaffinity(int(t), {cpu})
            except OSError:
                continue


def tree_rss_mb(root: int) -> float:
    """Summed resident memory of ``root`` and all its descendants (the
    driver, and the Ray processes it started)."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for p in _tree_pids(root):
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total / 2**20


class RssSampler:
    """Peak of ``tree_rss_mb`` sampled on a thread while the block runs."""

    def __init__(self):
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        pid = os.getpid()
        while True:
            self.peak = max(self.peak, tree_rss_mb(pid))
            if self._stop.wait(RSS_SAMPLE_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


def call_with_timeout(fn, timeout: float):
    """(finished, value, error) of ``fn()`` run on a thread; a call still
    running at ``timeout`` is abandoned."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except Exception as e:  # noqa: BLE001 — counted as a failed operation
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    if t.is_alive():
        return False, None, TimeoutError(f"operation exceeded {timeout:.0f} s")
    return True, box.get("value"), box.get("error")


class Runner:
    def __init__(self, wl, read_proc_stat):
        self.wl = wl
        self.read_proc_stat = read_proc_stat
        self.attempted = 0
        self.failed = 0
        self.n = 0

    def restart(self) -> None:
        """A wedged operation leaves the session unusable: start a new one
        and warm it up again."""
        import ray

        from etl_data_validation_kio_ray.sources.synth import partition_file

        ray.shutdown()
        start_ray()
        self.wl.warm_up(partition_file(self.wl.corpus, 0))

    def measure(self, seconds: float, patches=None) -> list[dict]:
        """Closed loop for ``seconds``; one record per call of the workload."""
        records = []
        first = self.n
        t_end = time.perf_counter() + seconds
        while self.n == first or time.perf_counter() < t_end:
            out = os.path.join(self.wl.state, f"op-{self.n}")
            os.makedirs(out)
            if patches is not None:
                patches.tracer = Tracer(self.n)
            self.n += 1
            s0 = self.read_proc_stat()
            t0 = time.perf_counter()
            done, res, err = call_with_timeout(lambda: self.wl.run(out), OP_TIMEOUT_S)
            wall = time.perf_counter() - t0
            s1 = self.read_proc_stat()
            if err is not None:
                print(f"operation failed: {err!r}", file=sys.stderr)
                self.attempted += self.wl.ops_per_call
                self.failed += self.wl.ops_per_call
                if not done:
                    self.restart()
                shutil.rmtree(out, ignore_errors=True)
                continue
            if patches is not None:
                patches.account()
            outcome = self.wl.check(res, wall)
            log(
                f"op {self.n}: {wall:.3f} s, busy {s1['busy'] - s0['busy']:.2f} s,"
                f" steal {s1['steal'] - s0['steal']:.2f} s, failed {outcome.failed}"
            )
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            records.append(
                {
                    "wall": wall,
                    "busy": s1["busy"] - s0["busy"],
                    "steal": s1["steal"] - s0["steal"],
                    "rows": outcome.rows,
                    "latencies": outcome.latencies,
                    "tracer": patches.tracer if patches is not None else None,
                }
            )
            shutil.rmtree(out, ignore_errors=True)
        return records


def end_to_end(setup: list[float], records: list[dict], peak_rss: float) -> dict:
    lat = [x for r in records for x in r["latencies"]]
    return {
        "setup_s": median(setup),
        "wall_s": median(r["wall"] for r in records),
        "seq_per_s": median(r["rows"] / r["wall"] for r in records),
        "op_p50_s": median(lat),
        "cpu_s": median(r["busy"] for r in records),
        "peak_rss_mb": peak_rss,
    }


def per_layer(plain: list[dict], traced: list[dict], replay: dict) -> dict:
    passes = [pass_metrics(r["tracer"], replay) for r in traced]
    out = {name: median(p[name] for p in passes) for name in passes[0]}
    out["host.steal_s"] = median(r["steal"] for r in traced)
    out["trace.overhead_s"] = median(r["wall"] for r in traced) - median(
        r["wall"] for r in plain
    )
    units = dict(LAYER_METRICS)
    return {k: (out[k], units[k]) for k, _ in LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_checkout()
    import pyarrow
    import ray

    import etl_data_validation_kio_ray  # noqa: F401 — fail before any output
    from bench import _read_proc_stat
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](WORK, args.seed)
    t0 = time.perf_counter()
    wl.generate()
    log(f"corpus ready in {time.perf_counter() - t0:.1f} s")

    setup = []
    try:
        for i in range(SETUP_REPS):
            if i:
                ray.shutdown()
            t0 = time.perf_counter()
            start_ray()
            wl.setup()
            setup.append(time.perf_counter() - t0)
            log(f"set-up {i + 1}/{SETUP_REPS}: {setup[-1]:.2f} s")
        wl.prepare_check()
        log("expected outputs computed")
        # Ray starts faster on every CPU; the operations then run on one, as
        # on a single-CPU host. Work spread over several vCPUs of a shared VM
        # is exposed to steal on each of them, which made timings bimodal.
        pin_tree(os.getpid(), min(os.sched_getaffinity(0)))

        runner = Runner(wl, _read_proc_stat)
        if not args.trace:
            with RssSampler() as rss:
                records = runner.measure(args.seconds)
            if not records:
                raise SystemExit("no operation succeeded; nothing to report")
            values = end_to_end(setup, records, rss.peak)
            units = dict(END_TO_END)
            metrics = {k: (values[k], units[k]) for k, _ in END_TO_END}
            steal = [r["steal"] for r in records]
        else:
            plain = runner.measure(args.seconds / 2)
            with Patches() as patches:
                traced = runner.measure(args.seconds / 2, patches)
            if not plain or not traced:
                raise SystemExit("no operation succeeded; nothing to report")
            replay = replay_partition(patches.replay_source)
            metrics = per_layer(plain, traced, replay)
            steal = [r["steal"] for r in traced]
            write_span_log(
                os.path.join(WORK, "spans", f"{wl.name}-seed{wl.seed}.jsonl"),
                [r["tracer"] for r in traced],
            )
            print(json.dumps({"self_time_s": self_time_by_layer(traced[-1]["tracer"])}))
    finally:
        ray.shutdown()
        wl.cleanup()
        shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)

    print(
        json.dumps(
            {
                "host": {
                    "num_cpus": NUM_CPUS,
                    "host_cpus": len(os.sched_getaffinity(0)),
                    "ray": ray.__version__,
                    "pyarrow": pyarrow.__version__,
                    "steal_s_per_op": steal,
                }
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
