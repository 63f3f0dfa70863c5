"""Run one benchmark workload against the jamoparse sources of this checkout.

    python3 perfbench/run.py --workload parse-zipf --seed 1 --seconds 24 --trace 0

Inputs are generated from ``--seed`` in a child process, then reps run
until ``--seconds`` is used up (at least three). With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` reps
alternate untraced and traced and it carries the per-layer metrics. The
line before it is a JSON record with the environment fingerprint, digests
and per-rep figures.
"""
import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
#: Generating inputs may take this long before the run is abandoned.
PREPARE_TIMEOUT_S = 240
END_TO_END_UNITS = {"tok_s": "tok/s", "sent_ms_p50": "ms", "sent_ms_tail": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import jamoparse from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "jamoparse"
    if not (package / "__init__.py").is_file():
        sys.exit("perfbench: no jamoparse sources at %s; run from a full checkout" % package)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import jamoparse
    if Path(jamoparse.__file__).resolve().parent != package.resolve():
        sys.exit("perfbench: imported jamoparse from %s, not %s" % (jamoparse.__file__, package))
    from perfbench import tracer, workloads
    return tracer, workloads


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint(args, workload) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "git_revision": git_revision(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "processor": platform.processor() or "unknown",
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.describe(),
    }


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs now.

    Recorded beside the metrics, never folded into them, so that runs made
    while the machine was slower can be told apart.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def prepare_inputs(workload_name: str, seed: int, directory: str) -> None:
    """Generate inputs in a child process, so its memory is not in peak_rss_mb."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "from perfbench import workloads as w; "
            "w.prepare(w.WORKLOADS[sys.argv[3]], int(sys.argv[4]), sys.argv[5])")
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT), workload_name,
                    str(seed), directory], check=True, timeout=PREPARE_TIMEOUT_S)


def end_to_end(workload, reps) -> dict[str, float]:
    from perfbench.workloads import percentile
    # Every rep does the same work on the same files (the digests must agree),
    # so what differs between reps is interference from the shared host, which
    # only ever adds time. A sentence's latency is therefore its fastest rep,
    # and throughput that of the fastest rep; p50 and tail are then taken over
    # sentences.
    latencies = [min(per_sentence) for per_sentence in
                 zip(*(rep.latencies_ms for rep in reps if rep.latencies_ms))] or [0.0]
    return {
        "tok_s": max([rep.phase_tokens[workload.kind] / rep.timed_s
                      for rep in reps if rep.timed_s > 0] or [0.0]),
        "sent_ms_p50": statistics.median(latencies),
        "sent_ms_tail": percentile(latencies, workload.tail_percentile),
        "setup_s": statistics.median(rep.setup_s for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer_mod, tracer, workload, reps) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced reps, and why any are missing."""
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    available, problems = tracer.coverage(train=workload.kind == "train")
    tokens: dict[str, int] = {}
    for rep in traced:
        for phase, count in rep.phase_tokens.items():
            tokens[phase] = tokens.get(phase, 0) + count
    stats = tracer_mod.summarize(tracer.spans)
    metrics = tracer_mod.layer_metrics(
        stats, workload.kind, tokens,
        int(untraced[0].facts.get("nn.optimizer_bytes_per_update", 0)), tracer.counters, available)
    metrics.update({k: v for k, v in untraced[0].facts.items()
                    if k != "nn.optimizer_bytes_per_update"})
    metrics["traced.overhead_frac"] = (
        statistics.median(r.timed_s / r.phase_tokens[workload.kind] for r in traced)
        / statistics.median(r.timed_s / r.phase_tokens[workload.kind] for r in untraced) - 1.0)
    if ("train", "parser.train") in stats:
        _, inclusive, self_time, _ = stats[("train", "parser.train")]
        print("parser.train wall time not covered by a layer span: %.2f%%"
              % (100 * self_time / inclusive))
    return metrics, problems


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--workload", required=True)
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--seconds", type=float, required=True)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = cli.parse_args(argv)
    tracer_mod, workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        cli.error("unknown workload %r; choose from %s"
                  % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]

    # a terminated run still removes its inputs and stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="%s-%d-" % (workload.name, args.seed), dir=WORK)
    try:
        started = time.perf_counter()
        prepare_inputs(workload.name, args.seed, scratch)
        prepare_s = time.perf_counter() - started
        files = workloads.input_files(workload, scratch)
        ref_before = reference_loop_s()
        tracer = tracer_mod.Tracer() if args.trace else None
        reps = []
        started = time.perf_counter()
        while True:
            traced = tracer is not None and len(reps) % 2 == 1
            # each rep stands for a fresh CLI process: start it without the
            # previous rep's cyclic garbage (autograd graphs hold parameters)
            gc.collect()
            if traced:
                tracer.install()
            try:
                rep = workloads.run_rep(workload, files, tracer if traced else None,
                                        scratch, args.seed)
            finally:
                if traced:
                    tracer.uninstall()
            reps.append(rep)
            elapsed = time.perf_counter() - started
            if len(reps) >= workloads.MIN_REPS and elapsed + elapsed / len(reps) > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [p for rep in reps for p in rep.problems]
    for key in reps[0].digests:
        if len({rep.digests.get(key) for rep in reps}) != 1:
            problems.append("%s differs between reps of one run" % key)
    if args.trace:
        metrics, trace_problems = per_layer(tracer_mod, tracer, workload, reps)
        problems += trace_problems
        tracer_mod.write_spans(tracer.spans, WORK / ("trace-%s.tsv" % workload.name))
        units = {name: tracer_mod.unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(workload, reps)
        units = END_TO_END_UNITS
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)

    for name, value in metrics.items():
        print("%-34s %14.6g %s" % (name, value, units[name]))
    for problem in problems[:20]:
        print("problem: %s" % problem, file=sys.stderr)
    print(json.dumps({
        "fingerprint": fingerprint(args, workload), "prepare_s": prepare_s,
        "reference_loop_s": {"before": ref_before, "after": reference_loop_s()},
        "reps": len(reps), "traced_reps": sum(rep.traced for rep in reps),
        "sentences": {"attempted": attempted, "failed": failed},
        "timed_tokens_per_rep": reps[0].phase_tokens.get(workload.kind, 0),
        "tail_percentile": workload.tail_percentile,
        "latency_samples": len(reps[0].latencies_ms),
        "digests": reps[0].digests, "problems": problems[:20],
        "workload_facts": next((rep.facts for rep in reps if not rep.traced), {}),
        "per_rep": [{"traced": r.traced, "setup_s": r.setup_s, "timed_s": r.timed_s,
                     "sent_ms_p50": statistics.median(r.latencies_ms or [0.0])}
                    for r in reps],
    }, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
