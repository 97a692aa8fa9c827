"""staromega benchmark: seeded workloads, checked answers, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload words --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 0 --trace 1

Run from the repository root.  One workload runs in this single-threaded
process; `all` runs each workload in its own process, one after another.
The load is a closed loop with one client: a query is issued only after the
previous one returned.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced;
with `--trace 1` they are its per-layer metrics from one traced pass.  The
lines before it print every metric with its unit, the seed and the digest of
the generated inputs; the same record, and with tracing the spans, is
written to `.perfbench/` in the repository root.

Exit codes: 0 after a completed run (failed queries are counted, not
fatal), 1 when the worked examples disagree with their golden values or the
generated inputs are not reproducible, 2 when the library is not found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from timelimit import WINDOW, Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("words", "lasso", "normal-form", "matrix")
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
MIN_PASSES = 2
# The limits decide a run's outcome once: the first build and the first pass
# run under them.  Later builds and passes, traced or not, skip what timed out
# there (charging its limit) and give the rest this many times their limit, so
# that a slow moment of the machine or tracing overhead changes no outcome and
# the same seed always fails the same queries.  An untraced run makes its first
# pass in a forked child (see first_pass).
RERUN_LIMIT_SCALE = 20.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15,
                   help="untraced query phase in reference seconds, as whole passes: "
                        "round(SECONDS / the workload's nominal pass time), at least two")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    return p.parse_args(argv)


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def run_pass(w, limit_scale=1.0, skip=frozenset(), scope=None):
    """Issue every query once, in order; returns answers, per-query reference
    seconds (None when set-up failed) and the indices that hit the limit.
    A query that timed out, here or in the pass that produced `skip`, takes
    exactly its limit."""
    from timelimit import QueryTimeout, time_limit
    from workloads import Failure

    clock = w.clock
    answers, seconds, timed_out = [], [], set()
    for i, q in enumerate(w.queries):
        if q.call is None:
            answers.append(q.setup_failure)
            seconds.append(None)
            continue
        if i in skip:
            answers.append(Failure("timeout"))
            seconds.append(w.limit)
            continue
        guard = scope(i) if scope else nullcontext()
        clock.tick()
        slowdown = clock.slowdown
        start = perf_counter()
        try:
            with time_limit(w.limit * limit_scale * slowdown), guard:
                start = perf_counter()  # timed: the route's public call only
                answer = q.call()
        except QueryTimeout:
            answer = Failure("timeout")
            timed_out.add(i)
        except Exception as exc:  # each failure is counted by its class
            answer = Failure(type(exc).__name__)
        seconds.append(w.limit if i in timed_out else (perf_counter() - start) / slowdown)
        answers.append(answer)
        if i in timed_out:
            # free the interrupted query's cyclic garbage now, so that its
            # memory is not added to the next query's peak
            gc.collect()
    return answers, seconds, timed_out


def build(name, seed, smoke, clock, skip=None, scope=None):
    """A fresh build of the workload and its time in reference seconds.
    `skip` holds the set-up steps that timed out in an earlier build of this
    run; they are skipped and charged their limit, the others rerun under
    RERUN_LIMIT_SCALE times their limit."""
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed, smoke, clock)
    if skip is not None:
        w.skip_steps = set(skip)
        w.limit_scale = RERUN_LIMIT_SCALE
    if scope is not None:
        w.scope = scope
    mark = len(clock.samples)
    clock.sample()
    start = perf_counter()
    w.build()
    took = perf_counter() - start
    clock.sample()
    return w, took / clock.slowdown_since(mark) + w.limit * len(w.skip_steps)


def setup_repeated(name, seed, smoke, clock):
    """Build the workload SETUP_REPEATS times, and more while the builds took
    less than SETUP_MIN_SECONDS; returns the last build and the median
    set-up time.  Every build must produce the same inputs; the first one
    decides which set-up steps time out."""
    times, digests, w, skip = [], set(), None, None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        w = None  # let the previous build go before timing the next
        w, took = build(name, seed, smoke, clock, skip)
        if skip is None:
            skip = w.timed_out_steps
        times.append(took)
        digests.add(w.digest())
    if len(digests) != 1:
        fail(f"{name}: inputs differ between builds with seed {seed}")
    settle()
    return w, statistics.median(times)


def settle():
    """Collect the set-up's garbage and move what is left out of the
    collector's way: full collections during queries then scan the queries'
    own objects only, and do not stall a query for a time that depends on
    the set-up's size."""
    gc.collect()
    gc.freeze()


def golden_gate():
    from staromega import checks

    result = checks.examples_suite()
    if not result.ok:
        for name, ok, info in result.lines:
            if not ok:
                print(f"golden mismatch {name}: {info}", file=sys.stderr)
        fail("worked examples disagree with golden_examples.json")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tally(w, verdicts):
    from workloads import DECIDED, FAILED, INCONCLUSIVE

    status = Counter(v.status for v in verdicts)
    failures = Counter(v.reason for v in verdicts if v.status == FAILED)
    inconclusive = Counter(
        q.route for q, v in zip(w.queries, verdicts) if v.status == INCONCLUSIVE
    )
    return status[DECIDED], status[FAILED], failures, inconclusive


def first_pass(w):
    """Run the first pass in a forked child and return its per-query
    seconds, the queries that timed out and the tally of its verdicts.

    The first pass decides which queries time out.  A query cut by its limit
    holds memory in proportion to how far it got, which depends on the
    machine's speed (163 to 212 MB of peak memory on normal-form), so those
    queries run in the child and this process's peak covers completed work
    only."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            answers, seconds, timed_out = run_pass(w)
            decided, failed, failures, inconclusive = tally(w, w.judge(answers))
            with os.fdopen(write_fd, "w") as fh:
                json.dump({"seconds": seconds, "timed_out": sorted(timed_out),
                           "tally": [decided, failed, failures, inconclusive]}, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        fail(f"{w.name}: the first pass ended with status {status}")
    for _ in range(WINDOW):  # the child's kernel samples stayed in the child
        w.clock.sample()
    data = json.loads(text)
    decided, failed, failures, inconclusive = data["tally"]
    return data["seconds"], set(data["timed_out"]), (
        decided, failed, Counter(failures), Counter(inconclusive)
    )


def untraced(args):
    """Whole passes over the query list: --seconds divided by the workload's
    nominal pass time, and at least MIN_PASSES, so that a seed always makes
    the same number of queries.  A query's latency is its median over the
    passes, and throughput is queries per second of the median pass,
    counting the time spent in the calls.  All times are reference seconds
    (timelimit.Clock).  The first pass runs in a child (first_pass); the
    first pass in this process has its answers checked, and later passes
    reuse its verdicts when they repeat its answers."""
    w, setup_s = setup_repeated(args.workload, args.seed, args.smoke, Clock())
    passes = max(MIN_PASSES, round(args.seconds / w.pass_seconds))
    seconds, timed_out, (decided, failed, failures, inconclusive) = first_pass(w)
    per_query = [[] if t is None else [t] for t in seconds]
    pass_times = [sum(t for t in seconds if t is not None)]
    first_answers = first_verdicts = None
    for _ in range(passes - 1):
        gc.collect()
        answers, seconds, _ = run_pass(w, RERUN_LIMIT_SCALE, skip=timed_out)
        pass_times.append(sum(t for t in seconds if t is not None))
        if answers != first_answers:
            verdicts = w.judge(answers)
            if first_answers is None:
                first_answers, first_verdicts = answers, verdicts
        else:  # same answers as the checked first pass
            verdicts = first_verdicts
        d, f, fails, inc = tally(w, verdicts)
        decided += d
        failed += f
        failures += fails
        inconclusive += inc
        for samples, took in zip(per_query, seconds):
            if took is not None:
                samples.append(took)
    attempted = len(w.queries) * len(pass_times)
    latencies = sorted(statistics.median(s) for s in per_query if s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_qps": (len(w.queries) / statistics.median(pass_times), "1/s"),
        "latency_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "decided_ratio": (decided / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    shown = dict(metrics)
    shown["failed_ratio"] = (failed / attempted, "ratio")
    if args.workload in ("normal-form", "lasso"):
        shown["nf_vars_p50"] = (statistics.median(w.nf_vars) if w.nf_vars else 0, "count")
    extra = {
        "passes": len(pass_times),
        "pass_seconds": [round(t, 3) for t in pass_times],
        "latency_samples": len(latencies),
        "failures": dict(failures),
        "inconclusive": dict(inconclusive),
    }
    return w, attempted, failed, metrics, shown, extra


def traced(args):
    from spans import Tracer

    # untraced reference build and pass: which steps time out, and the time
    # the traced pass is compared with
    clock = Clock()
    w, _ = build(args.workload, args.seed, args.smoke, clock)
    settle()
    answers, seconds, timed_out = run_pass(w)
    verdicts = w.judge(answers)
    _, failed, failures, inconclusive = tally(w, verdicts)

    tracer = Tracer()
    tracer.install()
    tw, _ = build(args.workload, args.seed, args.smoke, clock, w.timed_out_steps, tracer.scope)
    settle()
    t_answers, t_seconds, _ = run_pass(
        tw, RERUN_LIMIT_SCALE, skip=timed_out, scope=tracer.scope
    )
    if t_answers != answers:
        fail(f"{args.workload}: traced answers differ from untraced ones")

    both = [
        (a, b) for i, (a, b) in enumerate(zip(seconds, t_seconds))
        if a is not None and i not in timed_out
    ]
    base = sum(a for a, _ in both)
    overhead = 100.0 * (sum(b for _, b in both) / base - 1) if base > 0 else 0.0

    layer = tracer.aggregate()
    attempted = len(w.queries)
    spec = benchmark_spec()["per_layer"]
    named = {m["name"].split(".", 1)[1] for m in spec if m["name"].startswith("failures.")}
    metrics = {}
    for m in spec:
        name = m["name"]
        if name == "failed_ratio":
            value = failed / attempted
        elif name == "trace.overhead_pct":
            value = overhead
        elif name.startswith("failures."):
            reason = name.split(".", 1)[1]
            value = (
                sum(n for r, n in failures.items() if r not in named)
                if reason == "other" else failures.get(reason, 0)
            )
        elif name.startswith("inconclusive."):
            value = inconclusive.get(name.split(".", 1)[1], 0)
        else:
            value = layer.get(name, 0)
        metrics[name] = (value, m["unit"])
    extra = {
        "failures": dict(failures),
        "inconclusive": dict(inconclusive),
        "spans": tracer.dump(),
    }
    return w, attempted, failed, metrics, dict(metrics), extra


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(args, w, attempted, failed, metrics, shown, extra):
    print(f"workload {args.workload}  seed {args.seed}  inputs {w.digest()}  "
          f"trace {args.trace}  queries {len(w.queries)} per pass, {attempted} attempted")
    if "passes" in extra:
        print(f"  {extra['passes']} passes of {extra['pass_seconds']} s; latency is each "
              f"query's median over the passes, {extra['latency_samples']} queries timed")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(f"  failures by reason {extra['failures']}  inconclusive by route {extra['inconclusive']}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_digest": w.digest(),
        "trace": args.trace,
        "smoke": args.smoke,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        **extra,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    result = {
        "correct": "disagree" not in extra["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"{name}: exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "staromega" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
        return 0
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing, so set and dict orders (and with them the
        # traced counts) repeat from run to run; exec replaces this process
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__))] + sys.argv[1:], env)
    sys.path.insert(0, str(SRC))
    golden_gate()
    outcome = traced(args) if args.trace else untraced(args)
    report(args, *outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
