"""Run one workload of the torichk benchmark and print its metrics.

    python3 perfbench/run.py --workload verify-n1 --seed 7 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
One closed-loop caller runs the operations of a workload's pass round robin,
each timed on its own, until ``--seconds`` have passed; a pass takes the sum
over its operations of each one's median time.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics.  Human-readable lines and
an ``info`` line (environment, per-operation digests and times) come first;
the last line is the result object ``{"correct", "attempted", "failed",
"metrics"}``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from layers import Tracer, layer_metrics, self_test  # noqa: E402
from workloads import VERIFY_CHECKS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
SETUP_CODE = ("import time; t0 = time.perf_counter(); import torichk; "
              "torichk.catalog(); print(repr(time.perf_counter() - t0))")

# what a workload's pass time is called in the printed table
PASS_NAME = {"verify-n1": "verify_s", "verify-n2": "verify_s",
             "export-grid": "grid pass", "classify-strata": "classify_s"}
OP_NAME = {"verify-n1": "checks", "verify-n2": "checks",
           "export-grid": "grid rows", "classify-strata": "CLI reports"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_once(root, env):
    """Seconds a fresh interpreter takes to import torichk and build the catalog."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(root, src, tk, nproc):
    import numpy
    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy without mode="dicts"
        pass
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((src / "torichk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc, "TORIC_HK_THREADS": os.environ["TORIC_HK_THREADS"],
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": blas, "git_sha": sha, "src_sha256": h.hexdigest()[:16],
            "torichk": tk.__version__}


# kernel runs on each side of an operation whose median sets the speed it ran at
KERNEL_WINDOW = 3


class Passes:
    """Operations of a workload run round robin, each timed on its own.

    The calibration kernel (`reference.py`) runs between operations; each
    operation's time is also taken against the median kernel time of the
    KERNEL_WINDOW runs before it and as many after.  The first output of each
    operation is kept for the checks; every repeat must hash to the same
    digest, or it is listed in `mismatch`.
    """

    def __init__(self, workload):
        self.workload = workload
        count = len(workload.labels)
        self.samples = [[] for _ in range(count)]   # seconds
        self._kernel_at = [[] for _ in range(count)]  # index of the kernel run before
        self.kernels = []                           # seconds of each kernel run
        self.first = [None] * count
        self.digests = [None] * count
        self.mismatch = set()
        self.calls = 0
        self._kernel_end = None

    def _kernel(self):
        self.kernels.append(reference.measure())
        self._kernel_end = time.perf_counter()

    @property
    def rounds(self):
        return self.calls // len(self.samples)

    def step(self):
        """Run the next operation; returns its time in seconds and its output."""
        w = self.workload
        i = self.calls % len(self.samples)
        # the kernel run after the previous operation counts as this one's
        # "before" unless something else ran in between
        if self._kernel_end is None or time.perf_counter() - self._kernel_end > 1e-3:
            self._kernel()
        self._kernel_at[i].append(len(self.kernels) - 1)
        t0 = time.perf_counter()
        raw = w.run(i)
        dt = time.perf_counter() - t0
        self._kernel()
        out = w.result(i, raw)
        d = w.digest(i, out)
        if self.first[i] is None:
            self.first[i], self.digests[i] = out, d
        elif d != self.digests[i]:
            self.mismatch.add(w.labels[i])
        self.samples[i].append(dt)
        self.calls += 1
        return dt, out

    def round(self):
        """Run every operation once, from the first; returns the summed time
        and the outputs."""
        assert self.calls % len(self.samples) == 0
        steps = [self.step() for _ in self.samples]
        return sum(dt for dt, _ in steps), [out for _, out in steps]

    def scaled(self):
        """Each operation's times at reference speed: the time it would take
        where the kernel takes REF_S seconds."""
        out = []
        for times, at in zip(self.samples, self._kernel_at):
            out.append([dt / statistics.median(
                self.kernels[max(0, k + 1 - KERNEL_WINDOW):k + 1 + KERNEL_WINDOW])
                * reference.REF_S for dt, k in zip(times, at)])
        return out

    def pass_s(self, scaled=True):
        """A pass: the sum over the operations of each one's median time."""
        return sum(statistics.median(s) for s in (self.scaled() if scaled else self.samples))


def run_plain(name, workload, seconds, root, src):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    setup = []
    passes = Passes(workload)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # set-up samples are spread over the run, so they see the same
        # machine load as the operations do
        while len(setup) < SETUP_REPEATS * min(1.0, elapsed / seconds):
            setup.append(setup_once(root, env))
        if passes.rounds and elapsed >= seconds:
            break
        passes.step()
    first = workload.check(passes.first)
    # wall time: the kernel follows the speed of compute, not of loading
    # numpy's shared libraries, which is most of the import
    setup_s = statistics.median(setup)
    pass_s = passes.pass_s()
    pass_wall = passes.pass_s(scaled=False)
    ops = first.attempted
    metrics = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "ops_per_s": ops / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    runs = min(len(s) for s in passes.samples)
    lines = [
        f"  setup_s              {setup_s:.4f} s    median of {len(setup)} fresh interpreters, wall",
        f"  pass_s               {pass_s:.4f} s    {PASS_NAME[name]}: sum over "
        f"{len(passes.samples)} operations of each one's median of {runs} or more runs, "
        f"at reference speed ({pass_wall:.4f} s wall)",
        f"  ops_per_s            {ops / pass_s:.2f} 1/s  {OP_NAME[name]} per second ({ops} per pass)",
        f"  fail_frac            {first.failed / first.attempted:.4f}      "
        f"{first.failed} failed / {first.attempted} {OP_NAME[name]} attempted",
        f"  peak_rss_mb          {metrics['peak_rss_mb']:.1f} MB",
    ]
    if name.startswith("verify"):
        lines += [
            f"  growth_exponent_err  {first.layer['verify.growth_exponent_err']:.6g}"
            "        max |fitted - expected| of the growth checks",
            f"  residual_margin      {first.layer['verify.residual_margin']:.6g}"
            "        max max_residual / tolerance",
        ]
    return metrics, first, passes, lines, setup


def run_traced(name, workload, seconds, tk):
    tracer = Tracer(tk)
    passes = Passes(workload)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    # an untimed first round, so first-call costs do not land on either side
    passes.round()
    first = workload.check(passes.first)
    while not traced or time.perf_counter() - start < seconds:
        dt, outs = passes.round()
        plain.append(dt)
        layers.append(workload.check(outs).layer)
        with tracer:
            traced.append(passes.round()[0])
    metrics = layer_metrics(tracer.stats, len(traced))
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    # wall times the program reports itself come from the untraced rounds
    for check in VERIFY_CHECKS:
        key = f"verify.{check}.s"
        metrics[key] = statistics.median(layer.get(key, 0.0) for layer in layers)
    metrics["verify.growth_exponent_err"] = first.layer.get("verify.growth_exponent_err", 0.0)
    metrics["verify.residual_margin"] = first.layer.get("verify.residual_margin", 0.0)
    problems = self_test(name, metrics)
    lines = [f"  traced {len(traced)} passes, untraced {len(plain)}; "
             f"trace_overhead_frac {metrics['trace_overhead_frac']:.4f}"]
    lines += [f"  trace self-test: {p}" for p in problems] or ["  trace self-test: ok"]
    return metrics, first, passes, lines, problems


def main(argv=None):
    args = parse_args(argv)
    root = HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    src = root / "src"
    if not (src / "torichk" / "__init__.py").is_file():
        print(f"perfbench: no torichk package under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # growth_fit would otherwise start up to 8 threads whatever the core count
    os.environ["TORIC_HK_THREADS"] = str(nproc)
    sys.path.insert(0, str(src))
    import torichk as tk
    import torichk.cli  # noqa: F401 - not imported by the package itself

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        workload = WORKLOADS[args.workload](tk, args.seed, workdir)
        setup = []
        if args.trace:
            values, first, passes, lines, problems = run_traced(
                args.workload, workload, args.seconds, tk)
            section = spec["per_layer"]
        else:
            values, first, passes, lines, setup = run_plain(args.workload, workload,
                                                            args.seconds, root, src)
            problems = []
            section = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in section}:
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in section})} "
                         "differ between run.py and BENCHMARK.json")
    wrong = list(first.wrong)
    if passes.mismatch:
        wrong.append(f"outputs differ between runs of one operation: {sorted(passes.mismatch)}")
    for w in wrong:
        print(f"perfbench: {w}", file=sys.stderr)
    correct = not wrong and not problems

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"operations={passes.calls} correct={correct}")
    for line in lines:
        print(line)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(root, src, tk, nproc), "cases": first.cases,
            "op_times_s": {label: [round(t, 6) for t in times]
                           for label, times in zip(workload.labels, passes.samples)},
            "op_times_at_reference_s": {
                label: [round(t, 6) for t in times]
                for label, times in zip(workload.labels, passes.scaled())},
            "setup_samples_s": setup}
    print("info " + json.dumps(info, sort_keys=True))
    # one pass's operations, each counted once: every repeat of an operation
    # must reproduce its first output, so the counts depend on the seed alone
    result = {
        "correct": correct,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
