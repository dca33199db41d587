#!/usr/bin/env python3
"""The eomod benchmark: seeded workloads, an independent oracle, and metrics.

    python3 perfbench/run.py --workload ref-cli --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and uses the package in ``src/`` (nothing
is installed).  One closed-loop client runs one job at a time; in-process
workloads run in one worker process, ``cold-spin`` starts a fresh
interpreter per job.  Every output is checked by ``oracle.py`` after the
job, outside the timed window.  Times are reported in reference seconds:
each is scaled by a host-speed probe timed next to it (``calibrate.py``).  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics of a traced rerun of the
same jobs.  A full record of the run, with the machine's facts, goes to
``.perfbench/results/``.  See perfbench/README.md for the workloads and
what each metric is expected to show.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# a run that is not done after this long is stopped and reports no result
RUN_LIMIT_S = 170.0
# set-ups measured per run (setup_s is their median); warm-sweep's set-up
# solves the n = 301 eigenproblem, about 20 s, so it is measured once
SETUPS = {"ref-cli": 9, "cold-spin": 9, "warm-sweep": 1, "verify-quick": 9}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (at most nproc): on a shared 2-vCPU host a second thread
# makes every matrix product wait for the busier core, which doubles the
# spread of the probe and of the jobs.
BLAS_THREADS = 1
# host-speed probing before the first worker process (calibrate.py)
PROBE_S = 0.5

sys.path.insert(0, str(HERE))
import jobs as joblist  # noqa: E402  (stdlib only; numpy comes after BLAS_ENV)


class RunFailed(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def nproc():
    return len(os.sched_getaffinity(0))


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts(threads):
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version"),
                "config": deps.get("openblas configuration")}
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "git_commit": git_commit(ROOT)}


class Runner:
    """Starts worker processes for one run and collects their reports.

    Host-speed probes run in this process while no worker runs: for
    ``PROBE_S`` before the first worker and after each worker for a share of
    its run time (``Probe.after``); ``probe_before`` and ``probe_after`` hold
    the two samples around the last worker.
    """

    def __init__(self, workdir, env, deadline):
        import calibrate

        self.workdir = workdir
        self.env = env
        self.deadline = deadline
        self.count = 0
        self.probe = calibrate.Probe()
        self.probe_after = self.probe.sample(PROBE_S)
        self.probe_before = None

    def spawn(self, mode, spec_path, *extra):
        """Run worker.py to completion; returns (start time, exit code, report,
        tail of its stderr when it wrote no report)."""
        self.probe_before = self.probe_after
        started = time.monotonic()
        result = self._spawn(mode, spec_path, *extra)
        self.probe_after = self.probe.after(time.monotonic() - started)
        return result

    def _spawn(self, mode, spec_path, *extra):
        self.count += 1
        report = self.workdir / f"report-{self.count}.json"
        log = self.workdir / f"worker-{self.count}.log"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, str(spec_path),
               str(report), *map(str, extra)]
        with open(log, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RunFailed(f"worker {mode} passed the {RUN_LIMIT_S:.0f} s run limit")
            except BaseException:  # interrupted or terminated: take the worker along
                proc.kill()
                proc.wait()
                raise
        if not report.is_file():
            return t0, rc, None, log.read_text(errors="replace")[-2000:]
        rep = json.loads(report.read_text())
        rep["jobs_path"] = str(report) + ".jobs"
        rep["csv_path"] = str(report) + ".csv"
        return t0, rc, rep, ""


def run_in_process(runner, spec_path, workload):
    import calibrate

    setups, wall_setups, imports = [], [], []
    rep = None
    for k in range(SETUPS[workload]):
        mode = "serve" if k == SETUPS[workload] - 1 else "setup"
        t0, rc, rep, tail = runner.spawn(mode, spec_path)
        if rep is None or rc != 0:
            raise RunFailed(f"worker {mode} exited {rc}:\n{tail}")
        # the serve worker runs its jobs after set-up, so the probe after its
        # set-up is the one it took itself when it was ready
        after = rep["ready_probe"] if mode == "serve" else runner.probe_after
        wall_setups.append(rep["ready"] - t0)
        setups.append(wall_setups[-1] * calibrate.scale(runner.probe_before, after))
        imports.append(rep["import_s"])
    with open(rep["jobs_path"], encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    with open(rep["csv_path"], "rb") as fh:
        outputs = fh.read()
    probes = rep["probes"]
    for rec in lines:
        if "csv_at" in rec:
            start, size = rec.pop("csv_at")
            rec["csv"] = outputs[start:start + size].decode()
        rec.setdefault("diag", {})["eigen_recon"] = rep["eigen_recon"]
        if "probe" in rec:
            i = rec["probe"]
            rec["ref_t"] = rec["t"] * calibrate.scale(probes[i - 1], probes[i])
    return {"setups": setups, "wall_setups": wall_setups, "imports": imports,
            "probes": probes,
            "records": [r for r in lines if not r.get("traced")],
            "traced": [r for r in lines if r.get("traced")],
            "totals": rep.get("totals", {}),
            "rss": [rep["peak_rss_mb"]], "notes": rep["notes"]}


def _cold_record(runner, spec_path, job_id):
    """One fresh interpreter per job; job time is spawn to the CLI's return."""
    import calibrate

    t0, rc, rep, tail = runner.spawn("job", spec_path, job_id)
    if rep is None:
        rep = {"id": job_id, "error": f"job process exited {rc}: {tail[-300:]}",
               "t_done": time.monotonic()}
    rep["t"] = rep["t_done"] - t0
    rep["ref_t"] = rep["t"] * calibrate.scale(runner.probe_before, runner.probe_after)
    return rep


def run_cold(runner, spec_paths, seconds, trace, n_jobs):
    import calibrate

    setups, wall_setups = [], []
    for _ in range(SETUPS["cold-spin"]):
        t0, rc, rep, tail = runner.spawn("setup", spec_paths[0])
        if rep is None or rc != 0:
            raise RunFailed(f"worker setup exited {rc}:\n{tail}")
        wall_setups.append(rep["ready"] - t0)
        setups.append(wall_setups[-1]
                      * calibrate.scale(runner.probe_before, runner.probe_after))
    # the sample after a short set-up is short; the first job gets a longer one
    runner.probe_after = runner.probe.sample(PROBE_S)
    # as in worker._loop: with tracing, each job also runs traced, and the
    # two runs alternate which goes first
    budget = seconds / 2.0 if trace else seconds
    records, traced, busy = [], [], 0.0
    while busy < budget or not records:
        k = len(records)
        if trace and k % 2:
            traced.append(_cold_record(runner, spec_paths[1], k % n_jobs))
        records.append(_cold_record(runner, spec_paths[0], k % n_jobs))
        busy += records[-1]["t"]
        if trace and not k % 2:
            traced.append(_cold_record(runner, spec_paths[1], k % n_jobs))
    totals = {}
    for rec in traced:
        for key, value in rec.get("totals", {}).items():
            totals[key] = (max(totals.get(key, 0.0), value) if key.endswith("max_size")
                           else totals.get(key, 0.0) + value)
    notes = sorted({n for r in records + traced for n in r.get("notes", [])})
    return {"setups": setups, "wall_setups": wall_setups,
            "imports": [r["import_s"] for r in records if "import_s" in r],
            "records": records, "traced": traced, "totals": totals,
            "rss": [r["peak_rss_mb"] for r in records if "peak_rss_mb" in r],
            "notes": notes}


def evaluate(jobs, records):
    """Oracle verdicts: (ok flags, wrong-answer count, first failure reasons)."""
    import oracle

    ok, wrong, reasons = [], 0, []
    for rec in records:
        problems = oracle.check_job(jobs[rec["id"]], rec)
        ok.append(not problems)
        if problems and not rec.get("error") and rec.get("rc", 0) == 0:
            wrong += 1
        if problems and len(reasons) < 10:
            reasons.append(f"job {rec['id']}: {'; '.join(problems)[:300]}")
    return ok, wrong, reasons


def high_percentile(times):
    """The highest percentile with at least ten samples above it, if any."""
    n = len(times)
    if n < 20:
        return None
    q = 1.0 - 10.0 / n
    return round(100 * q, 1), statistics.quantiles(times, n=1000)[int(q * 1000) - 1]


def end_to_end(run, ok, key="ref_t"):
    """The end-to-end metrics, in reference seconds; ``key="t"`` and
    ``"wall_setups"`` give the same metrics in raw wall time."""
    times = [r[key] for r in run["records"]]
    good = [t for t, flag in zip(times, ok) if flag]
    if not good:
        raise RunFailed("no job passed its checks; nothing to time")
    setups = run["setups"] if key == "ref_t" else run["wall_setups"]
    return {"jobs_per_s": sum(ok) / sum(times),
            "job_p50_s": statistics.median(good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(run["rss"])}


def per_layer(run, check_names):
    """Per-job means of the traced pass, named as in BENCHMARK.json."""
    t = run["totals"]
    n = max(len(run["traced"]), 1)

    def per(key):
        return t.get(key, 0.0) / n

    m = {}
    for layer in ("numkernel", "su2", "wigner", "dynamics", "unrestricted",
                  "detection", "cli", "verify", "job"):
        m[f"{layer}.self_s"] = per(f"{layer}.self_s")
    for group in ("numkernel.eigen", "wigner.d", "dynamics.propagator",
                  "unrestricted.bessel", "detection.scan"):
        m[f"{group}.calls"] = per(f"{group}.calls")
        m[f"{group}.self_s"] = per(f"{group}.self_s")
    m["numkernel.eigen.n3"] = per("numkernel.eigen.n3")
    m["numkernel.eigen.max_dim"] = t.get("numkernel.eigen.max_size", 0.0)
    m["wigner.d.n3"] = per("wigner.d.n3")
    d_calls = t.get("wigner.d.calls", 0.0)
    m["wigner.eigen_per_d"] = t.get("wigner.eigen_calls", 0.0) / d_calls if d_calls else 0.0
    m["dynamics.occupations.calls"] = per("dynamics.occupations.calls")
    m["unrestricted.norm_fail"] = per("unrestricted.norm.errors")
    m["detection.kernel_evals"] = per("detection.scan.size")
    m["cli.bytes_out"] = sum(r.get("bytes", 0) for r in run["traced"]) / n
    m["cli.exit_nonzero"] = per("cli.main.nonzero") + per("cli.main.errors")
    for name in check_names:
        m[f"verify.check.{name}.s"] = per(f"verify.check.{name}.s")
    m["proc.import_s"] = statistics.median(run["imports"]) if run["imports"] else 0.0
    untraced = statistics.median(r["t"] for r in run["records"])
    traced = statistics.median(r["t"] for r in run["traced"])
    m["trace.job_p50_s"] = traced
    m["trace.untraced_job_p50_s"] = untraced
    m["trace.overhead"] = traced / untraced - 1.0
    m["trace.root_s"] = per("root_s")
    m["trace.spans"] = per("spans")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    ap.add_argument("--seed", type=int, default=joblist.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "eomod" / "__init__.py").is_file():
        print(f"perfbench: no eomod package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    facts = machine_facts(threads)

    # SIGTERM unwinds like an exception, so workers are stopped and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = _run(args, bench, env, facts, workdir)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run(args, bench, env, facts, workdir):
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = Runner(workdir, env, deadline)
    jobs = joblist.generate(args.workload, args.seed)
    spec = {"root": str(ROOT), "workdir": str(workdir), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds}
    spec_paths = []
    for trace in (0, 1):
        path = workdir / f"spec-{trace}.json"
        path.write_text(json.dumps(dict(spec, trace=trace)))
        spec_paths.append(path)
    if args.workload == "cold-spin":
        run = run_cold(runner, spec_paths, args.seconds, args.trace, len(jobs))
    else:
        run = run_in_process(runner, spec_paths[args.trace], args.workload)

    ok, wrong, reasons = evaluate(jobs, run["records"] + run["traced"])
    ok_untraced = ok[:len(run["records"])]
    attempted = len(ok)
    failed = attempted - sum(ok)
    if args.trace:
        check_names = [m["name"][len("verify.check."):-len(".s")]
                       for m in bench["per_layer"] if m["name"].startswith("verify.check.")]
        values = per_layer(run, check_names)
        declared = bench["per_layer"]
    else:
        values = end_to_end(run, ok_untraced)
        declared = bench["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            run["notes"].append(f"metric {m['name']} not measured; reported as 0")
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}

    times = [r["t"] for r in run["records"]]
    wall = {}
    if not args.trace:
        wall = end_to_end(run, ok_untraced, key="t")
        del wall["peak_rss_mb"]
    hi = high_percentile([r["ref_t"] for r in run["records"]])
    by_kind = {}
    for rec in run["records"]:
        job = jobs[rec["id"]]
        by_kind.setdefault(f"figure {job['figure']}" if "figure" in job else job["kind"],
                           []).append(rec["ref_t"])
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts, "attempted": attempted,
        "failed": failed, "fail_frac": failed / attempted, "wrong_outputs": wrong,
        "timed_jobs": len(times), "setup_samples_s": run["setups"],
        "wall_clock": dict(wall, setup_samples_s=run["wall_setups"],
                           probes_s=run.get("probes")),
        "job_time_high_percentile": hi,
        "job_p50_s_by_kind": {k: [statistics.median(v), len(v)] for k, v in by_kind.items()},
        "failure_examples": reasons,
        "notes": run["notes"], "metrics": metrics,
    }
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name:<44s} {m['value']:>14.6g} {m['unit']}"
              + (f"   (wall clock {wall[name]:.6g})" if name in wall else ""))
    print(f"  {'fail_frac':<44s} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} jobs)")
    print(f"  job time samples {len(times)}"
          + (f", p{hi[0]:g} {hi[1]:.6g} s" if hi else ""))
    for line in reasons + run["notes"]:
        print(f"  note: {line}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
