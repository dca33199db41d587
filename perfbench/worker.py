"""Runs benchmark jobs inside an eomod process; started by run.py.

    python3 perfbench/worker.py setup <spec.json> <report.json>
        import eomod and warm up, then report when that was done
    python3 perfbench/worker.py serve <spec.json> <report.json>
        the same, then run the timed job loop (and the traced one)
    python3 perfbench/worker.py job <spec.json> <report.json> <job id>
        one cold CLI job in this fresh interpreter (the cold-spin workload)

Each mode writes a JSON report.  Timing uses
``time.monotonic`` where run.py compares it with its own clock (both read
the same system-wide clock) and ``time.perf_counter`` inside the process.
Outputs are checked by run.py afterwards, so this process never imports
scipy and its peak memory is the program's own.
"""

import time

T_ENTRY = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _import_eomod(root):
    """Import the package from ``root/src``; returns the import time."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    t0 = time.perf_counter()
    import eomod
    import eomod.cli  # noqa: F401  (the CLI pulls in every layer)
    elapsed = time.perf_counter() - t0
    pkg = Path(eomod.__file__).resolve()
    if Path(src).resolve() not in pkg.parents:
        raise SystemExit(f"worker: imported eomod from {pkg}, not from {src}")
    return elapsed


def check_order(names, key):
    """The seeded order in which a verify job runs the registry's checks."""
    return sorted(names, key=lambda n: hashlib.sha256(f"{key}:{n}".encode()).hexdigest())


def run_job(job, outdir, tracer=None):
    """Run one job through eomod's public API; returns what run.py checks."""
    import eomod.cli
    from eomod import dynamics, su2, verify

    from jobs import OMEGA, PERIOD_T, cli_argv, grid_values

    kind = job["kind"]
    if kind == "verify":
        checks = verify.registry("quick")
        results = {}
        for name in check_order(checks, job["key"]):
            if tracer is None:
                results[name] = checks[name]()
            else:
                with tracer.span(f"verify.check.{name}"):
                    results[name] = checks[name]()
        return {"rc": 0, "result": {"checks": {k: [float(t), float(m)]
                                               for k, (t, m) in results.items()}}}
    if kind == "revival":
        gammas = grid_values(job["grid"])
        p = su2.ModulatorParams.from_detuning(S=job["S"], Omega=OMEGA,
                                              detune=job["detune"],
                                              gamma=float(gammas[0]), T=PERIOD_T)
        scan = dynamics.revival_scan(p, gammas)
        peak = dynamics.find_revival_peak(scan)
        return {"rc": 0, "result": {"scan": [[float(g), float(v)] for g, v in scan],
                                    "peak": [float(peak[0]), float(peak[1])]}}
    argv = cli_argv(job)
    if "figure" in job:
        path = Path(outdir) / f"fig{job['figure']}.csv"
        argv += ["--out-dir", str(outdir)]
    else:
        path = Path(outdir) / f"{kind}.csv"
        argv += ["--out", str(path)]
    return {"rc": eomod.cli.main(argv), "path": str(path)}


def bytes_out(record):
    path = record.get("path")
    if not path or not os.path.exists(path):
        return 0
    sidecar = path + ".manifest.json"
    return os.path.getsize(path) + (os.path.getsize(sidecar)
                                    if os.path.exists(sidecar) else 0)


def take_output(record):
    """The bytes the job wrote; empties the file again (outside the timed window).

    Jobs write to one fixed path per kind, so timed jobs create no files:
    creating a few thousand files per run, and removing them after it, made
    the time of a 5 ms job swing by a third with the file system's load.
    Emptying the file keeps a later job that writes nothing from passing on
    an earlier job's output.
    """
    path = record.get("path")
    if not path or not os.path.exists(path):
        return b""
    record["bytes"] = bytes_out(record)
    data = Path(path).read_bytes()
    os.truncate(path, 0)
    return data


def diagnostics(job):
    """Occupations at one probe coupling, for the photon-sum and oracle check."""
    if job["kind"] == "verify":
        return {}
    from eomod import dynamics, su2

    from jobs import OMEGA, PERIOD_T, grid_values

    gamma = job["gamma"] if "gamma" in job else float(grid_values(job["grid"])[-1])
    p = su2.ModulatorParams.from_detuning(S=job["S"], Omega=OMEGA,
                                          detune=job["detune"], gamma=gamma,
                                          T=PERIOD_T)
    return {"probe_gamma": gamma,
            "occupations": dynamics.mode_occupations(p, 1.0).tolist()}


def timed(job, outdir, tracer=None):
    """Run a job and time it; a raised exception is a failed job, not a crash."""
    t0 = time.perf_counter()
    try:
        record = run_job(job, outdir, tracer)
    except Exception as exc:  # the job failed; run.py counts it
        record = {"error": f"{type(exc).__name__}: {exc}"}
    record["t"] = time.perf_counter() - t0
    record["id"] = job["id"]
    return record


def warm_up(workload, outdir):
    """Fill the program's caches and start BLAS threads before timing."""
    import eomod.cli
    from eomod import dynamics, su2, verify

    from jobs import OMEGA, PERIOD_T, WARM_SWEEP_S

    if workload == "ref-cli":
        for n in (1, 4):
            eomod.cli.main(["figures", str(n), "--out-dir", str(outdir)])
    elif workload == "verify-quick":
        for check in verify.registry("quick").values():
            check()
    elif workload == "warm-sweep":
        eomod.cli.main(["gamma-scan", "--s", repr(WARM_SWEEP_S), "--gamma-grid", "1:2:5",
                        "--out", str(Path(outdir) / "warm.csv")])
        p = su2.ModulatorParams.from_detuning(S=WARM_SWEEP_S, Omega=OMEGA, detune=0.1,
                                              gamma=1.0, T=PERIOD_T)
        dynamics.find_revival_peak(dynamics.revival_scan(p, [1.0]))


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(jobs, outdir, budget, probe, archive, tracer=None, notes=None):
    """Closed loop: the next job starts as soon as the last one is done.

    Between two timed jobs, the output of the first is moved to ``archive``
    (``csv_at`` in its record is the offset and length), then the host-speed
    probe runs: one sample before the first job and one after each, sized
    by ``Probe.after`` from the job's time (at least one probe), so an
    untraced record ``rec`` ran between ``probes[rec["probe"] - 1]`` and
    ``probes[rec["probe"]]``.  Diagnostics and the records file are produced
    after the loop (``write_records``).  With a tracer, each job also runs
    once with every layer wrapped in spans; the two runs of a job alternate
    which goes first, so the difference of their medians is the tracing
    overhead rather than an order effect.  Returns (records, probe times).
    """
    def keep(rec):
        data = take_output(rec)
        if data:
            rec["csv_at"] = [archive.tell(), len(data)]
            archive.write(data)
        records.append(rec)

    records = []
    probes = [probe.sample(0.0)]
    busy = 0.0
    k = 0
    while busy < budget or k == 0:
        job = jobs[k % len(jobs)]
        if tracer is not None and k % 2:
            keep(_traced(job, outdir, tracer, notes))
        rec = timed(job, outdir)
        keep(rec)
        probes.append(probe.after(rec["t"]))
        rec["probe"] = len(probes) - 1
        busy += rec["t"]
        if tracer is not None and not k % 2:
            keep(_traced(job, outdir, tracer, notes))
        k += 1
    return records, probes


def write_records(records, jobs, path):
    """Add diagnostics, then write one JSON line per job."""
    diags = {}
    with open(path, "w", encoding="utf-8") as sink:
        for rec in records:
            if rec["id"] not in diags:
                diags[rec["id"]] = _diagnose(jobs[rec["id"]])
            rec["diag"], error = diags[rec["id"]]
            if error and not rec.get("error"):
                rec["error"] = error
            sink.write(json.dumps(rec) + "\n")


def _traced(job, outdir, tracer, notes):
    import spans as tr

    patches = tr.instrument(tracer, notes)
    try:
        tracer.job_id = job["id"]
        with tracer.span("job"):
            rec = timed(job, outdir, tracer)
    finally:
        patches.restore()
    rec["traced"] = True
    return rec


def _diagnose(job):
    """(diagnostics, error message); a diagnostic that raises fails the job."""
    try:
        return diagnostics(job), None
    except Exception as exc:
        return {}, f"diagnostics: {type(exc).__name__}: {exc}"


def serve(spec, report_path, setup_only):
    import_s = _import_eomod(spec["root"])
    import spans as tr
    from calibrate import Probe
    from jobs import generate

    notes = []
    outdir = Path(spec["workdir"]) / f"out-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    store = []
    capture = tr.capture_eigensolves(store, notes)
    (outdir / "warm").mkdir()
    warm_up(spec["workload"], outdir / "warm")
    capture.restore()
    ready = time.monotonic()
    probe = Probe()
    # scales the set-up time, with the sample run.py took before the start
    report = {"ready": ready, "ready_probe": probe.after(time.perf_counter() - T_ENTRY),
              "import_s": import_s,
              "eigen_recon": tr.reconstruction_errors(store)}
    store.clear()
    if not setup_only:
        jobs = generate(spec["workload"], spec["seed"])
        tracer = tr.Tracer() if spec["trace"] else None
        with open(report_path + ".csv", "wb") as archive:
            records, report["probes"] = _loop(
                jobs, outdir, spec["seconds"] / (2.0 if tracer else 1.0), probe,
                archive, tracer, notes)
        report["peak_rss_mb"] = _rss_mb()
        write_records(records, jobs, report_path + ".jobs")
        if tracer is not None:
            report["totals"] = tr.layer_totals(tracer)
            tracer.save(Path(spec["workdir"]).parent / f"spans-{spec['workload']}.npz")
    report["notes"] = sorted(set(notes))
    Path(report_path).write_text(json.dumps(report))


def cold_job(spec, report_path, job_id):
    """One CLI job in this fresh interpreter, as a user's shell would run it."""
    import_s = _import_eomod(spec["root"])
    t_imported = time.perf_counter()
    import spans as tr
    from jobs import generate

    notes = []
    job = generate(spec["workload"], spec["seed"])[job_id]
    tracer = None
    patches = None
    store = []
    capture = tr.capture_eigensolves(store, notes)
    if spec["trace"]:
        tracer = tr.Tracer()
        tracer.job_id = job_id
        root = tracer.open(tracer.intern("job"), start=T_ENTRY)
        imp = tracer.open(tracer.intern("proc.import"), start=t_imported - import_s)
        tracer.close(imp, end=t_imported)
        patches = tr.instrument(tracer, notes)
    outdir = Path(spec["workdir"]) / "out-cold"
    outdir.mkdir(parents=True, exist_ok=True)
    rec = timed(job, outdir)
    rec["t_done"] = time.monotonic()
    if tracer is not None:
        tracer.close(root)
        patches.restore()
    capture.restore()
    rec["diag"], error = _diagnose(job)
    if error and not rec.get("error"):
        rec["error"] = error
    rec["diag"]["eigen_recon"] = tr.reconstruction_errors(store)
    rec["csv"] = take_output(rec).decode()
    rec["import_s"] = import_s
    rec["peak_rss_mb"] = _rss_mb()
    rec["notes"] = notes
    if tracer is not None:
        rec["totals"] = tr.layer_totals(tracer)
        tracer.save(Path(spec["workdir"]).parent / f"spans-cold-spin-{job_id}.npz")
    Path(report_path).write_text(json.dumps(rec))
    return rec.get("rc", 1) if not rec.get("error") else 1


def main(argv):
    mode, spec_path, report_path = argv[:3]
    spec = json.loads(Path(spec_path).read_text())
    if mode == "job":
        return cold_job(spec, report_path, int(argv[3]))
    serve(spec, report_path, setup_only=mode == "setup")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
