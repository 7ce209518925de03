"""plrank benchmark: one workload and one seed per run.

    python3 perfbench/run.py --workload letor-exact --seed 1 --seconds 2 --trace 0

Run it in a plrank checkout; it imports and runs the
checkout's ``src/plrank`` and nothing installed. It generates the workload's
inputs from the seed, drives ``plrank train / predict / evaluate`` as
separate processes, one at a time, times a one-client query loop, checks the
outputs, and prints every metric with its unit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics from an
in-process traced run with ``--trace 1``). See README.md in this directory.
"""

from __future__ import annotations

import os

# BLAS and OpenMP size their thread pools when numpy loads: pin them before
# any import, here and in every child, so one command owns the measurement.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import select  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# The short steps repeat this often, spread over the run; see run_pipeline.
ROUNDS = 2
# Query-loop calls: 200 leave 10 samples beyond the 95th percentile.
MIN_QUERY_CALLS = 200
# Every command is killed at this point of the run, which keeps the whole
# run inside three minutes even if the program hangs.
DEADLINE_S = 170.0
DEADLINE = time.monotonic() + DEADLINE_S
# The speed of a core on a shared host drifts by up to 1.6x for tens of
# seconds. So every timed stretch is cut into segments that each lie between
# two runs of a fixed reference workload (the probe), and each segment is
# reported at the probe's reference speed: raw time x REFERENCE_S / mean(the
# probes at its ends). The raw times are printed too.
REFERENCE_S = 0.01
PROBE_LOOPS = 600
SEGMENT_S = 0.25  # longest stretch a command runs between two probes
_PROBE_DATA = np.random.default_rng(0).random(512)
ITER_RE = re.compile(r"^iter=(\d+) objective=(\S+)")
NDCG10_RE = re.compile(r"^ndcg@10=(\S+)$")


@dataclass
class Ledger:
    """Operations attempted and failed: commands, query calls and checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail.strip()}"[:2000])
        return ok


@dataclass
class Command:
    argv: list[str]
    code: int
    wall_s: float
    lines: list[tuple[float, str]]  # (arrival time, stdout line)
    peak_rss_mb: float = 0.0
    error: str = ""
    # (seconds, reference speed, "iter=" lines at its end) of each stretch
    # the command ran between pauses; see run_process.
    segments: list[tuple[float, float, int]] = field(default_factory=list)

    def objectives(self) -> list[float]:
        return [float(m.group(2)) for _, text in self.lines
                if (m := ITER_RE.match(text))]

    def seconds(self, at_reference_speed: bool) -> float:
        return sum(s * (v if at_reference_speed else 1.0) for s, v, _ in self.segments)

    def iteration_ms(self, at_reference_speed: bool) -> list[float]:
        """Time between consecutive "iter=" lines, one sample per gap."""
        samples, gap, seen = [], 0.0, False
        for seconds, v, iters in self.segments:
            gap += seconds * (v if at_reference_speed else 1.0)
            if iters:
                if seen:
                    samples.append(1000.0 * gap)
                seen, gap = True, 0.0
        return samples


class _LineClock(io.TextIOBase):
    """A stdout stand-in that timestamps each completed line."""

    def __init__(self) -> None:
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)


def probe() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls."""
    start = time.perf_counter()
    total = 0.0
    for i in range(PROBE_LOOPS):
        order = np.argsort(_PROBE_DATA, kind="stable")
        total += float(np.cumsum(_PROBE_DATA[order])[i % 512])
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Reference speed of a segment from the probes at its two ends."""
    return REFERENCE_S / ((before + after) / 2)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **PINNED_THREADS, PYTHONUNBUFFERED="1",
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_process(argv: list[str], workdir: Path, deadline: float) -> Command:
    """Run ``python -m plrank <argv>``; time it and read its peak RSS.

    The command runs on this process's core. At each "iter=" line, and at
    least every SEGMENT_S seconds, it is stopped (SIGSTOP) while a probe
    runs and then continued. So each segment between pauses has its own
    reference speed, and no segment includes a pause.
    """
    with open(workdir / "stderr.txt", "w+b") as err:
        last_probe = probe()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "plrank", *argv],
                                stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=workdir)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        fd = proc.stdout.fileno()
        lines, segments, pending = [], [], b""
        status = usage = None
        try:
            while True:
                wait = max(0.0, start + SEGMENT_S - time.perf_counter())
                readable, _, _ = select.select([fd], [], [], wait)
                now = time.perf_counter()
                iters = 0
                if readable:
                    chunk = os.read(fd, 65536)
                    if not chunk:
                        break
                    pending += chunk
                    while b"\n" in pending:
                        raw, pending = pending.split(b"\n", 1)
                        lines.append((now, raw.decode()))
                        iters += bool(ITER_RE.match(lines[-1][1]))
                if status is not None or (not iters and now < start + SEGMENT_S):
                    continue
                os.kill(proc.pid, signal.SIGSTOP)
                _, stopped, rusage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(stopped):  # it exited first, and is reaped
                    status, usage = stopped, rusage
                    continue
                after = probe()
                segments.append((now - start, speed(last_probe, after), iters))
                last_probe = after
                start = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
        except BaseException:
            proc.kill()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
            if status is None:
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        end = time.perf_counter()
        segments.append((end - start, speed(last_probe, probe()), 0))
        err.seek(0)
        error = err.read()[-2000:].decode(errors="replace")
    wall = sum(seconds for seconds, _, _ in segments)
    return Command(argv, proc.returncode, wall, lines, usage.ru_maxrss / 1024.0, error,
                   segments)


def run_in_process(argv: list[str], tracer: Tracer) -> Command:
    """Run ``plrank.cli.main(argv)`` here, inside one root span."""
    cli = sys.modules["plrank.cli"]
    out = _LineClock()
    start = time.perf_counter()
    index = tracer.open("cli")
    try:
        with redirect_stdout(out):
            code, error = cli.main(argv), ""
    except Exception:  # the run goes on; the failure is counted
        code, error = 1, traceback.format_exc()
    finally:
        tracer.close(index)
    return Command(argv, code, time.perf_counter() - start, out.lines, 0.0, error)


def load_plrank():
    """Import the checkout's plrank, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    for name in ("plrank.cli", "plrank.data", "plrank.model_io", "plrank.tree"):
        importlib.import_module(name)
    plrank = sys.modules["plrank"]
    if not Path(plrank.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported plrank from {plrank.__file__}, not {SRC}")
    return plrank


@dataclass
class Outcome:
    train: Command
    linear: Command
    predicts: list[Command]
    evaluates: list[Command]
    query_calls: list[tuple[float, float]]  # (ms, reference speed) per call
    ndcg10: float
    trained_model: Path


def train_argv(w: workloads.Workload, inputs: workloads.Inputs, out: Path) -> list[str]:
    argv = ["train", "--train", str(inputs.train), "--out", str(out),
            "--trees", str(w.trees), *w.train_flags]
    if w.validate:
        argv += ["--valid", str(inputs.heldout)]
    if inputs.base_model is not None:
        argv += ["--init-model", str(inputs.base_model)]
    return argv


def check_objectives(ledger: Ledger, what: str, cmd: Command, lines: int | None) -> None:
    """Finite objective lines, the expected count, and a final value above the first."""
    values = cmd.objectives()
    ok = (len(values) >= 2 and all(np.isfinite(values)) and values[-1] > values[0]
          and (lines is None or len(values) == lines))
    ledger.record(f"{what} objective", ok, f"{len(values)} lines, first/last "
                  f"{values[:1]}/{values[-1:]}")


def run_pipeline(w: workloads.Workload, inputs: workloads.Inputs, workdir: Path,
                 seconds: float, ledger: Ledger,
                 run: Callable[[list[str]], Command]) -> Outcome:
    """The user pipeline every workload runs; ``run`` executes one command.

    The two fits run once. The short steps (predict, evaluate and a share of
    the query loop) then run in ROUNDS rounds, so that each short metric's
    samples spread over the run instead of one stretch of it.
    """
    model = workdir / "model.txt"
    served = inputs.base_model or model
    scores = workdir / "scores.txt"

    train = run(train_argv(w, inputs, model))
    ledger.record("plrank train", train.code == 0, train.error)
    check_objectives(ledger, "train", train, w.trees)

    linear = run(["train", "--train", str(inputs.train), "--out",
                  str(workdir / "linear.txt"), "--loss", "listmle-linear",
                  *w.linear_flags])
    ledger.record("plrank train --loss listmle-linear", linear.code == 0, linear.error)
    check_objectives(ledger, "listmle-linear", linear, None)

    client = QueryClient(served, inputs.heldout)
    predicts, evaluates, ndcg, score_files = [], [], [], set()
    for _ in range(ROUNDS):
        cmd = run(["predict", "--model", str(served), "--data", str(inputs.heldout),
                   "--out", str(scores)])
        ledger.record("plrank predict", cmd.code == 0, cmd.error)
        predicts.append(cmd)
        score_files.add(scores.read_bytes() if scores.exists() else b"")

        cmd = run(["evaluate", "--data", str(inputs.heldout), "--scores", str(scores),
                   "--ndcg", "1,3,10", "--err", "--format", "kv"])
        ledger.record("plrank evaluate", cmd.code == 0, cmd.error)
        evaluates.append(cmd)
        ndcg += [float(m.group(1)) for _, t in cmd.lines if (m := NDCG10_RE.match(t))]

        client.run(-(-MIN_QUERY_CALLS // ROUNDS), seconds / ROUNDS, ledger)

    ledger.record("predict writes the same scores every time", len(score_files) == 1)
    ndcg10 = ndcg[0] if ndcg else -1.0
    ledger.record("ndcg@10 in [0, 1], the same on every evaluate",
                  len(ndcg) == ROUNDS and 0.0 <= ndcg10 <= 1.0 and len(set(ndcg)) == 1,
                  f"{ndcg}")
    client.check(scores, ledger)
    return Outcome(train, linear, predicts, evaluates, client.calls, ndcg10, model)


def read_scores(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([float(line) for line in fh if line.strip()])


class QueryClient:
    """One client, closed loop: score one held-out query at a time.

    Loads the model once, then mirrors ``cli._dataset_scores`` per group:
    ``dense_features`` then ``predict_ensemble_matrix``, cycling over the
    held-out queries. A probe runs between calls, so each call's reference
    speed comes from the probes right before and after it.
    """

    def __init__(self, served: Path, heldout: Path) -> None:
        data = sys.modules["plrank.data"]
        self.model = sys.modules["plrank.model_io"].load_model(str(served))
        self.dataset = data.load_dataset(str(heldout))
        self.width = max(self.model.num_features, self.dataset.max_feature_index)
        self.calls: list[tuple[float, float]] = []
        self.results: list[tuple[object, np.ndarray | None]] = []

    def run(self, calls: int, seconds: float, ledger: Ledger) -> None:
        """At least ``calls`` calls and at least ``seconds`` seconds."""
        dense = sys.modules["plrank.data"].dense_features
        predict = sys.modules["plrank.tree"].predict_ensemble_matrix
        groups = self.dataset.groups
        start, made = time.perf_counter(), 0
        before = probe()
        while (made < calls or time.perf_counter() - start < seconds) \
                and time.monotonic() < DEADLINE:
            group = groups[len(self.results) % len(groups)]
            made += 1
            t0 = time.perf_counter()
            try:
                out = predict(self.model, dense(group, self.width))
            except Exception as exc:  # counted as a failed call; the loop goes on
                ledger.record("query call", False, repr(exc))
                self.results.append((group, None))
                continue
            ms = 1000.0 * (time.perf_counter() - t0)
            after = probe()
            self.calls.append((ms, speed(before, after)))
            before = after
            ledger.record("query call", True)
            self.results.append((group, out))

    def check(self, scores: Path, ledger: Ledger) -> None:
        """Every call's scores equal the batch scores of its query, bit for bit."""
        batch = read_scores(scores) if scores.exists() else np.zeros(0)
        mismatched = sum(
            1 for group, out in self.results
            if out is None or batch.size != self.dataset.num_documents
            or out.tobytes() != batch[group.doc_ids].tobytes())
        ledger.record("per-query scores equal batch scores", mismatched == 0,
                      f"{mismatched} of {len(self.results)} calls differ")


def check_outputs(outcome: Outcome, served: Path, heldout: Path, scores: Path,
                  workdir: Path, ledger: Ledger) -> None:
    """Batch scores against in-process scoring, and the model file round trip."""
    data = sys.modules["plrank.data"]
    tree = sys.modules["plrank.tree"]
    model_io = sys.modules["plrank.model_io"]
    try:
        model = model_io.load_model(str(served))
        dataset = data.load_dataset(str(heldout))
        width = max(model.num_features, dataset.max_feature_index)
        X = np.zeros((dataset.num_documents, width))
        for group in dataset.groups:
            X[group.doc_ids] = data.dense_features(group, width)
        expected = tree.predict_ensemble_matrix(model, X)
        same = read_scores(scores).tobytes() == expected.tobytes()
        ledger.record("CLI predict equals in-process predict_ensemble_matrix", same)
    except Exception:  # a failed check, not a failed benchmark
        ledger.record("CLI predict equals in-process predict_ensemble_matrix", False,
                      traceback.format_exc())
    try:
        resaved = workdir / "resaved.txt"
        model_io.save_model(model_io.load_model(str(outcome.trained_model)), str(resaved))
        same = resaved.read_bytes() == outcome.trained_model.read_bytes()
        ledger.record("model save -> load -> save is byte-identical", same)
    except Exception:
        ledger.record("model save -> load -> save is byte-identical", False,
                      traceback.format_exc())


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else -1.0


def figures(outcome: Outcome, setups: list[tuple[float, float]], docs: int,
            at_reference_speed: bool) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, at reference speed or as raw wall times."""
    scaled = at_reference_speed

    def t(seconds: float, speed: float) -> float:
        return seconds * speed if scaled else seconds

    def median(commands: list[Command]) -> float:
        return float(np.median([c.seconds(scaled) for c in commands]))

    train = outcome.train
    iter_ms = train.iteration_ms(scaled)
    query_ms = [t(ms, v) for ms, v in outcome.query_calls]
    commands = [train, outcome.linear, *outcome.predicts, *outcome.evaluates]
    return {
        "setup_s": (float(np.median([t(s, v) for s, v in setups])), "s"),
        "train_s": (train.seconds(scaled), "s"),
        "iter_ms_p50": (percentile(iter_ms, 50), "ms"),
        "iter_ms_p90": (percentile(iter_ms, 90), "ms"),
        "linear_fit_s": (outcome.linear.seconds(scaled), "s"),
        "peak_rss_mb": (max(c.peak_rss_mb for c in commands), "MB"),
        "ndcg10_valid": (outcome.ndcg10, "ratio"),
        "predict_docs_per_s": (docs / median(outcome.predicts), "1/s"),
        "query_ms_p50": (percentile(query_ms, 50), "ms"),
        "query_ms_p95": (percentile(query_ms, 95), "ms"),
        "evaluate_s": (median(outcome.evaluates), "s"),
    }


def end_to_end(w, seed, seconds, workdir, ledger, notes) -> dict:
    setups, digests = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workloads.write_inputs(w, seed, workdir)
        elapsed = time.perf_counter() - start
        after = probe()
        setups.append((elapsed, speed(before, after)))
        before = after
        digests.append(inputs.digest)
    ledger.record("inputs are the same on every set-up", len(set(digests)) == 1)
    notes["inputs"] = workloads.properties(w, inputs)

    outcome = run_pipeline(w, inputs, workdir, seconds, ledger,
                           lambda argv: run_process(argv, workdir, DEADLINE))
    served = inputs.base_model or outcome.trained_model
    check_outputs(outcome, served, inputs.heldout, workdir / "scores.txt", workdir, ledger)

    docs = inputs.heldout_table.X.shape[0]
    notes["samples"] = {
        "setups": len(setups), "iterations": len(outcome.train.iteration_ms(False)),
        "query_calls": len(outcome.query_calls), "rounds": ROUNDS}
    speeds = [v for _, v, _ in outcome.train.segments]
    notes["train_reference_speed"] = {"min": round(min(speeds), 4),
                                      "max": round(max(speeds), 4)}
    notes["raw"] = {name: f"{value:.6g}" for name, (value, _) in
                    figures(outcome, setups, docs, at_reference_speed=False).items()}
    notes["model_sha256"] = _sha256(outcome.trained_model)
    return figures(outcome, setups, docs, at_reference_speed=True)


def per_layer(w, seed, seconds, workdir, ledger, notes) -> dict:
    inputs = workloads.write_inputs(w, seed, workdir)
    notes["inputs"] = workloads.properties(w, inputs)

    imports = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import plrank.cli"],
                              env=child_env(), cwd=workdir, capture_output=True,
                              timeout=max(1.0, DEADLINE - time.monotonic()))
        imports.append(time.perf_counter() - start)
        ledger.record("import plrank.cli", done.returncode == 0, done.stderr.decode())

    # The same training with only booster.train hooked, before and after the
    # traced pipeline: their mean is the untraced baseline, and slow drift in
    # machine speed cancels to first order.
    baseline = Tracer()
    untraced_model = workdir / "model-untraced.txt"

    def untraced_train() -> None:
        uninstall = baseline.install([layers.BOOSTER_TRAIN])
        try:
            cmd = run_in_process(train_argv(w, inputs, untraced_model), baseline)
            ledger.record("plrank train (untraced)", cmd.code == 0, cmd.error)
        finally:
            uninstall()

    untraced_train()
    tracer = Tracer()
    uninstall = tracer.install(layers.HOOKS)
    try:
        outcome = run_pipeline(w, inputs, workdir, seconds, ledger,
                               lambda argv: run_in_process(argv, tracer))
    finally:
        uninstall()
    untraced_train()
    served = inputs.base_model or outcome.trained_model
    check_outputs(outcome, served, inputs.heldout, workdir / "scores.txt", workdir, ledger)
    ledger.record("traced and untraced training write the same model",
                  untraced_model.exists() and outcome.trained_model.exists()
                  and untraced_model.read_bytes() == outcome.trained_model.read_bytes())

    metrics = layers.per_layer_metrics(tracer)
    metrics["cli.import_s"] = (float(np.median(imports)), "s")
    metrics["linear.iterations"] = (float(len(outcome.linear.objectives())), "count")
    untraced = baseline.layers().get("booster.train")
    traced = metrics["booster.train_s"][0]
    if untraced is not None and untraced.calls == 2 and traced > 0:
        mean = untraced.total_s / 2
        metrics["trace.overhead_frac"] = ((traced - mean) / mean, "ratio")
    else:
        metrics["trace.overhead_frac"] = (layers.NOT_MEASURED, "ratio")
    notes["not_measured"] = tracer.missing_sites
    notes["model_sha256"] = _sha256(outcome.trained_model)
    return metrics


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "none"


def environment(seed: int) -> dict[str, object]:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "threads": "BLAS/OpenMP pinned to 1; one command at a time",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum length of the query loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the pipeline at a tiny shape (smoke test)")
    args = parser.parse_args(argv)
    # A terminated run still stops its child and deletes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One core for this process and every child (they inherit it), so the
    # probes measure the core the commands run on; cores drift independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "plrank" / "__init__.py").is_file():
        print(f"error: no plrank source at {SRC}", file=sys.stderr)
        return 2
    load_plrank()

    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    ledger = Ledger()
    notes: dict[str, object] = {"environment": environment(args.seed)}
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(w, args.seed, args.seconds, workdir, ledger, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    report(args, w, notes, metrics, ledger)
    return 0


def report(args, w, notes, metrics, ledger) -> None:
    mode = "per-layer (traced, in-process)" if args.trace else "end-to-end"
    print(f"plrank benchmark: workload={w.name} seed={args.seed} "
          f"seconds={args.seconds:g} metrics={mode}")
    print(f"  why: {w.why}")
    for key, value in notes.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}={v}" for k, v in value.items())
        print(f"{key}: {value}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        shown = "not measured" if value == layers.NOT_MEASURED else f"{value:.6g} {unit}"
        print(f"  {name:<{width}}  {shown}")
    print(f"failed_frac: {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / max(ledger.attempted, 1):.4g}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
