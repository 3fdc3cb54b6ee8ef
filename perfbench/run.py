"""twistlab benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a twistlab checkout; the program is imported from
./src and nothing is installed.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
same numbers as a table.  See perfbench/README.md for the workloads, the
metrics and the steadiness record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import gen
import oracle
from child import MARKER
from tracer import BANDS, LAYERS, Tracer

ENTRY_TIMEOUT_S = 0.5  # in-process; legitimate calls take at most ~0.05 s (~0.15 s traced), hangs over 15 s
CHILD_TIMEOUT_S = 30.0  # per cold child; a legitimate one took at most ~2 s (1.5 s in factorint)
SETUP_SPAWNS = 6  # before and again after the measured phase
Spec = namedtuple("Spec", "blocks repeats traced sample_every")
WORKLOADS = {  # distinct blocks, least passes, blocks in the traced run, seconds between speed samples
    "cli-cold": Spec(1, 2, 1, 0.5),  # 100 distinct entries, about 27 s a pass
    "verbs-mixed": Spec(96, 3, 48, 0.1),  # 4416 entries, about 0.5 s a pass
    "tails": Spec(12, 3, 12, 0.1),  # 396 entries, about 2 s a pass
    "periods": Spec(2, 3, 2, 0.1),  # 2002 entries, 2 s a pass, half of it in timeouts
}
END_TO_END = (  # name, unit
    ("setup_s", "s"), ("throughput_eps", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"), ("correct_frac", "ratio"), ("peak_rss_mb", "MB"))
SPAN_METRICS = (
    ("surd.normalize", "calls"), ("surd.normalize", "self_s"), ("surd.floor", "calls"),
    ("surd.invert", "calls"), ("surd.compare", "calls"), ("surd.parse_surd", "self_s"),
    ("surd.factorint", "calls"), ("surd.factorint", "self_s"),
    ("contfrac.expand_surd", "self_s"), ("contfrac.value_of", "self_s"),
    ("contfrac.canonical_rotation", "self_s"), ("contfrac.convergents", "self_s"),
    ("contfrac.is_primitive", "calls"), ("contfrac.convergent_matrix", "calls"),
    ("torus.morita_equivalent", "self_s"), ("torus.morita_invariant", "self_s"),
    ("torus.apply_mobius", "calls"),
    ("dimgroup.from_cf_period", "self_s"), ("dimgroup.from_matrix", "self_s"),
    ("dimgroup.rank2_slope", "self_s"), ("dimgroup.is_positive", "self_s"),
    ("dimgroup.element_equal", "self_s"),
    ("elliptic.j_invariant", "self_s"), ("elliptic.q_isomorphic", "self_s"),
    ("elliptic.twist_between", "self_s"))
BAND_SPANS = ("contfrac.expand_surd", "torus.morita_equivalent", "contfrac.value_of",
              "dimgroup.from_cf_period")
SETUP_CODE = ("import time\nt0 = time.monotonic()\nimport twistlab.cli\n"
              "print(repr(t0), repr(time.monotonic()))")


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int

    def __post_init__(self):
        if self.b == 0:
            raise ValueError("b must be nonzero")


class Speed:
    """Host speed, from a fixed reference workload timed between entries.

    A shared VM's speed swings by up to 1.8x, for seconds to minutes, and
    the reference slows with it.  Timings are reported scaled to a host on
    which the reference takes REF_S: the timings of each pass are divided by
    factor() of the reference samples taken during that pass.  The
    reference is the benchmark's own code, so no change to twistlab moves it.
    """

    REF_S: float
    BEST_OF = 3

    def __init__(self, every: float):
        self.every = every
        self.samples: list = []
        self.last = -1e9

    def measure(self):
        raise NotImplementedError

    def best_of(self, reference) -> float:
        best = float("inf")
        for _ in range(self.BEST_OF):
            t0 = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - t0)
        return best

    def sample(self, force: bool = False) -> None:
        """One measure(), unless one was taken in the last `every` s."""
        if not force and time.perf_counter() - self.last < self.every:
            return
        self.samples.append(self.measure())
        self.last = time.perf_counter()

    def take(self) -> list:
        """The samples since the last take()."""
        samples, self.samples = self.samples, []
        return samples

    def factor(self, samples) -> float:
        return statistics.median(samples) / self.REF_S


class KernelSpeed(Speed):
    """For in-process entries: two kernels, each timed best of BEST_OF in
    every sample.

    * mix: the kinds of work twistlab does (big-integer continued
      fractions, Fractions, JSON, small frozen dataclasses); it allocates a
      lot.
    * division: trial division of big integers by the primes below 10^4
      and a 2x2 matrix product over a long period, the loops that dominate
      normalising a discriminant and building a period's matrix; it hardly
      allocates.

    A shared 2-vCPU VM's phases move the mix more than the division, and
    twistlab's entries in between, by how much they allocate.  factor() is
    the geometric mean of the two kernels' medians over a pass, each over
    its REF_S, the mix weighted MIX_WEIGHT.  README.md records how much of
    the passes' spread this removes.
    """

    REF_S = (0.0023, 0.00108)
    MIX_WEIGHT = 0.5
    RADICANDS = (100003, 17569, 10007)
    DOC = {"verb": "cf.value", "args": {"preperiod": list(range(40)),
                                        "period": [str(i) for i in range(60)]}}
    NUMBERS = (3**700 + 2, 7**300 + 4, 2**61 - 3)
    PERIOD = gen.sqrt_period(100003)

    def mix(self) -> None:
        for d in self.RADICANDS:
            oracle.naive_expansion((0, 1, 1, d))
        sum(Fraction(1, k) for k in range(1, 120))
        for _ in range(20):
            json.loads(json.dumps(self.DOC))
        for k in range(600):
            _Pair(k, k + 1)

    def division(self) -> None:
        for n in self.NUMBERS:
            for p in gen.PRIMES:
                if p * p > n:
                    break
                while n % p == 0:
                    n //= p
        m = (1, 0, 0, 1)
        for a in self.PERIOD:
            m = (m[0] * a + m[1], m[0], m[2] * a + m[3], m[2])

    def measure(self) -> tuple[float, float]:
        return self.best_of(self.mix), self.best_of(self.division)

    def factor(self, samples) -> float:
        mix, div = (statistics.median(times) / ref
                    for times, ref in zip(zip(*samples), self.REF_S))
        return mix ** self.MIX_WEIGHT * div ** (1 - self.MIX_WEIGHT)


class SpawnSpeed(Speed):
    """For start-up costs (cold children, set-up): a fresh interpreter that
    imports a fixed set of standard-library modules, which follows exec,
    page faults and unmarshalling where the CPU kernel does not.  Spawned
    back to back with cold children, the medians of 20 of each moved
    together (correlation 0.99), so it is sampled often, between about
    every other child; one sample every 3 s left cli-cold runs spreading by
    up to 0.18."""

    REF_S = 0.137
    BEST_OF = 1
    CODE = "import argparse, json, fractions, dataclasses, decimal, asyncio, email.parser, unittest"

    def __init__(self, root: str, every: float):
        super().__init__(every)
        self.root = root

    def measure(self) -> float:
        return self.best_of(lambda: subprocess.run([sys.executable, "-c", self.CODE],
                                                   cwd=self.root, check=True, timeout=60))


class EntryTimeout(BaseException):
    """Raised by SIGALRM inside a hung entry; a BaseException so that no
    `except Exception` on the way up can swallow it."""


def one_pass(blocks, runner, speed: Speed) -> list[tuple[float, str, str | None]]:
    """Every entry of every block once, in order, closed loop.  The speed
    reference runs between entries, outside their timing."""
    out = []
    for block in blocks:
        for entry in block:
            speed.sample()
            out.append(runner.run(len(out), entry))
    speed.sample(force=True)
    return out


class InProcess:
    """Entries through twistlab.cli.run_batch, the function `twistlab batch` uses.

    Each pass runs in a worker forked from the warmed-up harness, so it
    starts from the same program state as every other pass: whatever the
    program caches while answering one pass is gone in the next, and no
    request is ever answered from a cache it filled itself.
    """

    timeout = ENTRY_TIMEOUT_S

    def __init__(self, cli, warm: list[gen.Entry]):
        self.cli, self.warm = cli, warm
        self.speed = KernelSpeed
        self.tracer = None
        self.armed = False
        self.notes: list[str] = []
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            raise EntryTimeout()

    def _disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def warm_up(self) -> None:
        for i, e in enumerate(self.warm):
            self.run(i, e)

    def run(self, index: int, entry: gen.Entry) -> tuple[float, str, str | None]:
        request = json.dumps({"id": index, "verb": entry.verb, "args": entry.args})
        if self.tracer:
            self.tracer.begin_entry(index, entry.band)
        t0 = time.perf_counter()
        try:
            try:
                self.armed = True
                # re-fires every 50 ms in case a library swallows the first one
                signal.setitimer(signal.ITIMER_REAL, self.timeout, 0.05)
                response = json.dumps(self.cli.run_batch([json.loads(request)]))
            finally:
                self._disarm()
        except EntryTimeout:
            self._disarm()
            return time.perf_counter() - t0, "timeout", None
        except Exception:  # escaped run_batch: the entry failed, the run goes on
            latency = time.perf_counter() - t0
            self.notes.append(f"{entry.verb}: {traceback.format_exc(limit=3)}")
            return latency, "raised", None
        latency = time.perf_counter() - t0
        (reply,) = json.loads(response)
        if reply.get("status") != "ok":
            self.notes.append(f"{entry.verb}: {reply}")
            return latency, "error", None
        return latency, "ok", json.dumps(reply["result"], sort_keys=True)

    def run_pass(self, blocks, speed: Speed):
        """One pass in a forked worker; returns its results, the worker's
        peak RSS in kB and its speed samples, and adds its notes and trace
        here."""
        sys.stdout.flush()
        sys.stderr.flush()
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the worker
            code = 1
            try:
                os.close(rfd)
                self.notes.clear()
                speed.samples = []
                traced, self.tracer = self.tracer, None
                self.warm_up()  # untimed; touches the pages the pass will write
                if traced:
                    self.tracer = Tracer()
                    self.tracer.install()
                results = one_pass(blocks, self, speed)
                payload = (results, speed.samples, self.notes[:20],
                           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           self.tracer.export() if self.tracer else None)
                with os.fdopen(wfd, "wb") as fh:
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not data:
            raise RuntimeError(f"pass worker failed with wait status {status}")
        results, samples, notes, rss_kb, trace = pickle.loads(data)
        self.notes += notes
        if trace:
            self.tracer.merge(trace)
        return results, [rss_kb], samples


class ColdChild:
    """Entries as `twistlab <verb> '<json>'` run by child.py, one fresh
    interpreter each."""

    timeout = CHILD_TIMEOUT_S
    CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

    def __init__(self, root: str, env: dict):
        self.root, self.env = root, env
        self.speed = lambda every: SpawnSpeed(root, every)
        self.tracer = None
        self.import_s: list[float] = []
        self.rss_kb: list[int] = []
        self.notes: list[str] = []

    def warm_up(self) -> None:
        self.run(0, gen.period_entry(random.Random("warm-up"), "L60", 10007, "cf.value"))

    def run(self, index: int, entry: gen.Entry) -> tuple[float, str, str | None]:
        argv = [sys.executable, self.CHILD, entry.verb, json.dumps(entry.args)]
        env = self.env
        if self.tracer:
            env = dict(env, PERFBENCH_TRACE="1", PERFBENCH_ENTRY=str(index),
                       PERFBENCH_BAND=entry.band or "")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=self.timeout)
            latency = time.perf_counter() - t0
            status = "ok" if proc.returncode == 0 else "error"
        except subprocess.TimeoutExpired:
            latency, status = time.perf_counter() - t0, "timeout"
            proc.terminate()
            try:
                out, err = proc.communicate(timeout=2)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
        head, _, last = err.rstrip("\n").rpartition("\n")
        if last.startswith(MARKER):
            payload = json.loads(last[len(MARKER):])
            err = head
            self.import_s.append(payload["import_s"])
            if status != "timeout":  # a hung factorisation swells its child
                self.rss_kb.append(payload["rss_kb"])
            if self.tracer:
                self.tracer.merge(payload["trace"])
        if status == "error":
            self.notes.append(f"{entry.verb}: exit {proc.returncode}: {err.strip()[-300:]}")
        if status != "ok":
            return latency, status, None
        try:
            return latency, status, json.dumps(json.loads(out), sort_keys=True)
        except json.JSONDecodeError:
            self.notes.append(f"{entry.verb}: unparseable output {out[:200]!r}")
            return latency, "error", None

    def run_pass(self, blocks, speed: Speed):
        self.rss_kb = []
        speed.take()
        results = one_pass(blocks, self, speed)
        return results, self.rss_kb, speed.take()


class Tally:
    """What one entry's runs in a phase add up to: its scaled latencies (8
    bytes a run) and counts; the answers only as distinct texts."""

    __slots__ = ("times", "runs", "bad", "timeouts", "texts", "wrong")

    def __init__(self):
        self.times = array("d")  # scaled latencies of the runs that answered
        self.runs = self.bad = self.timeouts = self.wrong = 0
        self.texts: dict[str, int] = {}  # distinct answers, with their run counts

    def add(self, latency: float, status: str, text: str | None) -> None:
        self.runs += 1
        if status == "ok":
            self.times.append(latency)
            self.texts[text] = self.texts.get(text, 0) + 1
        else:
            self.bad += 1
            self.timeouts += status == "timeout"

    @property
    def ok(self) -> bool:
        return not self.bad and not self.wrong


class Phase:
    """A closed-loop run of passes over a list of distinct blocks.

    A shared VM's speed swings by up to 1.8x, so every pass's timings are
    divided by that pass's Speed factor, each entry runs once per pass, the
    passes spread over the run, and its latency is the median of its runs.
    An entry counts as correct only when every run of it was; a failed entry
    costs the fixed time limit, unscaled.
    """

    def __init__(self, runner, speed: Speed, blocks):
        self.runner, self.speed = runner, speed
        self.keys = [(j, i) for j, block in enumerate(blocks) for i in range(len(block))]
        self.tally = {key: Tally() for key in self.keys}
        self.status: dict[str, int] = {}
        self.rss_kb: list[int] = []
        self.factors: list[float] = []  # one per pass

    @property
    def cycles(self) -> int:
        return len(self.factors)

    def add_pass(self, results, rss_kb, samples) -> None:
        f = self.speed.factor(samples)
        for key, (latency, status, text) in zip(self.keys, results, strict=True):
            self.tally[key].add(latency / f, status, text)
            self.status[status] = self.status.get(status, 0) + 1
        self.rss_kb += rss_kb
        self.factors.append(f)

    def latencies(self) -> dict[tuple[int, int], tuple[float, bool]]:
        return {key: (statistics.median(t.times), True) if t.ok else (self.runner.timeout, False)
                for key, t in self.tally.items()}

    def block_rates(self) -> list[float]:
        """Per distinct block: correct entries per second of their latencies."""
        sums: dict[int, list] = {}
        for (j, _), (latency, ok) in self.latencies().items():
            acc = sums.setdefault(j, [0, 0.0])
            acc[0] += ok
            acc[1] += latency
        return [n / secs for n, secs in sums.values()]

    def total_rate(self) -> float:
        lat = self.latencies().values()
        return sum(ok for _, ok in lat) / sum(latency for latency, _ in lat)

    def runs(self) -> tuple[int, int]:
        """(attempted runs, failed runs)."""
        tallies = self.tally.values()
        return sum(t.runs for t in tallies), sum(t.bad + t.wrong for t in tallies)


def run_phase(blocks, runner, every: float, seconds: float = 0.0, cycles: int = 1) -> Phase:
    """Repeat passes over the blocks until at least `cycles` passes and
    `seconds` are done."""
    phase = Phase(runner, runner.speed(every), blocks)
    start = time.perf_counter()
    while phase.cycles < cycles or time.perf_counter() - start < seconds:
        phase.add_pass(*runner.run_pass(blocks, phase.speed))
    return phase


def verify(phases, blocks) -> int:
    """Checks every distinct answer; returns the number of runs that
    answered wrongly."""
    verdicts: dict[tuple, bool] = {}
    wrong = 0
    for phase in phases:
        for (j, i), t in phase.tally.items():
            for text, count in t.texts.items():
                if (j, i, text) not in verdicts:
                    e = blocks[j][i]
                    verdicts[j, i, text] = oracle.check(e.verb, e.args, e.expect,
                                                        json.loads(text))
                t.wrong += 0 if verdicts[j, i, text] else count
            wrong += t.wrong
    return wrong


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def spawn_import(root: str, env: dict) -> tuple[float, float]:
    """(seconds from spawning an interpreter to the end of `import twistlab.cli`,
    seconds spent in that import)."""
    t = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    t0, t1 = float(out[0]), float(out[1])
    return t1 - t, t1 - t0


def measure_setup(root: str, env: dict, speed: Speed) -> list[tuple[float, float]]:
    """SETUP_SPAWNS set-up times, each after a speed reference sample."""
    out = []
    for _ in range(SETUP_SPAWNS):
        speed.sample(force=True)
        out.append(spawn_import(root, env))
    return out


def warm_entries() -> list[gen.Entry]:
    """Every verb once, and one period that reaches factorint (the lazy
    sympy import and the prime sieve)."""
    rng = random.Random("warm-up")
    return [gen.period_entry(rng, "L60", 10007, "cf.value")] + [make(rng) for make in gen.MIXED.values()]


def end_to_end(phase: Phase, setup, setup_speed: Speed) -> dict:
    lat_ms = [1000 * latency for latency, _ in phase.latencies().values()]
    attempted, failed = phase.runs()
    return {
        "setup_s": statistics.median(s for s, _ in setup) / setup_speed.factor(setup_speed.samples),
        "throughput_eps": statistics.median(phase.block_rates()),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "correct_frac": 1 - failed / attempted,
        "peak_rss_mb": percentile(phase.rss_kb, 90) / 1024,
    }


def per_layer(tr: Tracer, base: Phase, traced: Phase, blocks, import_s) -> dict:
    """Span times are scaled by the traced pass's Speed factor."""
    (f,) = traced.factors
    m = {}
    for layer in LAYERS:
        calls, self_s, errors = tr.layer_totals(layer)
        m[f"{layer}.calls"], m[f"{layer}.self_s"], m[f"{layer}.errors"] = calls, self_s / f, errors
    for name, what in SPAN_METRICS:
        m[f"{name}.{what}"] = tr.stat(name, what) / f if what == "self_s" else tr.stat(name, what)
    m["surd.factorint.max_bits"] = tr.factorint_bits
    m["cli.import_s"] = statistics.median(import_s)
    for band in BANDS[1:]:
        for name in BAND_SPANS:
            m[f"{name}.{band}.self_s"] = tr.stat(name, "self_s", band) / f
        m[f"surd.factorint.{band}.calls"] = tr.stat("surd.factorint", "calls", band)
        m[f"timeouts.{band}"] = sum(t.timeouts for (j, i), t in traced.tally.items()
                                    if blocks[j][i].band == band)
    m["trace.overhead_frac"] = base.total_rate() / traced.total_rate() - 1
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def print_band_table(m: dict) -> None:
    rows = [f"{n}.{{}}.self_s" for n in BAND_SPANS] + ["surd.factorint.{}.calls", "timeouts.{}"]
    print(f"{'L-scaling (traced run)':44s}" + "".join(f"{b:>14s}" for b in BANDS[1:]))
    for row in rows:
        print(f"{row.replace('.{}', '.<band>'):44s}"
              + "".join(f"{m[row.format(b)]:14.6g}" for b in BANDS[1:]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "twistlab", "cli.py")):
        print(f"perfbench: no twistlab sources under {src}; run from the root of a "
              "twistlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ.pop("TWISTLAB_ITER_CAP", None)  # the checks assume the default cap
    env = dict(os.environ, PYTHONPATH=src)

    setup_speed = SpawnSpeed(root, 0.0)
    spawn_import(root, env)  # compiles the sources once, like any installed copy
    setup = measure_setup(root, env, setup_speed)
    import twistlab.cli as cli
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(src, "twistlab"):
        print(f"perfbench: imported twistlab from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    blocks = gen.blocks(args.workload, args.seed, spec.blocks)
    runner = ColdChild(root, env) if args.workload == "cli-cold" else InProcess(cli, warm_entries())
    runner.warm_up()
    gc.freeze()  # keeps the forked workers' garbage collection off the harness's objects

    if not args.trace:
        phase = run_phase(blocks, runner, spec.sample_every, args.seconds, spec.repeats)
        setup += measure_setup(root, env, setup_speed)
        phases = [phase]
        wrong = verify(phases, blocks)
        metrics = end_to_end(phase, setup, setup_speed)
        units = dict(END_TO_END)
        distinct = len(phase.keys)
        samples = {"setup_s": len(setup), "throughput_eps": len(blocks),
                   "latency_p50_ms": distinct, "latency_p90_ms": distinct,
                   "peak_rss_mb": len(phase.rss_kb)}
        print(f"{phase.cycles} passes over {distinct} distinct entries in {len(blocks)} blocks; "
              f"host speed factors {min(phase.factors):.4f}-{max(phase.factors):.4f} "
              f"({type(phase.speed).__name__}, one a pass) for the entries and "
              f"{setup_speed.factor(setup_speed.samples):.4f} for set-up; times below are "
              f"divided by them; "
              f"raw setup_s {statistics.median(s for s, _ in setup):.6g}")
    else:
        traced_blocks = blocks[:spec.traced]
        base = run_phase(traced_blocks, runner, spec.sample_every)
        runner.tracer = tr = Tracer()
        traced = run_phase(traced_blocks, runner, spec.sample_every)
        phases = [base, traced]
        wrong = verify(phases, blocks)
        import_s = getattr(runner, "import_s", None) or [i for _, i in setup]
        metrics = per_layer(tr, base, traced, blocks, import_s)
        units = {name: unit_of(name) for name in metrics}
        samples = {}
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        entries = [[j, i, blocks[j][i].verb, blocks[j][i].band] for j, i in traced.keys]
        tr.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}"), entries)
        print(f"spans kept {len(tr.cols['name'])}, dropped {tr.dropped}; "
              f"written to .perfbench_out/spans-{args.workload}-{args.seed}.*")

    attempted = failed = 0
    counts: dict[str, int] = {}
    for phase in phases:
        a, f = phase.runs()
        attempted, failed = attempted + a, failed + f
        for status, n in phase.status.items():
            counts[status] = counts.get(status, 0) + n
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} entries, {failed} failed "
          f"({', '.join(f'{k} {v}' for k, v in sorted(counts.items()))}, wrong {wrong})")
    for note in runner.notes[:5]:
        print("  failure:", note.strip().replace("\n", " | ")[:300])
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]:6s} n={samples.get(name, attempted)}")
    if args.trace:
        print_band_table(metrics)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
