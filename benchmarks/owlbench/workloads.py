"""The two owlbench workloads: set-up, timed part and correctness gate.

Every workload derives its inputs from the workload seed ``N`` alone:
campaign ``i`` runs with ``OwlConfig.seed = 1000*N + i`` (which draws
its random-side inputs) and the service mix is shuffled by ``N``.  Load
comes from this one process: detect-cold calls ``Owl.detect`` from one
closed-loop caller, service-fleet from two client threads.

The timed part runs operations until ``seconds`` have passed and
finishes the one in progress; two runs at one seed start the same work
in the same order.  After it, :meth:`Workload.verify` recomputes
reference reports by a different path and byte-compares them.
"""

from __future__ import annotations

import json
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from owlbench import spans

from repro.apps.registry import resolve
from repro.core import Owl, OwlConfig
from repro.service import ServiceClient

HERE = Path(__file__).resolve().parent

COLD_PROGRAMS = ("aes", "nvjpeg-encode")
SERVICE_PROGRAMS = ("aes", "rsa", "dummy", "torch-conv2d", "nvjpeg-decode",
                    "torch-nllloss")
ANALYZERS = ("ks", "mi", "both")

#: service-fleet: client threads, status poll period, per-campaign limit
CLIENTS = 2
POLL_SECONDS = 0.02
CAMPAIGN_TIMEOUT = 120.0


@dataclass(frozen=True)
class Scale:
    """Protocol sizes: the full benchmark or the quick ``--smoke`` pass."""

    runs: int            # replicas per side of a detect-cold campaign
    service_runs: int    # replicas per side of a service campaign
    setup_repeats: int   # set-ups per run; setup_s is their median


FULL = Scale(runs=100, service_runs=30, setup_repeats=5)
SMOKE = Scale(runs=8, service_runs=6, setup_repeats=1)


def campaign_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


@dataclass
class Outcome:
    """What the timed part produced, for the metrics and the gate."""

    start: float = 0.0
    end: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    #: detect-cold latencies by program
    by_program: Dict[str, List[float]] = field(default_factory=dict)
    lanes: List[spans.Lane] = field(default_factory=list)
    #: span dumps of the service processes (traced runs only)
    dumps: List[Dict] = field(default_factory=list)
    #: detect-cold reports in operation order (None: failed)
    reports: List = field(default_factory=list)
    #: the service queue's journal events
    journal: List[Dict] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _thread_lane(start: float, end: float) -> spans.Lane:
    return spans.Lane(os.getpid(), threading.get_ident(), start, end)


class Workload:
    """What both workloads share: construction, stop, the tamper hook."""

    name = ""

    def __init__(self, seed: int, scale: Scale, root: Path,
                 tracer: Optional[spans.Tracer] = None,
                 tamper: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.root = root
        self.tracer = tracer
        self.tamper = tamper
        self.outcome = Outcome()
        #: (what was compared, number compared) for the verify line
        self.checked = ("reports", 0)

    def stop(self) -> None:
        """End everything the timed part started (before RSS is read)."""

    def reference(self, text: str) -> str:
        """A reference report, broken on purpose under ``--tamper``."""
        return text + " " if self.tamper else text


def _detect(name: str, config: OwlConfig, **kwargs):
    program, fixed_inputs, random_input = resolve(name)
    owl = Owl(program, name=name, config=config)
    return owl.detect(fixed_inputs(), random_input=random_input, **kwargs)


class DetectCold(Workload):
    """Sequential ``Owl.detect`` calls; gate re-runs 1 in 4 at workers=2.

    Operation ``i`` runs program ``i % 2`` at the paper's 100+100
    protocol with ``analyzer="ks"`` and no store.
    """

    name = "detect-cold"

    def config(self, index: int) -> OwlConfig:
        return OwlConfig(fixed_runs=self.scale.runs,
                         random_runs=self.scale.runs, analyzer="ks",
                         seed=campaign_seed(self.seed, index))

    @staticmethod
    def program(index: int) -> str:
        return COLD_PROGRAMS[index % len(COLD_PROGRAMS)]

    def setup(self) -> None:
        # one small campaign per program loads the app modules and warms
        # NumPy before timing
        for index, name in enumerate(COLD_PROGRAMS):
            _detect(name, replace(self.config(index), fixed_runs=4,
                                  random_runs=4))

    def timed(self, seconds: float) -> Outcome:
        out = self.outcome
        out.start = time.perf_counter()
        index = 0
        # every program runs at least once, so each has a median
        while index < len(COLD_PROGRAMS) \
                or time.perf_counter() - out.start < seconds:
            name = self.program(index)
            started = time.perf_counter()
            out.attempted += 1
            try:
                result = _detect(name, self.config(index))
            except Exception as error:  # noqa: BLE001 — counted, reported
                print(f"{self.name} op {index} failed: "
                      f"{type(error).__name__}: {error}", file=sys.stderr)
                out.failed += 1
                out.reports.append(None)
            else:
                elapsed = time.perf_counter() - started
                out.latencies.append(elapsed)
                out.by_program.setdefault(name, []).append(elapsed)
                # keep the report, not the result: its phase-1 traces
                # would pile up in memory and inflate peak_rss_mb
                out.reports.append(result.report)
            index += 1
        out.end = time.perf_counter()
        out.lanes = [_thread_lane(out.start, out.end)]
        return out

    def campaigns_per_s(self) -> float:
        """One caller's rate over the program mix at median campaign cost.

        The median of each program's campaigns, not the count over the
        window: a campaign takes seconds, so a burst of host contention
        or a cold first campaign would otherwise move the whole run.
        """
        medians = [statistics.median(times)
                   for times in self.outcome.by_program.values()]
        return len(medians) / sum(medians) if medians else 0.0

    def verify(self) -> List[str]:
        done = [i for i, report in enumerate(self.outcome.reports)
                if report is not None]
        sample = sorted(random.Random(self.seed).sample(
            done, max(1, len(done) // 4))) if done else []
        self.checked = ("campaigns re-run with workers=2", len(sample))
        mismatches = []
        for index in sample:
            name = self.program(index)
            again = _detect(name, replace(self.config(index), workers=2))
            if self.outcome.reports[index].to_json() != \
                    self.reference(again.report.to_json()):
                mismatches.append(f"{name} campaign {index}")
        return mismatches


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServiceFleet(Workload):
    """HTTP server plus two external workers, driven by two clients."""

    name = "service-fleet"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.starts = 0
        self.procs: List[subprocess.Popen] = []
        self.ready: List[Path] = []
        self.span_files: List[Path] = []
        self.logs: List = []
        self.home: Optional[Path] = None
        self.url = ""
        self.campaigns = self._mix()
        #: campaign index → report JSON, for the completed ones
        self.report_json: Dict[int, str] = {}

    def _mix(self, length: int = 4096) -> List[Dict]:
        """The seed's fixed campaign list; client k takes k, k+2, ...

        Client ``c``'s round ``r`` runs program ``(r + 3c) % 6`` of the
        seed's shuffled order, so both clients cycle through all six
        programs and never run the same one at once.  Each pass over the
        six programs uses the next analyzer of ks, mi and both.  Each
        client's every 5th campaign is adaptive, and another 5th
        resubmits its identical campaign from six rounds earlier (same
        program, already complete), which the scheduler coalesces.  The
        mix is therefore the same on every seed; only the program order
        and the campaign seeds change.
        """
        programs = list(SERVICE_PROGRAMS)
        random.Random(self.seed).shuffle(programs)
        campaigns: List[Dict] = []
        for index in range(length):
            client, rnd = index % CLIENTS, index // CLIENTS
            if rnd >= 6 and rnd % 5 == 2:
                campaigns.append(campaigns[index - 6 * CLIENTS])
                continue
            runs = self.scale.service_runs
            campaigns.append({
                "workload": programs[(rnd + 3 * client) % len(programs)],
                "config": {"fixed_runs": runs, "random_runs": runs,
                           "seed": campaign_seed(self.seed, index),
                           "analyzer": ANALYZERS[rnd // 6 % len(ANALYZERS)],
                           "adaptive": rnd % 5 == 4}})
        return campaigns

    def _spawn(self, role: str, *extra: str) -> None:
        home = self.home
        tag = f"{role}-{len(self.procs)}"
        self.ready.append(home / f"{tag}.ready")
        command = [sys.executable, str(HERE / "service_proc.py"), role,
                   "--store", str(home / "store"),
                   "--queue", str(home / "queue"),
                   "--ready", str(self.ready[-1]), *extra]
        if self.tracer is not None:
            self.span_files.append(home / f"{tag}.spans.json")
            command += ["--spans", str(self.span_files[-1])]
        log = open(home / f"{tag}.log", "wb")
        self.logs.append(log)
        self.procs.append(subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT))

    def setup(self) -> None:
        self._shutdown()
        self.starts += 1
        self.home = self.root / f"fleet-{self.starts}"
        self.home.mkdir(parents=True)
        self.ready, self.span_files = [], []
        port = _free_port()
        self.url = f"http://127.0.0.1:{port}"
        self._spawn("server", "--port", str(port))
        for worker in range(2):
            self._spawn("worker", "--id", f"w{worker}")
        ServiceClient(self.url).wait_until_up(timeout=60, poll=0.02)
        deadline = time.monotonic() + 60
        while not all(path.exists() for path in self.ready):
            if time.monotonic() > deadline or any(
                    proc.poll() is not None for proc in self.procs):
                raise RuntimeError(f"service processes did not start; "
                                   f"see {self.home}")
            time.sleep(0.01)

    def _client(self, k: int, deadline: float, lanes: List,
                lock: threading.Lock) -> None:
        client = ServiceClient(self.url, tenant=f"t{k}")
        out = self.outcome
        lane_start = time.perf_counter()
        index = k
        while time.perf_counter() < deadline:
            spec = self.campaigns[index]
            started = time.perf_counter()
            try:
                cid = client.submit(spec["workload"],
                                    config=spec["config"]).campaign
                while True:
                    status = client.status(cid)
                    now = time.perf_counter()
                    if status.done:
                        break
                    if now - started > CAMPAIGN_TIMEOUT:
                        raise TimeoutError(f"{cid} still {status.stage}")
                    time.sleep(POLL_SECONDS)
                    if self.tracer is not None:
                        self.tracer.add("service.client_wait", now,
                                        time.perf_counter())
                results = client.results(cid)
                if not results.complete or results.report_json is None:
                    raise RuntimeError(f"{cid} ended {results.stage}: "
                                       f"{results.error}")
            except Exception as error:  # noqa: BLE001 — counted, reported
                print(f"service-fleet campaign {index} failed: "
                      f"{type(error).__name__}: {error}", file=sys.stderr)
                with lock:
                    out.attempted += 1
                    out.failed += 1
            else:
                with lock:
                    out.attempted += 1
                    out.latencies.append(time.perf_counter() - started)
                    self.report_json[index] = results.report_json
            index += CLIENTS
        with lock:
            lanes.append(_thread_lane(lane_start, time.perf_counter()))

    def timed(self, seconds: float) -> Outcome:
        out = self.outcome
        lanes: List[spans.Lane] = []
        lock = threading.Lock()
        out.start = time.perf_counter()
        threads = [threading.Thread(
            target=self._client, args=(k, out.start + seconds, lanes, lock))
            for k in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.end = time.perf_counter()
        out.lanes = lanes
        return out

    def campaigns_per_s(self) -> float:
        """Completed campaigns over the timed part (two closed loops)."""
        out = self.outcome
        return (out.attempted - out.failed) / out.seconds

    def _shutdown(self) -> None:
        """Shut the service down and wait for all three processes."""
        if self.procs:
            try:
                ServiceClient(self.url, timeout=10).shutdown()
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs:
            log.close()
        self.procs, self.logs = [], []

    def stop(self) -> None:
        """Shut down, then collect the queue journal and span dumps."""
        if not self.procs:
            return
        self._shutdown()
        out = self.outcome
        out.journal = _read_journal(self.home / "queue" / "journal.jsonl")
        for path in self.span_files:
            if path.exists():
                dump = json.loads(path.read_text(encoding="utf-8"))
                out.dumps.append(dump)
                main = dump["main_thread"]
                out.lanes.append(spans.Lane(dump["pid"], main, out.start,
                                            out.end))

    def verify(self) -> List[str]:
        """Direct ``Owl.detect`` for >= 1 in 4 campaigns, every program."""
        done = sorted(self.report_json)
        sample = set(random.Random(self.seed).sample(
            done, (len(done) + 3) // 4)) if done else set()
        for program in SERVICE_PROGRAMS:
            ran = [i for i in done
                   if self.campaigns[i]["workload"] == program]
            if ran and not any(i in sample for i in ran):
                sample.add(ran[0])
        self.checked = ("service reports against direct detection",
                        len(sample))
        mismatches = []
        for index in sorted(sample):
            spec = self.campaigns[index]
            direct = _detect(spec["workload"], OwlConfig(**spec["config"]))
            if self.report_json[index] != self.reference(
                    direct.report.to_json()):
                mismatches.append(f"{spec['workload']} campaign {index}")
        return mismatches


def _read_journal(path: Path) -> List[Dict]:
    events = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return events
    for line in lines:
        if line.strip():
            events.append(json.loads(line))
    return events


WORKLOADS = {cls.name: cls for cls in (DetectCold, ServiceFleet)}
