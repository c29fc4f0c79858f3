"""The four workloads: set-up, one op, and the checks on each op's output.

Every workload is a closed loop: a thread starts its next op when the last
one returns. Identities, passwords and nonces come from the workload seed;
the groups are fixed. pakelab is called through module attributes
(``harness.run_honest_session``, ``service.client_connect``), so the traced
run's wrappers see every call.

Nonces for the stolen-verifier trials are drawn from [2, q-2], as the CLI
draws them. v is a generator, so v^x' = v and v^y = v only at exponent 1,
and no trial degenerates; one that did would be counted apart, not as a
failure.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from pakelab import attacks, core, harness
from pakelab.errors import RemoteError
from pakelab.netio import frames, service
from pakelab.netio.store import VerifierStore
from pakelab.proposed import FLAG_UNAUTHENTICATED

from perfbench import groups

ROOT = Path(__file__).resolve().parent.parent
SERVER_ID = 1                       # id_b of every identity; ids_a are >= 2**40
STORE_ROWS = 10_000
SERVER_START_TIMEOUT_S = 60
SERVER_STOP_TIMEOUT_S = 30
LOG_WAIT_S = 10


class SetupError(RuntimeError):
    """The workload could not be set up; the run prints no result."""


@dataclass
class OpRecord:
    kind: str
    seconds: float
    failed: bool = False
    expected: bool = True           # the op ended the way it was meant to
    degenerate: bool = False        # a trial aborted before send, counted apart
    detail: str = ""
    evidence: object = None         # what the server log must show for this op
    op: Tuple[int, int] = (0, 0)    # (thread, index), the span op id


class OpLog:
    """One thread's ops, compact enough to stay out of peak_rss_mb.

    Every op's kind and latency go into arrays; the OpRecord itself is kept
    only for an op that carries more: a failure, a degenerate trial, or the
    evidence the server-log check needs.
    """

    def __init__(self, thread: int):
        self.thread = thread
        self.kinds: Dict[str, int] = {}
        self.kind_ids = array("B")
        self.seconds = array("d")
        self.records: Dict[int, OpRecord] = {}

    def add(self, record: OpRecord) -> None:
        index = len(self.seconds)
        self.kind_ids.append(self.kinds.setdefault(record.kind, len(self.kinds)))
        self.seconds.append(record.seconds)
        if (record.failed or record.degenerate or not record.expected
                or record.evidence is not None):
            record.op = (self.thread, index)
            self.records[index] = record

    def __len__(self) -> int:
        return len(self.seconds)

    def ops(self) -> Iterator[Tuple[Tuple[int, int], str, float, Optional[OpRecord]]]:
        """(op id, kind, seconds, kept record or None) of every op, in order."""
        names = list(self.kinds)
        for index, (kind_id, seconds) in enumerate(zip(self.kind_ids, self.seconds)):
            yield (self.thread, index), names[kind_id], seconds, self.records.get(index)


def kept_records(logs: List[OpLog]) -> List[OpRecord]:
    return [record for log in logs for record in log.records.values()]


def ok_latencies(logs: List[OpLog], kind: Optional[str] = None) -> List[float]:
    """Seconds of every op that did not fail, of one kind or of all."""
    return [seconds for log in logs for _, op_kind, seconds, record in log.ops()
            if (record is None or not record.failed) and kind in (None, op_kind)]


def _timed(call: Callable):
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:        # any raise is a failed op, never a crash
        return None, exc, time.perf_counter() - start
    return result, None, time.perf_counter() - start


def _problem_record(kind: str, seconds: float, problem: str, **extra) -> OpRecord:
    return OpRecord(kind, seconds, failed=bool(problem), expected=not problem,
                    detail=problem, **extra)


def session_problem(report, server_authenticated: bool) -> str:
    """Why an honest session's report is wrong, or "" when it is right."""
    if report.error is not None:
        return f"session error: {report.error}"
    if report.key_a is None or report.key_a != report.key_b:
        return "session keys disagree"
    if not report.auth_b_ok:
        return "server did not accept the client"
    if report.auth_a_ok != server_authenticated:
        return f"auth_a_ok is {report.auth_a_ok}"
    flags = [] if server_authenticated else [FLAG_UNAUTHENTICATED]
    if report.flags != flags:
        return f"flags are {report.flags}, expected {flags}"
    return ""


def draw_credentials(rng: random.Random) -> core.Credentials:
    return core.Credentials(id_a=rng.getrandbits(40) | 1 << 40, id_b=SERVER_ID,
                            password=rng.getrandbits(64))


def forget_dlog_tables() -> None:
    """Drop the tables DlogTable.for_params memoizes, before a set-up.

    Every timed set-up then pays the build, as a fresh process does, and
    the process never holds two tables at once. A workload that is running
    takes the new table from the memo, which holds the same entries.
    """
    core.DlogTable._cache.clear()


def stolen_verifier_trial(kind: str, creds: core.Credentials, params: core.GroupParams,
                          hash_spec: core.HashSpec, rng: random.Random) -> OpRecord:
    """One stolen-verifier trial of kind stolen-verifier-{lky,proposed}.

    Only the attack is timed; deriving the stolen verifier is not.
    """
    v = core.derive_verifier(creds, params, hash_spec)
    x_attacker = rng.randrange(2, params.q - 1)
    y_server = rng.randrange(2, params.q - 1)
    attack = (attacks.stolen_verifier_attack_lky if kind == "stolen-verifier-lky"
              else attacks.stolen_verifier_attack_proposed)
    report, exc, seconds = _timed(lambda: attack(
        v, (creds.id_a, creds.id_b), params, hash_spec, x_attacker, y_server))
    if exc:
        return _problem_record(kind, seconds, repr(exc))
    if not report.succeeded and report.notes.startswith("aborted before send"):
        return OpRecord(kind, seconds, degenerate=True, detail=report.notes)
    if not report.succeeded:
        return _problem_record(kind, seconds, f"verdict changed: {report.notes}")
    if report.attacker_key != report.victim_key:
        return _problem_record(kind, seconds, "attacker and server keys differ")
    return OpRecord(kind, seconds)


class Workload:
    name = ""
    threads = 1
    setup_reps = 21                 # timed set-ups per run; the median is reported
    # transcript messages each op kind records in the load generator
    messages: Dict[str, int] = {}

    def __init__(self, seed: int, work_dir: Path, spans_path: Optional[Path] = None,
                 bad_logins: int = 0):
        self.seed = seed
        self.work_dir = work_dir
        self.spans_path = spans_path
        self.bad_logins = bad_logins
        self.hash_spec = core.HashSpec(core.DIGEST256)
        self.params: Optional[core.GroupParams] = None

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Stop what setup() started; the workload runs no more ops."""

    def op(self, thread: int, index: int) -> OpRecord:
        raise NotImplementedError

    def finish(self, logs: List[OpLog]) -> List[str]:
        """Stop what runs in the background; return check failures."""
        return []

    def extra_metrics(self, logs: List[OpLog]) -> Dict[str, Tuple[float, str]]:
        return {}


class InMemDesk(Workload):
    """Round-robin of honest sessions and stolen-verifier trials, q = 665179."""

    name = "inmem-desk"
    KINDS = ("lky-session", "proposed-session", "stolen-verifier-lky",
             "stolen-verifier-proposed")
    messages = {"lky-session": 3, "proposed-session": 4,
                "stolen-verifier-lky": 3, "stolen-verifier-proposed": 4}

    def setup(self) -> None:
        self.params = groups.desk_group()
        core.DlogTable.for_params(self.params)
        self.rng = random.Random(self.seed)

    def op(self, thread: int, index: int) -> OpRecord:
        kind = self.KINDS[index % 4]
        rng, params = self.rng, self.params
        creds = draw_credentials(rng)
        if kind.endswith("-session"):
            scheme = core.SCHEME_LKY if kind == "lky-session" else core.SCHEME_PROPOSED
            scenario = harness.Scenario(scheme=scheme, params=params, creds=creds,
                                        hash_spec=self.hash_spec,
                                        seed=rng.getrandbits(64))
            report, exc, seconds = _timed(lambda: harness.run_honest_session(scenario))
            problem = repr(exc) if exc else session_problem(report, True)
            return _problem_record(kind, seconds, problem)
        return stolen_verifier_trial(kind, creds, params, self.hash_spec, rng)


class InMemModp2048(Workload):
    """Honest sessions and stolen-verifier trials on the RFC 3526 2048-bit group.

    One op is an honest lky session, an honest proposed session, then the
    stolen-verifier trial of each scheme, and its latency is the wall time
    of all four, the derivation of each stolen verifier included. Sessions
    take about 240 and 290 ms and trials less, so a median over single
    sessions and trials would sit between modes and jump between them from
    run to run.
    """

    name = "inmem-modp2048"
    setup_reps = 5                  # fewer slices, as an op takes about a second
    KIND = "sessions+trials"
    messages = {KIND: 3 + 4 + 3 + 4}

    def setup(self) -> None:
        self.params = groups.modp2048_group()
        self.rng = random.Random(self.seed)

    def op(self, thread: int, index: int) -> OpRecord:
        rng = self.rng
        start = time.perf_counter()
        scenarios = [harness.Scenario(scheme=scheme, params=self.params,
                                      creds=draw_credentials(rng),
                                      hash_spec=self.hash_spec,
                                      seed=rng.getrandbits(64))
                     for scheme in (core.SCHEME_LKY, core.SCHEME_PROPOSED)]
        reports, exc, _ = _timed(
            lambda: [harness.run_honest_session(s) for s in scenarios])
        if exc:
            problem = repr(exc)
        else:
            # the proposed client cannot pair above 2**20 and skips server auth
            problem = (session_problem(reports[0], True)
                       or session_problem(reports[1], False))
        trials = [stolen_verifier_trial(kind, draw_credentials(rng), self.params,
                                        self.hash_spec, rng)
                  for kind in ("stolen-verifier-lky", "stolen-verifier-proposed")]
        seconds = time.perf_counter() - start
        problem = problem or next((t.detail for t in trials if t.failed), "")
        degenerate = next((t.detail for t in trials if t.degenerate), "")
        if degenerate and not problem:
            return OpRecord(self.KIND, seconds, degenerate=True, detail=degenerate)
        return _problem_record(self.KIND, seconds, problem)


class ServerProcess:
    """``pakelab serve`` in a child process on loopback.

    With spans_path set the child is perfbench.serve_traced, which installs
    the same wrappers before it calls pakelab.cli.main and writes its spans
    to spans_path when it stops.
    """

    def __init__(self, argv: List[str], work_dir: Path,
                 spans_path: Optional[Path] = None):
        if spans_path is None:
            cmd = [sys.executable, "-u", "-m", "pakelab.cli"] + argv
        else:
            cmd = [sys.executable, "-u", "-m", "perfbench.serve_traced",
                   str(spans_path)] + argv
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env.pop("PAKE_LOG", None)
        self.stderr_path = work_dir / "server.err"
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self._stderr)
        line = self._first_line(SERVER_START_TIMEOUT_S)
        match = re.match(r"serving \S+ on ([0-9.]+):(\d+) ", line)
        if match is None:
            self.stop()
            raise SetupError(f"server did not start; stdout {line!r}, stderr "
                             f"{self.stderr_path.read_text(encoding='utf-8')!r}")
        self.address = (match.group(1), int(match.group(2)))

    def _first_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        data = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in data:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    break
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                data += chunk
        return data.decode("utf-8", "replace")

    def peak_rss_mb(self) -> float:
        """The child's VmHWM. RUSAGE_CHILDREN would report the fork of this
        process, dlog table included, before the exec."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> Optional[int]:
        """SIGINT, the service's own shutdown path; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
        self.proc.stdout.close()
        self._stderr.close()
        return code


class TcpWorkload(Workload):
    """Two client threads against ``pakelab serve`` over loopback TCP.

    The server serves proposed on the desk group with digest256, a
    10,000-row store and its JSONL session log on. Every op is checked
    against that log once the server has exited, by transcript bytes and
    key_b (the service writes a session's line after its last frame).
    """

    threads = 2
    setup_reps = 7                  # each one spawns a server
    enroll = False
    messages = {"login": 4, "register": 0}

    def setup(self) -> None:
        self.params = groups.desk_group()
        core.DlogTable.for_params(self.params)      # the client's pairing check
        rng = random.Random(self.seed)
        self.base_id = rng.randrange(2 ** 40, 2 ** 41)
        self.enrolled = [core.Credentials(id_a=self.base_id + i, id_b=SERVER_ID,
                                          password=rng.getrandbits(64))
                         for i in range(STORE_ROWS)]
        store = VerifierStore()
        for creds in self.enrolled:
            store.add(core.VerifierRecord(
                id_a=creds.id_a, id_b=creds.id_b,
                v=core.derive_verifier(creds, self.params, self.hash_spec)))
        self.store_path = self.work_dir / "verifiers.tsv"
        self.log_path = self.work_dir / "server.jsonl"
        store.save(self.store_path)
        params_path = self.work_dir / "params.txt"
        params_path.write_text(f"{self.params.q}\n{self.params.g}\n", encoding="utf-8")
        if self.log_path.exists():
            self.log_path.unlink()
        argv = ["serve", "--params", str(params_path), "--store", str(self.store_path),
                "--listen", "127.0.0.1:0", "--hash", core.DIGEST256,
                "--seed", str(self.seed), "--log", str(self.log_path)]
        if self.enroll:
            argv.append("--enroll")
        self.server = ServerProcess(argv, self.work_dir, self.spans_path)
        self._lock = threading.Lock()
        self._rngs = [random.Random(self.seed * 1_000_003 + t + 1)
                      for t in range(self.threads)]
        self._fresh = [itertools.count() for _ in range(self.threads)]
        self._bad_left = self.bad_logins
        self.server_rss_mb = 0.0

    def release(self) -> None:
        self.server.stop()

    def op(self, thread: int, index: int) -> OpRecord:
        rng = self._rngs[thread]
        if self.enroll and index % 4 == 3:
            return self._register(thread, rng)
        with self._lock:
            creds = self.enrolled[rng.randrange(len(self.enrolled))]
            bad = self._bad_left > 0
            self._bad_left -= bad
        if bad:
            creds = core.Credentials(id_a=creds.id_a, id_b=creds.id_b,
                                     password=creds.password + 1)
        options = service.ClientOptions(hash_spec=self.hash_spec,
                                        x=rng.randrange(1, self.params.q - 1))
        result, exc, seconds = _timed(lambda: service.client_connect(
            self.server.address, creds, self.params, options))
        if bad:
            refused = isinstance(exc, RemoteError) and exc.code == frames.ERR_AUTH_FAIL
            return OpRecord("login", seconds, failed=True, expected=refused,
                            detail="wrong password " + (
                                "refused" if refused else f"not refused: {exc!r}"))
        if exc:
            return _problem_record("login", seconds, repr(exc))
        key, report = result
        if not report.auth_a_ok:
            return _problem_record("login", seconds, "client did not check the server")
        return OpRecord("login", seconds, evidence=(
            tuple(entry.hex for entry in report.transcript), str(key.value)))

    def _register(self, thread: int, rng: random.Random) -> OpRecord:
        id_a = self.base_id + STORE_ROWS + self.threads * next(self._fresh[thread]) + thread
        creds = core.Credentials(id_a=id_a, id_b=SERVER_ID, password=rng.getrandbits(64))
        record = core.VerifierRecord(
            id_a=id_a, id_b=SERVER_ID,
            v=core.derive_verifier(creds, self.params, self.hash_spec))
        _, exc, seconds = _timed(
            lambda: service.client_register(self.server.address, record))
        if exc:
            return _problem_record("register", seconds, repr(exc))
        with self._lock:
            self.enrolled.append(creds)
        return OpRecord("register", seconds, evidence=(id_a, SERVER_ID))

    def finish(self, logs: List[OpLog]) -> List[str]:
        # Every completed login and REGISTER is a kept record (it carries
        # evidence) and leaves one log line; a refused login leaves one too.
        records = kept_records(logs)
        self._await_log_lines(sum(1 for r in records if not r.failed or r.expected))
        self.server_rss_mb = self.server.peak_rss_mb()
        code = self.server.stop()
        errors = [] if code == 0 else [f"server exited with code {code}"]
        sessions: Dict[Tuple[str, ...], str] = {}
        refused_lines = 0
        registered = set()
        with open(self.log_path, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if obj["kind"] == "register":
                    registered.add((obj["id_a"], obj["id_b"]))
                elif obj["error"] is not None:
                    refused_lines += 1
                else:
                    sessions[tuple(e["frame"] for e in obj["transcript"])] = obj["key_b"]
        for record in records:
            if record.failed:
                continue
            if record.kind == "login":
                frames_hex, key = record.evidence
                logged = sessions.get(frames_hex)
                ok = logged == key
            else:
                ok = record.evidence in registered
            if not ok:
                record.failed, record.expected = True, False
                record.detail = "server log disagrees with the client"
        logins = sum(1 for r in records if r.kind == "login" and not r.failed)
        if len(sessions) != logins:
            errors.append(f"server logged {len(sessions)} sessions for {logins} logins")
        refused = sum(1 for r in records if r.kind == "login" and r.failed and r.expected)
        if refused_lines != refused:
            errors.append(f"server logged {refused_lines} refusals, "
                          f"{refused} wrong-password logins were refused")
        return errors

    def _await_log_lines(self, lines: int) -> None:
        """Let the server finish writing before it is stopped.

        The service logs a session after its last frame, from a daemon
        handler thread that its shutdown does not join, so stopping the
        server the moment the last client returns can lose that line. If
        the lines do not come, the cross-check in finish() reports it.
        """
        deadline = time.monotonic() + LOG_WAIT_S
        while time.monotonic() < deadline:
            if (self.log_path.exists()
                    and self.log_path.read_bytes().count(b"\n") >= lines):
                return
            time.sleep(0.01)

    def extra_metrics(self, logs: List[OpLog]) -> Dict[str, Tuple[float, str]]:
        return {"server_peak_rss_mb": (self.server_rss_mb, "MB")}


class TcpLogin(TcpWorkload):
    name = "tcp-login"


class TcpEnroll(TcpWorkload):
    """One op in four enrolls a fresh identity; logins draw from all enrolled."""

    name = "tcp-enroll"
    enroll = True

    def extra_metrics(self, logs: List[OpLog]) -> Dict[str, Tuple[float, str]]:
        extra = super().extra_metrics(logs)
        for kind in ("login", "register"):
            times = ok_latencies(logs, kind)
            if times:
                extra[f"{kind}_p50_ms"] = (statistics.median(times) * 1e3, "ms")
        return extra


WORKLOADS = {cls.name: cls for cls in (InMemDesk, InMemModp2048, TcpLogin, TcpEnroll)}
