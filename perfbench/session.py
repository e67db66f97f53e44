"""Ray session sized to the machine, plus process and memory readouts.

One driver process, a local Ray session with ``num_cpus`` = the CPUs
this process may run on, a fixed object store (so spilling does not
depend on how much memory happens to be free) and Ray's files under the
checkout.  Memory is read without new dependencies: ``resource`` for the
driver, ``VmHWM`` in ``/proc/<pid>/status`` for the Ray workers.

The session runs in a child of the benchmark's main process, which makes
itself a child subreaper: processes orphaned by the session (say, Ray's
daemons after the driver aborts) are re-parented to it, so it can wait
for every process the run started (``reap_all``).
"""

from __future__ import annotations

import ctypes
import os
import resource
import shutil
import signal
import statistics
import threading
import time

OBJECT_STORE_BYTES = 512 << 20
PR_SET_CHILD_SUBREAPER = 36


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return fh.read().decode(errors="replace")
    except OSError:
        return None


def _proc_table() -> dict[int, tuple[int, str, str]]:
    """pid -> (ppid, state, starttime) for every visible process."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        stat = _read(f"/proc/{name}/stat")
        if stat is None:
            continue
        # comm (field 2) may contain spaces; fields resume after ')'
        fields = stat[stat.rfind(")") + 2:].split()
        table[int(name)] = (int(fields[1]), fields[0], fields[19])
    return table


def descendants(root: int) -> dict[int, str]:
    """Live (non-zombie) descendants of ``root``: pid -> starttime."""
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, list(children.get(root, []))
    while todo:
        pid = todo.pop()
        ppid, state, start = table[pid]
        if state != "Z":
            out[pid] = start
        todo.extend(children.get(pid, []))
    return out


def _is_worker(pid: int) -> bool:
    cmd = _read(f"/proc/{pid}/cmdline") or ""
    return cmd.startswith("ray::") or "default_worker.py" in cmd


def _vm_hwm_kb(pid: int) -> int:
    for line in (_read(f"/proc/{pid}/status") or "").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def driver_rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WorkerMemory:
    """Samples ``VmHWM`` of the session's Ray workers every ``interval``.

    Workers (and actor-pool actors) can exit before the run ends, so the
    high-water marks are read while they live.  Every descendant process
    seen is remembered, so the session's shutdown can wait for all of
    them even after they are re-parented."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_kb = 0
        self.seen: dict[int, str] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def sample(self) -> None:
        procs = descendants(os.getpid())
        self.seen.update(procs)
        for pid in procs:
            if _is_worker(pid):
                self.peak_kb = max(self.peak_kb, _vm_hwm_kb(pid))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=10)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


class RaySession:
    """``start()`` sets the session up ``samples`` times: ray.init +
    runtime.configure + one untimed warm-up job on the ``tiny`` scale,
    then a shutdown before the next sample.  The last session stays up
    for the workload; the median set-up time is the ``setup_s`` metric.
    ``stop()`` shuts Ray down and waits for every process it started."""

    def __init__(self, work: str):
        self.temp_dir = os.path.join(os.path.abspath(work), "ray")
        self.memory = WorkerMemory()

    def start(self, samples: int) -> tuple[float, list[float]]:
        """(median set-up seconds, every sample)."""
        # keep only this run's session logs under the checkout
        shutil.rmtree(self.temp_dir, ignore_errors=True)
        times = []
        for k in range(samples):
            if k:
                self._shutdown()
            times.append(self._setup())
        self.memory.start()
        return statistics.median(times), times

    def _setup(self) -> float:
        import ray

        from wsid_ray.pipelines.flagship import run_flagship
        from wsid_ray.runtime import configure

        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self.temp_dir)
        configure(quiet=True)
        run_flagship("tiny").triples.take_all()
        return time.perf_counter() - t0

    def stop(self) -> None:
        self.memory.stop()
        self._shutdown()

    def _shutdown(self, timeout: float = 60.0) -> None:
        import ray
        # remember the live processes before shutdown re-parents them
        self.memory.seen.update(descendants(os.getpid()))
        ray.shutdown()
        wait_gone(self.memory.seen, timeout)


def wait_gone(procs: dict[int, str], timeout: float) -> None:
    """Wait until none of ``procs`` (pid -> starttime) is alive; kill any
    left after ``timeout`` and wait for those too."""
    def alive() -> list[int]:
        table = _proc_table()
        return [pid for pid, start in procs.items()
                if pid in table and table[pid][2] == start
                and table[pid][1] != "Z"]

    deadline = time.monotonic() + timeout
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in alive():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while alive():
        time.sleep(0.1)


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_all(timeout: float = 30.0) -> None:
    """Wait for every descendant of this process (orphans included, once
    it is a subreaper), then collect the exit status of its children."""
    wait_gone(descendants(os.getpid()), timeout)
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass
