"""CPU time, peak memory and load average from /proc (no psutil)."""
from __future__ import annotations

import os
from typing import Dict, Iterable, List

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as f:
        raw = f.read()
    # the command name may contain spaces and parentheses; fields resume
    # after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """user + system CPU seconds of one process."""
    f = _stat_fields(pid)
    return (int(f[11]) + int(f[12])) / _CLK_TCK


def _cmdline(pid: int) -> str:
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        return f.read().replace(b"\0", b" ").decode("utf-8", "replace")


def _pids() -> Iterable[int]:
    for name in os.listdir("/proc"):
        if name.isdigit():
            yield int(name)


def descendants(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for pid in _pids():
        try:
            ppid = int(_stat_fields(pid)[1])
        except (OSError, ValueError):
            continue
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def ray_workers(root: int) -> List[int]:
    """Ray worker processes (tasks and actors) under the driver `root`:
    Ray retitles each one "ray::<task or state>"."""
    out = []
    for pid in descendants(root):
        try:
            if _cmdline(pid).startswith("ray::"):
                out.append(pid)
        except OSError:
            continue
    return out


def job_cpu(driver: int) -> Dict[int, float]:
    """CPU seconds of the driver and every Ray worker, keyed by pid."""
    out = {}
    for pid in [driver] + ray_workers(driver):
        try:
            out[pid] = cpu_seconds(pid)
        except (OSError, ValueError):
            continue
    return out


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU spent between two job_cpu snapshots; a worker that started in
    between counts from zero."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def loadavg() -> List[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def pids_with_env(marker: str) -> List[int]:
    """Processes whose environment holds `marker` ("NAME=value")."""
    needle = b"\0" + marker.encode() + b"\0"
    out = []
    for pid in _pids():
        if pid == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                env = b"\0" + f.read() + b"\0"
        except OSError:
            continue
        if needle in env:
            out.append(pid)
    return out
