#!/usr/bin/env python3
"""Sample a program's program counter and print per-symbol shares.

Run from the repository root, naming a native executable and its
arguments (not a wrapper script: only the command itself is traced):

    python3 dev/pcsample.py [--interval-ms MS] [--top N] -- \\
        _build/default/perfbench/spire_bench.exe --workload fleet_100k \\
        --seed 11 --seconds 5 --trace 0

The command runs as a ptrace'd child. Every MS milliseconds (default 5)
the sampler stops it, reads its instruction pointer (RIP, x86-64 Linux
only) and lets it go on. When the child exits, each sample is mapped to
the executable's symbol that contains it, through `nm -n`; a sample in
a shared library counts for that library. It prints the N (default 30)
symbols with the most samples, with their shares of all samples, on
stdout; the child's own output goes where it would have gone. Exits
with the child's exit status, or 2 on bad arguments.

Only the command's main thread is sampled: enough for a one-domain
OCaml program. The stops cost the child some time, so read the shares,
not the child's own timings.
"""

import argparse
import bisect
import collections
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

PTRACE_TRACEME = 0
PTRACE_CONT = 7
PTRACE_GETREGS = 12
RIP = 16  # index of rip in struct user_regs_struct (27 words)

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(request, pid, data=None):
    if libc.ptrace(request, pid, None, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request}): {os.strerror(err)}")


def traceme():
    ptrace(PTRACE_TRACEME, 0)


def rip(pid):
    regs = (ctypes.c_ulong * 27)()
    ptrace(PTRACE_GETREGS, pid, ctypes.addressof(regs))
    return regs[RIP]


def mappings(pid):
    """(start, end, offset, real path) of every named executable mapping."""
    out = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            fields = line.split()
            if len(fields) < 6 or "x" not in fields[1]:
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            out.append((start, end, int(fields[2], 16), os.path.realpath(fields[5])))
    return out


def symbols(exe):
    addrs, names = [], []
    nm = subprocess.run(["nm", "-n", exe], capture_output=True, text=True, check=True)
    for line in nm.stdout.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "tTwW":
            addrs.append(int(fields[0], 16))
            names.append(fields[2])
    return addrs, names


def mapped(pc, maps):
    return any(start <= pc < end for start, end, _, _ in maps)


def sample(argv, interval_s):
    """Run [argv] traced; its exit status, pcs and executable mappings."""
    child = subprocess.Popen(argv, preexec_fn=traceme)
    pid = child.pid
    _, status = os.waitpid(pid, 0)  # the SIGTRAP stop at exec
    if not os.WIFSTOPPED(status):
        return os.waitstatus_to_exitcode(status), [], []
    maps = mappings(pid)
    ptrace(PTRACE_CONT, pid, 0)
    pcs = []
    try:
        while True:
            time.sleep(interval_s)
            try:
                os.kill(pid, signal.SIGSTOP)
            except ProcessLookupError:
                pass
            while True:
                _, status = os.waitpid(pid, 0)
                if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                    return os.waitstatus_to_exitcode(status), pcs, maps
                sig = os.WSTOPSIG(status)
                if sig == signal.SIGSTOP:
                    pc = rip(pid)
                    if not mapped(pc, maps):  # a library loaded since
                        maps = mappings(pid)
                    pcs.append(pc)
                    ptrace(PTRACE_CONT, pid, 0)
                    break
                # Any other signal is the child's own: deliver it.
                ptrace(PTRACE_CONT, pid, sig)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def is_pie(exe):
    with open(exe, "rb") as f:
        return int.from_bytes(f.read(18)[16:18], "little") == 3  # ET_DYN


def where(pc, base, exe, maps, addrs, names):
    for start, end, _, path in maps:
        if start <= pc < end:
            if path != exe:
                return f"[{os.path.basename(path).strip('[]')}]"
            k = bisect.bisect_right(addrs, pc - base) - 1
            return names[k] if k >= 0 else "[unknown]"
    return "[anonymous]"


def main():
    ap = argparse.ArgumentParser(
        description="ptrace PC sampler: per-symbol shares of a command's samples")
    ap.add_argument("--interval-ms", type=float, default=5.0)
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv or args.interval_ms <= 0 or args.top <= 0:
        ap.print_usage(sys.stderr)
        return 2
    found = shutil.which(argv[0])
    if found is None:
        print(f"pcsample.py: {argv[0]}: no such executable", file=sys.stderr)
        return 2
    exe = os.path.realpath(found)
    addrs, names = symbols(exe)
    status, pcs, maps = sample(argv, args.interval_ms / 1000.0)
    base = 0
    if is_pie(exe):  # nm prints link-time addresses; a PIE is loaded above them
        base = min(start - offset for start, _, offset, path in maps if path == exe)
    counts = collections.Counter()
    for pc in pcs:
        counts[where(pc, base, exe, maps, addrs, names)] += 1
    total = len(pcs)
    print(f"{total} samples every {args.interval_ms:g} ms")
    for name, n in counts.most_common(args.top):
        print(f"{100.0 * n / total:6.2f}%  {n:7d}  {name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
