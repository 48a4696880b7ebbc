"""Run a child process to completion, killing its whole process group on timeout."""

import os
import signal
import subprocess
import time

import speed

PROBE_INTERVAL_S = 0.1


def run_child(cmd, timeout, env=None):
    """(returncode, stdout, stderr, probes) of cmd.

    While the child runs, a speed.Probe calibration runs every
    PROBE_INTERVAL_S; probes are (monotonic time, loop seconds) pairs.  On
    timeout the child's process group is killed and reaped, and
    TimeoutExpired is raised.
    """
    deadline = time.monotonic() + timeout
    probe = speed.Probe()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    probes = []
    while True:
        try:
            out, err = proc.communicate(
                timeout=min(PROBE_INTERVAL_S, max(0.0, deadline - time.monotonic())))
            return proc.returncode, out, err, probes
        except subprocess.TimeoutExpired:
            if time.monotonic() >= deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
            probes.append((time.monotonic(), probe()))
