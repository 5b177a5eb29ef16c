"""Machine-speed references: CPU time scaled to a reference speed.

On a shared virtual machine the CPU time of one fixed piece of work swings by
a quarter and more within seconds, as other guests load the cores, caches
and memory the process uses. Two fixed kernels measure that speed next to
the program, and a span of the program's CPU time is reported as

    (its CPU time) * (the kernel's reference time) / (the kernel's time now)

that is, in seconds on a machine that runs the kernel in its reference time.
The two kernels follow the two kinds of work the benchmark times, because
the speed of one kind does not track the other:

- ``SpeedProbe``, for pipeline runs (small numpy operations and Python
  arithmetic, the mix of the training and clustering loops). A profiling
  timer (``SIGPROF``, every ``INTERVAL_S`` of the process's CPU time) runs
  it between two of the program's bytecodes, so it samples the speed all
  through a run; its own CPU time, about 2 % of the run's, is taken out.
- ``ParseReference``, for set-ups (splitting text and building a token
  index, the work of ``load_corpus``), run before and after each set-up.

The kernels touch only their own data, so the program's results do not
change (the benchmark checks its output bytes). The reference times are
constants, about the kernels' times on the 2-vCPU development machine, so
that the scaled times of two commits compare. All times are CPU time of the
main thread: the program computes on one thread (the benchmark sets
``workers=1`` and one BLAS thread), and while a profiling timer is armed
Linux updates the process clock only at scheduler ticks.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.01
REF_PROBE_S = 250e-6
REF_PARSE_S = 3e-3


class SpeedProbe:
    def __init__(self):
        self.probe_ns = 0   # CPU time spent in probes so far
        self.count = 0
        self._vecs = np.random.default_rng(0).standard_normal((64, 8))

    def _kernel(self):
        vecs, s = self._vecs, 0.0
        for i in range(40):
            j = (i * 7) & 63
            v = vecs[j] * 0.5 + vecs[i & 63]
            s += float(v @ vecs[j])
        return s

    def _on_signal(self, signum, frame):
        t0 = time.thread_time_ns()
        self._kernel()
        self.probe_ns += time.thread_time_ns() - t0
        self.count += 1

    def start(self):
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def net_ns(self):
        """CPU ns of the main thread less the probes'."""
        return time.thread_time_ns() - self.probe_ns

    def mark(self):
        return self.net_ns(), self.probe_ns, self.count

    @staticmethod
    def scaled(a, b):
        """(net CPU seconds, seconds at the reference speed) between marks."""
        net_s = (b[0] - a[0]) / 1e9
        count, probe_ns = b[2] - a[2], b[1] - a[1]
        return net_s, net_s * REF_PROBE_S * 1e9 * count / probe_ns if count else net_s


class ParseReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        words = [f"ref{i:03d}_w{i % 17:02d}" for i in range(500)]
        self._lines = [" ".join(words[j] for j in rng.integers(0, 500, 60)) + "\n"
                       for _ in range(150)]

    def seconds(self):
        """CPU seconds of one run of the kernel."""
        t0 = time.thread_time_ns()
        index, vocab = {}, []
        for line in self._lines:
            tokens = line.split()
            ids = np.empty(len(tokens), dtype=np.int64)
            for k, tok in enumerate(tokens):
                tid = index.get(tok)
                if tid is None:
                    tid = index[tok] = len(vocab)
                    vocab.append(tok)
                ids[k] = tid
        return (time.thread_time_ns() - t0) / 1e9

    def scale(self, before_s, after_s):
        """Factor to the reference speed from the kernel's times around a span."""
        return 2 * REF_PARSE_S / (before_s + after_s)
