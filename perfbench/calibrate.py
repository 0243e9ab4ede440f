"""Host-speed calibration: a fixed numpy kernel timed all through a run.

On a shared VM the same code can run twice as slowly for a few seconds and
then fast again, so the share of a run spent in slow spells moves its wall
times by 20-30% between runs of the same code.  While a HostClock is active,
a timer runs a fixed kernel that does the same kind of work as the workload
every PERIOD_S.  An interval's time is then scaled, piece by piece between
two kernel runs, by the mean of their times over REF_MS, the kernel's time at
the reference speed; the kernel's own time is left out.  The kernels are
copies, made here, of the numpy calls that dominate each workload; they never
call the library, so no change to the library moves them.

- conv: the forward einsum of each of the six conv3x3 calls of one UNet
  pass at the default TrainConfig, at batch 2 instead of 16 (train, sample).
- ssim: the window statistics of metrics.ssim on two 64x64 frame pairs
  (score).
"""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter

import numpy as np

# Kernel time in ms at the reference speed: about its fastest median on the
# 2-vCPU Intel Xeon VM the benchmark was written on.  It only sets the scale
# of the reported timings.
REF_MS = {"conv": 6.0, "ssim": 5.0}
PERIOD_S = 0.2      # time from the end of one kernel run to the start of the next
BUDGET_MS = 10.0    # each calibration repeats the kernel until this much time has passed
CONV_BATCH = 2

# (input shape, weight shape, stride) of the UNet's conv3x3 calls.
CONV_SHAPES = (((16, 2, 16, 16), (8, 2, 3, 3), 1), ((16, 8, 16, 16), (16, 8, 3, 3), 2),
               ((16, 16, 8, 8), (16, 16, 3, 3), 1), ((16, 16, 8, 8), (16, 16, 3, 3), 1),
               ((16, 24, 16, 16), (8, 24, 3, 3), 1), ((16, 8, 16, 16), (1, 8, 3, 3), 1))
SSIM_FRAMES, SSIM_SIZE, SSIM_WINDOW = 2, 64, 11


class Calibrator:
    """One kernel, built once from fixed inputs.

    Its inputs, products and outputs are all allocated here, so a kernel run
    that lands inside an item adds no arrays to it.  einsum still mallocs
    small iteration buffers, which can shift the heap: score's peak memory
    takes one of a few values 1.6 MB apart from run to run.
    """

    def __init__(self, kernel: str):
        rng = np.random.default_rng(0)
        self.kernel, self.ref_ms = kernel, REF_MS[kernel]
        if kernel == "conv":
            self.args = []
            for x_shape, w_shape, stride in CONV_SHAPES:
                x = rng.standard_normal((CONV_BATCH, *x_shape[1:]))
                xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
                win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
                win = win[:, :, ::stride, ::stride]
                out = np.zeros((CONV_BATCH, w_shape[0], *win.shape[2:4]))
                self.args.append((win, rng.standard_normal(w_shape), out))
            self._run = self._conv
        else:
            ax = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
            g = np.exp(-ax ** 2 / 4.5)
            self.window = np.outer(g, g) / np.outer(g, g).sum()
            shape = (SSIM_WINDOW, SSIM_WINDOW)
            self.frames = [tuple(np.lib.stride_tricks.sliding_window_view(f, shape) for f in pair)
                           for pair in rng.uniform(0.0, 1.0, (SSIM_FRAMES, 2, SSIM_SIZE, SSIM_SIZE))]
            positions = SSIM_SIZE - SSIM_WINDOW + 1
            self.product = np.zeros((positions, positions, *shape))
            self.stat = np.zeros((positions, positions))
            self._run = self._ssim

    def _conv(self) -> None:
        for win, w, out in self.args:
            np.einsum("ncijuv,ocuv->noij", win, w, out=out)

    def _ssim(self) -> None:
        for wa, wb in self.frames:
            np.einsum("ijuv,uv->ij", wa, self.window, out=self.stat)
            np.einsum("ijuv,uv->ij", wb, self.window, out=self.stat)
            for x, y in ((wa, wa), (wb, wb), (wa, wb)):
                np.einsum("ijuv,uv->ij", np.multiply(x, y, out=self.product), self.window,
                          out=self.stat)

    def __call__(self, budget_ms: float) -> float:
        """Run the kernel until `budget_ms` have passed, at least once; return ms per run."""
        start = perf_counter()
        runs = 0
        while True:
            self._run()
            runs += 1
            ms = (perf_counter() - start) * 1e3
            if ms >= budget_ms:
                return ms / runs


class HostClock:
    """Runs the kernel at entry, every PERIOD_S while active, and at exit.

    The timer is one-shot and re-armed after each kernel run, so runs never
    nest.  Python calls the handler in the main thread between bytecodes: a
    run never splits a numpy call, it only waits for the call to return.
    Every interval to be scaled must lie inside the `with` block.
    """

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator
        self.runs: list[tuple[float, float, float]] = []   # (start, end, kernel ms)

    def _calibrate(self) -> None:
        start = perf_counter()
        ms = self.calibrator(BUDGET_MS)
        self.runs.append((start, perf_counter(), ms))

    def _tick(self, signum, frame) -> None:
        self._calibrate()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> HostClock:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        self._tick(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._calibrate()

    def _sum(self, a: float, b: float, scaled: bool) -> float:
        total = 0.0
        ref = self.calibrator.ref_ms
        for (_, end0, ms0), (start1, _, ms1) in zip(self.runs, self.runs[1:]):
            lo, hi = max(a, end0), min(b, start1)
            if hi > lo:
                total += (hi - lo) * (2.0 * ref / (ms0 + ms1) if scaled else 1.0)
        return total

    def work(self, a: float, b: float) -> float:
        """Seconds in [a, b] outside kernel runs."""
        return self._sum(a, b, scaled=False)

    def scaled(self, a: float, b: float) -> float:
        """Seconds in [a, b] outside kernel runs, at the reference speed."""
        return self._sum(a, b, scaled=True)

    def slowdown(self) -> float:
        """Median kernel time over REF_MS."""
        return median(ms for _, _, ms in self.runs) / self.calibrator.ref_ms
