"""Video and motion evaluation metrics computable without pretrained networks.

PSNR and windowed SSIM for frame quality, mouth-region landmark distance
for lip sync, landmark dispersion for motion richness, and a beat-alignment
score coupling audio beats to motion beats.  Metrics needing pretrained
scorers (CPBD, FVD, LSE-C/LSE-D) are rendered "n/a" in reports to keep the
standard column layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# SSIM's Gaussian window and stabilizing constants (Wang et al. 2004, IEEE TIP).
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


# -- frame quality -------------------------------------------------------------


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """10 log10(peak^2 / MSE) in dB; identical inputs give math.inf.

    A NaN or infinite input is a ValueError, and finite inputs whose MSE
    overflows an OverflowError.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    if not 0.0 < peak < math.inf:
        raise ValueError(f"psnr: peak must be finite and positive, got {peak}")
    mse = float(np.mean((a - b) ** 2))
    if not math.isfinite(mse):  # told apart only here, so a finite pair costs no extra pass
        if np.isfinite(a).all() and np.isfinite(b).all():
            raise OverflowError("psnr: the squared error overflows")
        raise ValueError("psnr: a frame holds a non-finite value")
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def gaussian_taps() -> np.ndarray:
    """Normalised 1-D Gaussian taps; their outer product is the separable SSIM window."""
    g = np.exp(-((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) ** 2) / (2.0 * SSIM_SIGMA ** 2))
    w = np.outer(g, g)  # row sums of the 2-D window: `g / g.sum()` moves SSIM's last digit
    return (w / w.sum()).sum(axis=1)


@functools.lru_cache(maxsize=16)
def _window_matrix(n: int) -> np.ndarray:
    """Read-only banded (n - SSIM_WINDOW + 1, n) matrix; row i holds the taps from column i."""
    rows = np.arange(n - SSIM_WINDOW + 1)[:, None]
    k = np.zeros((rows.size, n))
    k[rows, rows + np.arange(SSIM_WINDOW)] = gaussian_taps()
    k.flags.writeable = False
    return k


def ssim(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """Mean local SSIM over all valid window positions of two 2-D images.

    Gaussian-weighted window statistics, stabilizing constants C1 = (SSIM_K1 peak)^2
    and C2 = (SSIM_K2 peak)^2.  The window is separable, so each windowed mean
    of an image X is K_h @ X @ K_w.T with banded 1-D tap matrices, taken for
    a, b, a^2, b^2 and ab in one stacked product.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"ssim: expected 2-D images, got shape {a.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"ssim: image {a.shape} smaller than window {SSIM_WINDOW}")
    if not 0.0 < peak < math.inf:
        raise ValueError(f"ssim: peak must be finite and positive, got {peak}")
    kh, kw = (_window_matrix(n) for n in a.shape)
    mu_a, mu_b, e_aa, e_bb, e_ab = kh @ np.stack([a, b, a * a, b * b, a * b]) @ kw.T
    var_a = e_aa - mu_a ** 2
    var_b = e_bb - mu_b ** 2
    cov = e_ab - mu_a * mu_b
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# -- landmark sequences -------------------------------------------------------------


@dataclass
class LandmarkSequence:
    """Per-frame 2-D landmark coordinates in pixels, all finite."""

    frames: np.ndarray          # (n_frames, k_points, 2)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3 or self.frames.shape[2] != 2:
            raise ValueError(f"LandmarkSequence: expected (n, k, 2), got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("LandmarkSequence: coordinates must be finite")


@dataclass
class BeatTrack:
    """Strictly increasing, non-negative, finite beat timestamps in seconds."""

    timestamps: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.timestamps.ndim != 1:
            raise ValueError(f"BeatTrack: expected 1-D timestamps, got {self.timestamps.shape}")
        if not np.all(np.isfinite(self.timestamps)):
            raise ValueError("BeatTrack: timestamps must be finite")
        if self.timestamps.size and self.timestamps[0] < 0:
            raise ValueError("BeatTrack: timestamps must be non-negative")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValueError("BeatTrack: timestamps must be strictly increasing")


def lmd(a: LandmarkSequence, b: LandmarkSequence, mouth: np.ndarray | None = None) -> float:
    """Mean Euclidean distance between corresponding mouth points, in pixels.

    `mouth` lists the mouth landmark indices; None takes every point.
    """
    (n, k, _), (n_b, k_b, _) = a.frames.shape, b.frames.shape
    if n != n_b:
        raise ValueError(f"lmd: frame counts differ: {n} vs {n_b}")
    if k != k_b:
        raise ValueError(f"lmd: point counts differ: {k} vs {k_b}")
    mouth = np.arange(k) if mouth is None else np.asarray(mouth, dtype=int)
    if mouth.ndim != 1 or not mouth.size or mouth.min() < 0 or mouth.max() >= k:
        raise ValueError(f"lmd: mouth indices must be a non-empty list within [0, {k}), "
                         f"got {mouth}")
    d = a.frames[:, mouth, :] - b.frames[:, mouth, :]
    return float(np.mean(np.sqrt(np.sum(d ** 2, axis=2))))


def diversity(a: LandmarkSequence) -> float:
    """Per-coordinate population standard deviation across frames, averaged.

    Dispersion of each landmark coordinate over time (divide-by-N
    convention), then the mean over all points and both coordinates.
    """
    if len(a.frames) < 2:
        raise ValueError(f"diversity: need at least 2 frames, got {len(a.frames)}")
    return float(np.mean(np.std(a.frames, axis=0)))


# -- beat alignment ------------------------------------------------------------------


def motion_beat_frames(motion: LandmarkSequence) -> list[int]:
    """Frames at strict local minima of displacement magnitude.

    A plateau bounded by strictly larger values on both sides counts once,
    at its earliest frame; array endpoints never qualify.
    """
    # mean landmark displacement between consecutive frames; entry j is frame j+1
    disp = np.mean(np.sqrt(np.sum(np.diff(motion.frames, axis=0) ** 2, axis=2)), axis=1)
    beats: list[int] = []
    i = 0
    n = disp.size
    while i < n:
        j = i
        while j + 1 < n and disp[j + 1] == disp[i]:
            j += 1
        if i > 0 and j < n - 1 and disp[i - 1] > disp[i] and disp[j + 1] > disp[i]:
            beats.append(i + 1)  # disp index i is the step arriving at frame i+1
        i = j + 1
    return beats


def bas_from_beats(audio_times: np.ndarray, motion_times: np.ndarray,
                   sigma: float) -> float:
    """Mean Gaussian proximity of each audio beat to its nearest motion beat.

    A motion with no beat scores 0.0; an empty audio track is an error.
    """
    audio_times = np.asarray(audio_times, dtype=np.float64)
    motion_times = np.asarray(motion_times, dtype=np.float64)
    if audio_times.size == 0:
        raise ValueError("bas: need at least one audio beat")
    if sigma <= 0:
        raise ValueError(f"bas: sigma must be positive, got {sigma}")
    if motion_times.size == 0:
        return 0.0
    offsets = np.min(np.abs(audio_times[:, None] - motion_times[None, :]), axis=1)
    return float(np.mean(np.exp(-(offsets ** 2) / (2.0 * sigma ** 2))))


def bas(audio_beats: BeatTrack, motion: LandmarkSequence, fps: float) -> float:
    """Beat alignment score in [0, 1]; motion beats come from displacement minima.

    The Gaussian's sigma is 3 frames, converted to seconds by the motion's
    fps.  The rules of `bas_from_beats` apply.
    """
    if not 0 < fps < math.inf:
        raise ValueError(f"bas: fps must be finite and positive, got {fps}")
    return bas_from_beats(audio_beats.timestamps, [f / fps for f in motion_beat_frames(motion)],
                          3.0 / fps)


# -- file formats ---------------------------------------------------------------------


def save_landmarks_csv(path, frames: np.ndarray) -> None:
    """Header `frame,x0,y0,...,x{k-1},y{k-1}`, one row per frame; commas, no quoting, CRLF."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[2] != 2:
        raise ValueError(f"save_landmarks_csv: expected (n, k, 2), got {frames.shape}")
    header = ["frame"] + [f"{axis}{i}" for i in range(frames.shape[1]) for axis in ("x", "y")]
    rows = [[str(i)] + [repr(float(v)) for v in f.reshape(-1)] for i, f in enumerate(frames)]
    Path(path).write_text("".join(",".join(row) + "\r\n" for row in [header] + rows), newline="")


def load_landmarks_csv(path) -> np.ndarray:
    """Read `save_landmarks_csv` output; every data line must hold exactly 1 + 2k cells."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty landmark file")
    header = lines[0].split(",")
    if header[0] != "frame" or len(header) % 2 == 0:
        raise ValueError(f"{path}: malformed landmark header {header!r}")
    k, rows = len(header) // 2, lines[1:]
    for lineno, line in enumerate(rows, start=2):
        if line.count(",") != 2 * k:
            raise ValueError(f"{path}:{lineno}: expected {2 * k + 1} columns, "
                             f"got {line.count(',') + 1}")
    try:
        data = (np.loadtxt(rows, delimiter=",", usecols=range(1, 1 + 2 * k), comments=None, ndmin=2)
                if rows else np.zeros((0, 2 * k)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return data.reshape(len(rows), k, 2)


def save_beats(path, timestamps) -> None:
    """One beat timestamp (float seconds) per line."""
    Path(path).write_text("".join(f"{repr(float(t))}\n" for t in np.asarray(timestamps)))


def load_beats(path) -> BeatTrack:
    times = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            times.append(float(line))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a float: {line!r}") from None
    return BeatTrack(np.asarray(times))


# -- clip evaluation -----------------------------------------------------------------


TABLE1_COLUMNS = ("SSIM", "PSNR", "CPBD", "FVD", "LMD", "LSE-D", "LSE-C", "Diversity", "BAS")
UNSUPPORTED_COLUMNS = ("CPBD", "FVD", "LSE-D", "LSE-C")  # need pretrained scorers


def _frame_pairs(pred: np.ndarray, gt: np.ndarray):
    if pred.shape != gt.shape:
        raise ValueError(f"clip shapes differ: {pred.shape} vs {gt.shape}")
    if pred.ndim < 2 or pred.size == 0:
        raise ValueError(f"clip frames must be (..., h, w) with at least one non-empty frame, "
                         f"got shape {pred.shape}")
    flat_p = pred.reshape(-1, pred.shape[-2], pred.shape[-1])
    flat_g = gt.reshape(-1, gt.shape[-2], gt.shape[-1])
    return zip(flat_p, flat_g)


def evaluate_clip(pred_frames: np.ndarray, gt_frames: np.ndarray, pred_landmarks: np.ndarray,
                  gt_landmarks: np.ndarray, beats: BeatTrack, fps: float,
                  mouth: np.ndarray | None = None, peak: float = 1.0) -> dict:
    """Per-clip metric row with the standard column names; "n/a" where unsupported.

    Frames are (f, c, h, w) or (f, h, w), landmarks (n, k, 2); `mouth`
    selects the LMD points (every point when None).  Besides psnr's errors,
    an SSIM that overflows on these finite frames is an OverflowError.
    """
    psnr_vals, ssim_vals = [], []
    for p, g in _frame_pairs(pred_frames, gt_frames):
        psnr_vals.append(psnr(p, g, peak=peak))
        ssim_vals.append(ssim(p, g, peak=peak))
    pred_seq = LandmarkSequence(pred_landmarks)
    row = {"SSIM": float(np.mean(ssim_vals)), "PSNR": float(np.mean(psnr_vals))}
    if not math.isfinite(row["SSIM"]):  # every frame is finite, or psnr would have raised
        raise OverflowError("ssim: the window statistics overflow")
    for col in UNSUPPORTED_COLUMNS:
        row[col] = "n/a"
    row["LMD"] = lmd(pred_seq, LandmarkSequence(gt_landmarks), mouth)
    row["Diversity"] = diversity(pred_seq)
    row["BAS"] = bas(beats, pred_seq, fps)
    return row


def aggregate_rows(rows: list[dict]) -> dict:
    """Mean over clips for numeric columns, preserving the n/a placeholders."""
    agg: dict = {"clips": len(rows)}
    for col in TABLE1_COLUMNS:
        if col in UNSUPPORTED_COLUMNS:
            agg[col] = "n/a"
        else:
            agg[col] = float(np.mean([row[col] for row in rows]))
    return agg


def json_safe(value):
    """Map non-finite floats to strings so reports stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value
