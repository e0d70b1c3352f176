"""Independent reference for `fpmb eval` tables.

Shares no code with fpmb.  The normalization comes from scipy: the Beta
and Kummer closed forms (``betaln``, ``hyp1f1``) for Classes I and II and
``scipy.integrate.quad`` for Class III.  W = A y(z) / t^alpha with
z = x / t^alpha, J = alpha x W / t, and D1, D2 come from the closed-form
polynomials rho1, rho2 of the family table printed by ``fpmb info``.
Zero is expected off the open domain for W and J and off the closed domain
for D1 and D2, as the library documents.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import integrate, special

# a row mismatches when any column differs from the reference by more than
# RTOL of the value plus ATOL of the column's largest magnitude at that time
RTOL = 1e-8
ATOL = 1e-10
HEADER = "t,x,W,J,D1,D2"


class Unevaluable(Exception):
    """An output that cannot be compared with the reference at all."""


def parse_config(text: str) -> dict:
    model = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            model[key.strip()] = value.strip()
    out = {"class": model["class"], "times": [float(v) for v in model["times"].split(",")]}
    for key in ("alpha", "a1", "a2", "z1", "z2", "beta"):
        if key in model:
            out[key] = float(model[key])
    return out


def model_for(output: dict, root: Path) -> dict:
    if "preset" in output:
        path = root / "src" / "fpmb" / "presets" / f"{output['preset']}.cfg"
    else:
        path = Path(output["config"])
    return parse_config(path.read_text())


def _domain(m: dict) -> tuple[float, float]:
    return {
        "I": (m.get("z1"), m.get("z2")),
        "II": (0.0, m.get("z2")),
        "III": (m.get("z1"), math.inf),
    }[m["class"]]


def _log_shape(m: dict, z: np.ndarray) -> np.ndarray:
    """log of the unnormalized reduced density on the open domain."""
    a1, a2 = m["a1"], m["a2"]
    if m["class"] == "I":
        return a1 * np.log(z - m["z1"]) + a2 * np.log(m["z2"] - z)
    if m["class"] == "II":
        return a1 * np.log(z) + a2 * np.log(m["z2"] - z) + m["beta"] * z
    return a1 * np.log(z - m["z1"]) + a2 * np.log(z) - m["beta"] * z


def log_norm(m: dict) -> float:
    """ln A, where A normalizes the reduced density to unit mass."""
    a1, a2 = m["a1"], m["a2"]
    if m["class"] == "I":
        return -((a1 + a2 + 1.0) * math.log(m["z2"] - m["z1"]) + special.betaln(a1 + 1.0, a2 + 1.0))
    if m["class"] == "II":
        return -(
            (a1 + a2 + 1.0) * math.log(m["z2"])
            + special.betaln(a1 + 1.0, a2 + 1.0)
            + math.log(special.hyp1f1(a1 + 1.0, a1 + a2 + 2.0, m["beta"] * m["z2"]))
        )
    z1 = m["z1"]
    split = z1 + max(1.0, (a1 + a2) / m["beta"])

    def y(z):
        return math.exp(_log_shape(m, z))

    kw = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    head, _ = integrate.quad(y, z1, split, **kw)
    tail, _ = integrate.quad(y, split, math.inf, **kw)
    return -math.log(head + tail)


def _rho(m: dict, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    alpha, a1, a2 = m["alpha"], m["a1"], m["a2"]
    if m["class"] == "I":
        z1, z2 = m["z1"], m["z2"]
        rho1 = (alpha - a1 - a2 - 2.0) * z + (a1 + 1.0) * z2 + (a2 + 1.0) * z1
        return rho1, (z - z1) * (z2 - z)
    if m["class"] == "II":
        z2, beta = m["z2"], m["beta"]
        rho1 = -beta * z**2 + (alpha - a1 - a2 - 2.0 + beta * z2) * z + (a1 + 1.0) * z2
        return rho1, z * (z2 - z)
    z1, beta = m["z1"], m["beta"]
    rho1 = -beta * z**2 + (alpha + a1 + a2 + 2.0 + beta * z1) * z - (a2 + 1.0) * z1
    return rho1, (z - z1) * z


def reference_rows(m: dict, t: float, x: np.ndarray, ln_a: float) -> np.ndarray:
    """Columns W, J, D1, D2 at one time."""
    alpha = m["alpha"]
    z_lo, z_hi = _domain(m)
    t_alpha = t**alpha
    z = x / t_alpha
    open_ = (z > z_lo) & (z < z_hi)
    closed = (z >= z_lo) & (z <= z_hi)
    anchor = z_lo + 1.0 if math.isinf(z_hi) else 0.5 * (z_lo + z_hi)
    w = np.where(open_, np.exp(ln_a + _log_shape(m, np.where(open_, z, anchor))), 0.0) / t_alpha
    j = alpha * x * w / t
    rho1, rho2 = _rho(m, z)
    d1 = np.where(closed, t ** (alpha - 1.0) * rho1, 0.0)
    d2 = np.where(closed, t ** (2.0 * alpha - 1.0) * rho2, 0.0)
    return np.column_stack([w, j, d1, d2])


def check_table(path: Path, m: dict, points: int) -> tuple[int, int, int]:
    """(rows checked, rows that mismatch the reference, how many of those
    are the known defect) for one eval table.

    The known defect is D1 at x = 0 in a Class II table (``D1 = inf`` from
    the one-ulp clip at z = 0): a row where D1 alone mismatches there.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != HEADER:
        raise Unevaluable(f"{path}: header is not {HEADER!r}")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    times = m["times"]
    if data.shape != (points * len(times), 6):
        raise Unevaluable(f"{path}: shape {data.shape}, expected {(points * len(times), 6)}")
    ln_a = log_norm(m)
    if not math.isfinite(ln_a):
        raise Unevaluable(f"{path}: reference normalization is not finite")
    z_lo, z_hi = _domain(m)
    failed = known = 0
    for i, t in enumerate(times):
        rows = data[i * points:(i + 1) * points]
        if not np.all(rows[:, 0] == t):
            raise Unevaluable(f"{path}: rows {i * points}..{(i + 1) * points - 1} are not at t={t!r}")
        x = rows[:, 1]
        ref = reference_rows(m, t, x, ln_a)
        if not np.all(np.isfinite(ref)):
            raise Unevaluable(f"{path}: reference is not finite at t={t!r}")
        got = rows[:, 2:]
        scale = np.max(np.abs(ref), axis=0)
        bad = ~(np.abs(got - ref) <= RTOL * np.abs(ref) + ATOL * scale)
        # the abscissae must be the documented grid: `points` equal steps
        # from the lower boundary, up to the upper one where it is finite
        lo = z_lo * t ** m["alpha"]
        hi = x[-1] if math.isinf(z_hi) else z_hi * t ** m["alpha"]
        grid_ok = np.abs(x - np.linspace(lo, hi, points)) <= 1e-12 * max(abs(lo), abs(hi))
        mismatch = bad.any(axis=1) | ~grid_ok
        failed += int(np.count_nonzero(mismatch))
        if m["class"] == "II":
            only_d1 = bad[:, 2] & ~bad[:, [0, 1, 3]].any(axis=1) & grid_ok
            known += int(np.count_nonzero(only_d1 & (x == 0.0)))
    return len(data), failed, known
