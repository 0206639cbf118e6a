"""Demand traces: deterministic functions of simulated time.

A trace maps time (seconds) to a demand *fraction* in [0, 1] — the share
of a VM's configured vCPUs it wants at that instant.  Periodic analytic
traces (diurnal) evaluate directly; stochastic traces (bursty, noisy,
spiky) pre-draw a sample grid from a seeded RNG so every lookup is pure.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

DAY_S = 86_400.0


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def trace_grid(
    trace: "Trace", ticks: Union[Sequence[float], "np.ndarray"]
) -> "np.ndarray":
    """Evaluate ``trace.at`` over many instants in one batched pass.

    ``ticks`` is a list of instants or a float64 array of them.  Returns
    a float64 array whose every element is **bit-identical** to the
    scalar ``trace.at(t)`` at the same instant (see :func:`trace_matrix`).
    """
    if isinstance(trace, (SampledTrace, CompositeTrace)):
        return trace_matrix([trace], ticks)[0]
    return _single_grid(trace, ticks)


def trace_matrix(
    traces: Sequence["Trace"], ticks: Union[Sequence[float], "np.ndarray"]
) -> "np.ndarray":
    """Evaluate many traces over the same instants: one row per trace.

    Every element is **bit-identical** to the scalar ``traces[r].at(t)``:

    * :class:`SampledTrace` lookups are array gathers — the same float64
      values scalar indexing returns.  The gather index depends only on
      ``(step, n)``, so it is computed once per shape;
    * :class:`CompositeTrace` rows with the same number of parts add
      ``w * part`` elementwise in part order from a zero array (the parts
      evaluated as one batch), which is the identical IEEE-754
      multiply/add sequence per element as the scalar loop, then clamp
      with the same ``< 0.0`` / ``> 1.0`` comparisons;
    * :class:`DiurnalTrace` runs the scalar arithmetic elementwise in the
      same operation order and maps ``math.cos``/``math.pow`` over the
      values — numpy's own ``cos``/``power`` use SIMD kernels whose
      results may differ from libm in the last bit;
    * :class:`FlatTrace` is its constant level;
    * anything else is evaluated per instant through its scalar ``at``.

    A trace object listed several times (a fleet's shared component sits
    in every VM's composite) is evaluated once.
    """
    if isinstance(ticks, np.ndarray):
        ticks = ticks.tolist()
    else:
        ticks = list(ticks)
    slot: Dict[int, int] = {}
    distinct: List["Trace"] = []
    order = []
    for trace in traces:
        k = slot.get(id(trace))
        if k is None:
            k = slot[id(trace)] = len(distinct)
            distinct.append(trace)
        order.append(k)
    out = np.empty((len(distinct), len(ticks)))
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for k, trace in enumerate(distinct):
        if isinstance(trace, SampledTrace):
            groups.setdefault(("s", trace.step_s, trace._n_samples), []).append(k)
        elif isinstance(trace, CompositeTrace):
            groups.setdefault(("c", len(trace.parts)), []).append(k)
        else:
            out[k] = _single_grid(trace, ticks)
    for key, members in groups.items():
        if key[0] == "s":
            step, n = key[1], key[2]
            idx = np.array([int(t // step) % n for t in ticks], dtype=np.intp)
            out[members] = [distinct[k]._samples[idx] for k in members]
            continue
        acc = np.zeros((len(members), len(ticks)))
        for p in range(key[1]):
            parts = [distinct[k].parts[p] for k in members]
            weights = np.array([w for w, _ in parts], dtype=float)
            acc += weights[:, None] * trace_matrix([tr for _, tr in parts], ticks)
        # Elementwise _clamp01: replace with the exact constants the
        # scalar comparisons produce, leave everything else untouched.
        acc[acc < 0.0] = 0.0
        acc[acc > 1.0] = 1.0
        out[members] = acc
    return out if len(distinct) == len(order) else out[order]


def _single_grid(
    trace: "Trace", ticks: Union[Sequence[float], "np.ndarray"]
) -> "np.ndarray":
    """One trace the batched kinds of :func:`trace_matrix` do not cover."""
    if isinstance(trace, DiurnalTrace):
        t = np.asarray(ticks, dtype=float)
        angle = 2.0 * math.pi * (t - trace.phase_s) / trace.period_s
        cos = np.fromiter(map(math.cos, angle.tolist()), float, len(t))
        shaped = 0.5 * (1.0 + cos)
        if trace.sharpness != 1.0:
            shaped = np.fromiter(
                map(math.pow, shaped.tolist(), repeat(trace.sharpness)),
                float,
                len(t),
            )
        return trace.low + (trace.high - trace.low) * shaped
    if isinstance(trace, FlatTrace):
        return np.full(len(ticks), trace.level, dtype=float)
    if isinstance(ticks, np.ndarray):
        # Scalar arithmetic per instant, as ``at`` does: Python floats.
        ticks = ticks.tolist()
    return np.array([trace.at(t) for t in ticks], dtype=float)


class Trace:
    """Interface: ``at(t)`` returns demand fraction in [0, 1]."""

    def at(self, t: float) -> float:
        raise NotImplementedError

    def mean(self, horizon_s: float, step_s: float = 60.0) -> float:
        """Average demand over [0, horizon) sampled every ``step_s``."""
        if horizon_s <= 0 or step_s <= 0:
            raise ValueError("horizon and step must be positive")
        n = max(1, int(horizon_s // step_s))
        return sum(self.at(i * step_s) for i in range(n)) / n

    def peak(self, horizon_s: float, step_s: float = 60.0) -> float:
        """Maximum demand over [0, horizon) sampled every ``step_s``."""
        n = max(1, int(horizon_s // step_s))
        return max(self.at(i * step_s) for i in range(n))


class FlatTrace(Trace):
    """Constant demand."""

    def __init__(self, level: float) -> None:
        if not 0.0 <= level <= 1.0:
            raise ValueError("level must be in [0, 1]")
        self.level = level

    def at(self, t: float) -> float:
        return self.level


class StepTrace(Trace):
    """Piecewise-constant demand defined by (start_time, level) breakpoints."""

    def __init__(self, steps: Sequence[Tuple[float, float]]) -> None:
        if not steps:
            raise ValueError("need at least one step")
        ordered = sorted(steps)
        if ordered[0][0] > 0.0:
            ordered.insert(0, (0.0, 0.0))
        for _, level in ordered:
            if not 0.0 <= level <= 1.0:
                raise ValueError("levels must be in [0, 1]")
        self._times = [s[0] for s in ordered]
        self._levels = [s[1] for s in ordered]

    def at(self, t: float) -> float:
        # bisect on the plain Python list matches np.searchsorted
        # side="right" exactly, without the per-call array conversion.
        idx = bisect_right(self._times, t) - 1
        return self._levels[max(idx, 0)]


class DiurnalTrace(Trace):
    """Day/night cycle: raised-cosine between ``low`` and ``high``.

    ``peak_hour`` places the maximum; ``sharpness`` > 1 narrows the peak
    (models business-hours plateaus when < 1, spiky midday peaks when > 1).
    """

    def __init__(
        self,
        low: float = 0.1,
        high: float = 0.8,
        period_s: float = DAY_S,
        peak_hour: float = 14.0,
        sharpness: float = 1.0,
    ) -> None:
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("need 0 <= low <= high <= 1")
        if period_s <= 0 or sharpness <= 0:
            raise ValueError("period_s and sharpness must be positive")
        self.low = low
        self.high = high
        self.period_s = period_s
        self.phase_s = peak_hour * 3600.0
        self.sharpness = sharpness

    def at(self, t: float) -> float:
        angle = 2.0 * math.pi * (t - self.phase_s) / self.period_s
        base = 0.5 * (1.0 + math.cos(angle))  # 1 at the peak, 0 at the trough
        # ``x ** 1.0 == x`` exactly (IEEE 754 pow), so the common
        # sharpness=1.0 case skips the pow call without changing a bit.
        shaped = base if self.sharpness == 1.0 else base ** self.sharpness
        return self.low + (self.high - self.low) * shaped


class SampledTrace(Trace):
    """A trace backed by a pre-drawn sample grid.

    Lookups are step-function reads; time beyond the grid wraps around
    (tiling), which keeps long simulations well-defined.
    """

    #: Pickling bookkeeping, not trace content: the scenario cache key
    #: must not change when a recipe is recorded or a digest cached.
    __cache_ignore__ = ("_recipe", "_digest")

    def __init__(self, samples: Sequence[float], step_s: float = 60.0) -> None:
        if len(samples) == 0:
            raise ValueError("need at least one sample")
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        arr = np.asarray(samples, dtype=float)
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("samples must be within [0, 1]")
        self._samples = arr
        # Pure-Python mirror of the grid: ``tolist()`` yields the same
        # float64 values as ``float(arr[idx])``, and list indexing skips
        # the per-lookup numpy-scalar boxing on the hot path.
        self._samples_list = arr.tolist()
        self._n_samples = len(self._samples_list)
        self.step_s = step_s
        self._digest: Optional[str] = None

    @property
    def horizon_s(self) -> float:
        return len(self._samples) * self.step_s

    def at(self, t: float) -> float:
        return self._samples_list[int(t // self.step_s) % self._n_samples]

    def samples_digest(self) -> str:
        """sha256 of the sample grid, computed once and cached."""
        if self._digest is None:
            self._digest = hashlib.sha256(self._samples.tobytes()).hexdigest()
        return self._digest

    def __getstate__(self) -> dict:
        # The list mirror duplicates ``_samples``; rebuild it on load.
        state = self.__dict__.copy()
        del state["_samples_list"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._samples_list = self._samples.tolist()


def _regenerate(cls: type, recipe: Tuple[Any, ...], digest: str) -> "SeededTrace":
    """Unpickle a :class:`SeededTrace` by re-running its constructor.

    Raises ``ValueError`` if the regenerated samples differ from the ones
    that were pickled (a changed generator or numpy stream), so a trace
    is never silently replaced by a different one.
    """
    trace = cls(*recipe)
    if trace.samples_digest() != digest:
        raise ValueError(
            "{} regenerated from its recipe does not match the pickled "
            "samples (digest {} != {})".format(
                cls.__name__, trace.samples_digest(), digest
            )
        )
    return trace


class SeededTrace(SampledTrace):
    """A sampled trace that is a pure function of its constructor arguments.

    Each subclass draws its samples from its own ``default_rng(seed)`` and
    records its arguments as ``_recipe``.  It pickles as that recipe plus
    the samples' digest — a few hundred bytes however long the horizon —
    and unpickling regenerates the samples and checks the digest.
    """

    _recipe: Tuple[Any, ...]

    def __reduce__(self) -> Tuple[Any, ...]:
        return (_regenerate, (type(self), self._recipe, self.samples_digest()))


class BurstyTrace(SeededTrace):
    """Low baseline punctuated by sustained bursts.

    Burst arrivals are Poisson with mean spacing ``mean_gap_s``; burst
    lengths are exponential with mean ``mean_burst_s``.  This is the
    workload that punishes slow wake-up: demand jumps by ``burst - base``
    with no warning.
    """

    def __init__(
        self,
        seed: int,
        base: float = 0.1,
        burst: float = 0.85,
        mean_gap_s: float = 2.0 * 3600,
        mean_burst_s: float = 20.0 * 60,
        horizon_s: float = 2 * DAY_S,
        step_s: float = 60.0,
    ) -> None:
        if not 0.0 <= base <= burst <= 1.0:
            raise ValueError("need 0 <= base <= burst <= 1")
        rng = np.random.default_rng(seed)
        n = int(horizon_s // step_s)
        samples = np.full(n, base)
        t = float(rng.exponential(mean_gap_s))
        while t < horizon_s:
            length = float(rng.exponential(mean_burst_s))
            lo = int(t // step_s)
            hi = min(n, int((t + length) // step_s) + 1)
            samples[lo:hi] = burst
            t += length + float(rng.exponential(mean_gap_s))
        super().__init__(samples, step_s)
        self.base = base
        self.burst = burst
        self._recipe = (
            seed, base, burst, mean_gap_s, mean_burst_s, horizon_s, step_s
        )


class SpikeTrace(SeededTrace):
    """Mostly idle with rare, short, tall spikes (batch / cron style)."""

    def __init__(
        self,
        seed: int,
        base: float = 0.05,
        spike: float = 1.0,
        spikes_per_day: float = 6.0,
        spike_s: float = 300.0,
        horizon_s: float = 2 * DAY_S,
        step_s: float = 60.0,
    ) -> None:
        rng = np.random.default_rng(seed)
        n = int(horizon_s // step_s)
        samples = np.full(n, base)
        expected = spikes_per_day * horizon_s / DAY_S
        count = int(rng.poisson(expected))
        width = max(1, int(spike_s // step_s))
        for start in rng.integers(0, max(1, n - width), size=count):
            samples[start : start + width] = spike
        super().__init__(np.clip(samples, 0.0, 1.0), step_s)
        self._recipe = (
            seed, base, spike, spikes_per_day, spike_s, horizon_s, step_s
        )


class NoisyTrace(SeededTrace):
    """Wraps another trace with bounded Gaussian noise (pre-sampled)."""

    def __init__(
        self,
        inner: Trace,
        seed: int,
        sigma: float = 0.05,
        horizon_s: float = 2 * DAY_S,
        step_s: float = 60.0,
    ) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        rng = np.random.default_rng(seed)
        n = int(horizon_s // step_s)
        # ``float(i) * step_s`` elementwise: the same IEEE product as the
        # scalar ``i * step_s`` (i is exact in float64).
        base = trace_grid(inner, np.arange(n, dtype=float) * step_s)
        noisy = np.clip(base + rng.normal(0.0, sigma, size=n), 0.0, 1.0)
        super().__init__(noisy, step_s)
        self._recipe = (inner, seed, sigma, horizon_s, step_s)


class PlateauTrace(Trace):
    """Business-hours plateau: ramp up, hold ``high``, ramp down, idle.

    A sharper model of interactive enterprise load than the raised cosine:
    flat-out during working hours, near-idle at night, with linear ramps
    of ``ramp_s`` on each side.
    """

    def __init__(
        self,
        low: float = 0.1,
        high: float = 0.8,
        start_hour: float = 8.0,
        end_hour: float = 18.0,
        ramp_s: float = 3600.0,
        period_s: float = DAY_S,
    ) -> None:
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("need 0 <= low <= high <= 1")
        if not 0.0 <= start_hour < end_hour <= 24.0:
            raise ValueError("need 0 <= start_hour < end_hour <= 24")
        if ramp_s < 0 or period_s <= 0:
            raise ValueError("ramp_s must be >= 0 and period_s positive")
        if 2 * ramp_s > (end_hour - start_hour) * 3600.0:
            raise ValueError("ramps overlap: plateau shorter than 2*ramp_s")
        self.low = low
        self.high = high
        self.start_s = start_hour * 3600.0
        self.end_s = end_hour * 3600.0
        self.ramp_s = ramp_s
        self.period_s = period_s

    def at(self, t: float) -> float:
        tod = t % self.period_s
        if tod < self.start_s or tod >= self.end_s:
            return self.low
        if self.ramp_s > 0 and tod < self.start_s + self.ramp_s:
            frac = (tod - self.start_s) / self.ramp_s
            return self.low + (self.high - self.low) * frac
        if self.ramp_s > 0 and tod >= self.end_s - self.ramp_s:
            frac = (self.end_s - tod) / self.ramp_s
            return self.low + (self.high - self.low) * frac
        return self.high


class WeeklyTrace(Trace):
    """Weekday/weekend modulation of an inner trace.

    Days 0–4 of each 7-day cycle use ``inner`` unchanged; days 5–6 scale
    it by ``weekend_factor`` (floored at ``floor``), capturing the deeper
    weekend troughs that make consolidation opportunities larger.
    """

    def __init__(
        self,
        inner: Trace,
        weekend_factor: float = 0.35,
        floor: float = 0.02,
    ) -> None:
        if not 0.0 <= weekend_factor <= 1.0:
            raise ValueError("weekend_factor must be in [0, 1]")
        if not 0.0 <= floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")
        self.inner = inner
        self.weekend_factor = weekend_factor
        self.floor = floor

    def at(self, t: float) -> float:
        day = int(t // DAY_S) % 7
        value = self.inner.at(t)
        if day >= 5:
            value = max(self.floor, value * self.weekend_factor)
        return _clamp01(value)


class CompositeTrace(Trace):
    """Weighted sum of traces, clamped to [0, 1]."""

    def __init__(self, parts: Sequence[Tuple[float, Trace]]) -> None:
        if not parts:
            raise ValueError("need at least one part")
        for weight, _ in parts:
            if weight < 0:
                raise ValueError("weights must be non-negative")
        self.parts = list(parts)

    def at(self, t: float) -> float:
        # Explicit loop, not ``sum()`` over a genexpr: this runs once per
        # VM per sampler tick, and the generator frame is measurable at
        # fleet scale.  ``sum`` starts from int 0 and ``0 + v == 0.0 + v``
        # exactly, so the accumulation is bit-identical.
        total = 0.0
        for w, trace in self.parts:
            total += w * trace.at(t)
        return _clamp01(total)


class ScaledTrace(Trace):
    """``inner`` scaled by a factor and clamped to [0, 1]."""

    def __init__(self, inner: Trace, factor: float) -> None:
        if factor < 0:
            raise ValueError("factor must be non-negative")
        self.inner = inner
        self.factor = factor

    def at(self, t: float) -> float:
        return _clamp01(self.inner.at(t) * self.factor)
