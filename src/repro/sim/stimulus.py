"""Stimulus generators for the cycle-accurate simulator.

Each generator produces, per simulated clock cycle, a mapping from free input
names (clock excluded) to integer values.  The generators mirror what a
verification engineer would drive from a testbench: uniform random vectors,
directed sequences, exhaustive sweeps for small designs, and reset-aware
wrappers.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, Optional, Sequence

from ..hdl.elaborate import RtlModel


class Stimulus:
    """Base class: iterate input vectors for a design."""

    def vectors(self, model: RtlModel, cycles: int) -> Iterator[Dict[str, int]]:
        """Yield ``cycles`` input vectors for ``model``."""
        raise NotImplementedError

    def matrix(self, model: RtlModel, cycles: int) -> Dict[str, "object"]:
        """Columnar form of :meth:`vectors`: ``{input name: int64 ndarray}``.

        One array of length ``cycles`` per free input, with the same masking
        the simulator's ``apply_inputs`` performs.  This is the array-vector
        API the vectorized simulator consumes; values are identical to the
        per-cycle dicts.  Requires NumPy.
        """
        import numpy as np

        names = model.non_clock_inputs
        # Inputs past 63 bits cannot live in int64 cells; object-dtype
        # columns keep arbitrary-precision Python ints per cycle (the
        # multi-limb kernel splits them into limb planes on lift).
        columns = {
            name: np.zeros(
                cycles,
                dtype=object if model.signals[name].width > 63 else np.int64,
            )
            for name in names
        }
        for cycle, vector in zip(range(cycles), self.vectors(model, cycles)):
            for name in names:
                columns[name][cycle] = vector.get(name, 0) & model.signals[name].mask
        return columns


class RandomStimulus(Stimulus):
    """Uniform random input vectors from a seeded PRNG."""

    def __init__(self, seed: int = 0, hold_probability: float = 0.0):
        self._seed = seed
        self._hold_probability = hold_probability

    def vectors(self, model: RtlModel, cycles: int) -> Iterator[Dict[str, int]]:
        rng = random.Random(self._seed)
        # randrange(n) draws exactly what randint(0, n - 1) draws.
        randrange = rng.randrange
        bounds = [(name, model.signals[name].max_value + 1) for name in model.non_clock_inputs]
        previous: Optional[Dict[str, int]] = None
        for _ in range(cycles):
            if previous is not None and rng.random() < self._hold_probability:
                yield dict(previous)
                continue
            vector = {name: randrange(bound) for name, bound in bounds}
            previous = vector
            yield dict(vector)


class DirectedStimulus(Stimulus):
    """Replay an explicit list of input vectors (cycling if too short)."""

    def __init__(self, vectors: Sequence[Dict[str, int]], default: int = 0):
        if not vectors:
            raise ValueError("directed stimulus requires at least one vector")
        self._vectors = [dict(v) for v in vectors]
        self._default = default

    def vectors(self, model: RtlModel, cycles: int) -> Iterator[Dict[str, int]]:
        for cycle in range(cycles):
            pattern = self._vectors[cycle % len(self._vectors)]
            vector = {}
            for name in model.non_clock_inputs:
                signal = model.signals[name]
                vector[name] = pattern.get(name, self._default) & signal.mask
            yield vector


class ExhaustiveStimulus(Stimulus):
    """Sweep every combination of input values (small designs only).

    If the total input space exceeds ``max_vectors`` the sweep restarts from
    the beginning, so callers always receive exactly ``cycles`` vectors.
    """

    def __init__(self, max_vectors: int = 1 << 16):
        self._max_vectors = max_vectors

    def vectors(self, model: RtlModel, cycles: int) -> Iterator[Dict[str, int]]:
        names = model.non_clock_inputs
        ranges = [range(model.signals[name].max_value + 1) for name in names]
        produced = 0
        while produced < cycles:
            for combo in itertools.product(*ranges) if names else [()]:
                if produced >= cycles:
                    return
                yield dict(zip(names, combo))
                produced += 1
            if not names:
                # No free inputs: just repeat the empty vector.
                while produced < cycles:
                    yield {}
                    produced += 1


class WalkingOnesStimulus(Stimulus):
    """Drive a walking-one pattern across each input, useful for datapath designs."""

    def vectors(self, model: RtlModel, cycles: int) -> Iterator[Dict[str, int]]:
        names = model.non_clock_inputs
        for cycle in range(cycles):
            vector = {}
            for name in names:
                signal = model.signals[name]
                bit = cycle % max(signal.width, 1)
                vector[name] = (1 << bit) & signal.mask
            yield vector


class ResetSequenceStimulus(Stimulus):
    """Wrap another stimulus with an initial reset pulse.

    During the first ``reset_cycles`` cycles every reset input is asserted and
    the other inputs are held at zero; afterwards the inner stimulus drives
    the inputs and resets are deasserted.
    """

    def __init__(self, inner: Stimulus, reset_cycles: int = 2, active_high: bool = True):
        self._inner = inner
        self._reset_cycles = reset_cycles
        self._active_high = active_high

    def vectors(self, model: RtlModel, cycles: int) -> Iterator[Dict[str, int]]:
        resets = [name for name in model.resets if name in model.inputs]
        inner_iter = self._inner.vectors(model, cycles)
        for cycle in range(cycles):
            try:
                vector = next(inner_iter)
            except StopIteration:
                vector = {name: 0 for name in model.non_clock_inputs}
            in_reset = cycle < self._reset_cycles
            for name in resets:
                asserted = 1 if self._active_high else 0
                deasserted = 1 - asserted
                vector[name] = asserted if in_reset else deasserted
            if in_reset:
                for name in model.non_clock_inputs:
                    if name not in resets:
                        vector[name] = 0
            yield vector


def stack_stimuli(
    stimuli: Sequence[Stimulus], model: RtlModel, cycles: int
) -> Dict[str, "object"]:
    """Stack a batch of stimuli into ``{input name: (cycles, lanes) ndarray}``.

    Lane ``i`` carries exactly the vectors ``stimuli[i]`` would feed a scalar
    simulator, so a batched run over the stack is trace-for-trace identical
    to one scalar run per stimulus.
    """
    import numpy as np

    matrices = [stimulus.matrix(model, cycles) for stimulus in stimuli]
    return {
        name: np.stack([matrix[name] for matrix in matrices], axis=1)
        for name in model.non_clock_inputs
    }


def default_stimulus(model: RtlModel, seed: int = 0) -> Stimulus:
    """Pick a reasonable default stimulus for a design.

    Small combinational designs get an exhaustive sweep; everything else gets
    reset-aware random stimulus.
    """
    exhaustive = ExhaustiveStimulus()
    if not model.is_sequential and model.input_bits <= 12:
        return exhaustive
    return ResetSequenceStimulus(RandomStimulus(seed=seed), reset_cycles=2)
