"""The input contract: the JSON type and range of every number that enters the package.

Scenario and checkpoint documents, config files, trace lines, flags and
library parameters are held to the Rules below, through `conform` (a value
against a spec of Rules) or `first_outside` (an array against a Rule). A
refusal raises the error class the caller passes, naming the field: a file's
own error (exit 2), a usage error (exit 1), or ValueError in the library.
Shapes and checks across fields stay with the readers.

Every scenario and workload number lies within BOUND = 1e12, so a rate times
a delay or a cores_per_request, the largest products the package forms, stays
within 1e24. Far above the bound commands fail: a delay of 1e18 breaks
routing's HiGHS fallback, and a cores_per_request of 1e308 makes the exact
solver's objective infinite.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

BOUND = 1e12
INT32 = 2**31 - 1
# the Python types of each kind's values; bool, a subclass of int, is refused apart
_TYPES = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


@dataclass(frozen=True)
class Rule:
    """Numbers of one kind in lo..hi, lo left out when `above`. int takes integers, numpy's
    too; float takes any number a float holds, and only a finite one lies in range."""

    kind: type
    lo: float
    hi: float
    above: bool = False

    def __str__(self) -> str:
        if self.kind is int:
            if self.hi < math.inf:
                return f"an integer in {self.lo}..{self.hi}"
            return "an integer" if self.lo == -math.inf else f"an integer >= {self.lo}"
        if self.lo == -math.inf:
            return "a finite number"
        close = ")" if self.hi == math.inf else "]"
        return f"a number in {'(' if self.above else '['}{self.lo:g}, {self.hi:g}{close}"

    def admits(self, value, ranged: bool = True) -> bool:
        """Whether value is of this kind and, when ranged, in range; never a bool or a string."""
        if isinstance(value, bool) or not isinstance(value, _TYPES[self.kind]):
            return False
        try:
            value = self.kind(value)  # a Python number, numpy's too
        except OverflowError:  # float() of an integer such as 10**400
            return False
        if not ranged:
            return True
        inside = self.lo < value if self.above else self.lo <= value
        return inside and value <= self.hi and (self.kind is int or math.isfinite(value))


class Either(tuple):
    """A spec of alternatives that differ in JSON shape: a list, an object, a number or null."""

    def __new__(cls, *alternatives):
        return super().__new__(cls, alternatives)


COUNT = Rule(int, 1, INT32)  # HiGHS reads a node budget as a 32-bit int; other counts agree
SEED = Rule(int, 0, 2**32 - 1)  # rng_stream's seed sequence takes 32 bits
INDEX = Rule(int, 0, math.inf)
UNIT = Rule(float, 0.0, 1.0)
POSITIVE = Rule(float, 0.0, math.inf, above=True)
NON_NEGATIVE = Rule(float, 0.0, math.inf)
FINITE = Rule(float, -math.inf, math.inf)
AMOUNT = Rule(float, 0.0, BOUND, above=True)  # cores, memory, cores_per_request
MAGNITUDE = Rule(float, 0.0, BOUND)  # delays and request rates
BUDGET = Either(None, COUNT)  # a node budget: None for no limit

SCENARIO = {
    "nodes": [{"id": INDEX, "cores": AMOUNT, "memory": AMOUNT}],
    "delays": [[MAGNITUDE]],
    # cores_per_request: one number for every node, or one per node; missing, 1.0
    "functions": [{"id": INDEX, "memory": AMOUNT,
                   "cores_per_request": Either(None, AMOUNT, [AMOUNT])}],
    "workload": [[MAGNITUDE]],
    "criticality": Either(None, [Rule(int, -math.inf, math.inf)]),
}
CHECKPOINT = {
    "arch": {"input_dim": COUNT, "n_actions": COUNT, "hidden": [COUNT]},
    "params": [FINITE],
    "state_scale": [POSITIVE],
}
CONFIG = {
    "ppo": {
        "learning_rate": POSITIVE, "clip_ratio": POSITIVE, "gamma": UNIT, "gae_lambda": UNIT,
        "epochs": COUNT, "minibatch_size": COUNT, "entropy_coef": NON_NEGATIVE,
        "value_coef": NON_NEGATIVE, "update_interval": COUNT, "hidden": [COUNT],
    },
    # generate_workloads holds these to their ranges, hotspot_count to 1..N
    "workload": {
        "rate_range": (MAGNITUDE, MAGNITUDE), "hotspot_count": COUNT, "concentration": UNIT,
        "drift_prob": UNIT, "per_function_rate_ranges": Either(None, [(MAGNITUDE, MAGNITUDE)]),
    },
}
TRACE_LINE = (INDEX, INDEX, INDEX, MAGNITUDE)  # snapshot, function_id, node_id, rate


def _shape(x):
    """The JSON shape of a value, or of the values a spec takes: None, dict, list or Rule."""
    if isinstance(x, (list, tuple)):
        return list
    return None if x is None else dict if isinstance(x, dict) else Rule


def _describe(spec) -> str:
    if isinstance(spec, Either):
        return " or ".join(map(_describe, spec))
    if spec is None or isinstance(spec, Rule):
        return "null" if spec is None else str(spec)
    return {dict: "an object", list: "a list"}.get(type(spec), f"a list of {len(spec)}")


def conform(value, spec, name: str, error: type[Exception] = ValueError, ranged: bool = True):
    """value held to spec, with each list (or tuple) returned as a tuple; any other value
    raises `error` naming the first entry that fails, such as "nodes[1].cores".

    spec is a Rule for one number, [s] for a list whose entries each conform to s, (s, t) for
    a list of exactly those entries, {key: s} for an object with those keys, None for null, or
    Either of specs of different shapes. A key whose spec is an Either with None may be left
    out. With ranged=False numbers are held to their kind only.
    """
    if isinstance(spec, Either):  # the alternative of value's shape; with none, a refusal
        spec = next((alt for alt in spec if _shape(alt) is _shape(value)), spec)
    if isinstance(spec, Rule):
        if spec.admits(value, ranged):
            return value
    elif spec is None:
        if value is None:
            return value
    elif isinstance(spec, dict):
        if isinstance(value, dict):
            for key, entry in spec.items():
                path = f"{name}.{key}" if name else key
                if key in value:
                    conform(value[key], entry, path, error, ranged)
                elif not (isinstance(entry, Either) and None in entry):
                    raise KeyError(path)  # as the lookup of a key that is not there would
            return value
    elif type(spec) in (list, tuple) and _shape(value) is list:
        if type(spec) is list or len(value) == len(spec):
            specs = spec if type(spec) is tuple else spec * len(value)
            return tuple(conform(v, s, f"{name}[{k}]", error, ranged)
                         for k, (v, s) in enumerate(zip(value, specs)))
    raise error(f"{name} is {reprlib.repr(value)}, not {_describe(spec)}")


def first_outside(name: str, arr: np.ndarray, rule: Rule) -> list[str]:
    """The first entry of a float array outside rule's range, as a one-line list naming it
    by name.format(*index), or an empty list."""
    inside = np.isfinite(arr) & (arr > rule.lo if rule.above else arr >= rule.lo) & (arr <= rule.hi)
    return [f"{name.format(*idx)} is {float(arr[tuple(idx)])!r}, not {rule}"
            for idx in np.argwhere(~inside)[:1]]
