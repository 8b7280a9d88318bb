"""Seeded mutation fuzz of the command line: every config exits 0, 1, 2 or 3.

Each case is a tiny valid config (n <= 4, m <= 60, at most 5 outer steps)
with one to three of its fields replaced by an extreme number, a value of
the wrong type, or nothing. It goes through ``cli.main`` as ``run``,
``sweep`` or ``verify-condition``. The contract: the exit code is in
{0, 1, 2, 3}, no exception escapes ``main`` (so no traceback is printed),
and numpy issues no ``RuntimeWarning``. The cases are drawn from a fixed
seed of the standard library's ``random``, so a failure replays; the
scales that once broke the contract, or gave a wrong result, are pinned in
``PINNED``.
"""

import contextlib
import copy
import io
import json
import random
import traceback
import warnings

import pytest

from tensorstep import cli

#: Seed of the mutation draws, and the number of drawn cases.
FUZZ_SEED = 20121563
DRAWN = 180

#: Cases are run in this many tests, so a failure names a small group.
GROUPS = 10

LOGISTIC_ROWS = [[1.0, 2.0], [0.5, -1.0], [-1.5, 0.3], [0.2, 0.7]]

BASES = (
    {"method": "itm", "p": 3, "problem": {"kind": "logistic-synthetic", "n": 4, "m": 50}},
    {"method": "stm", "p": 3, "kappa": [1.0, 1.0, 1.0],
     "problem": {"kind": "logistic-synthetic", "n": 3, "m": 40}},
    {"method": "itm", "p": 2, "problem": {"kind": "quadratic-synthetic", "n": 4}},
    {"method": "gd", "problem": {"kind": "quadratic", "A": [[2.0, 0.5], [0.5, 1.0]],
                                 "b": [1.0, -1.0]}},
    {"method": "agd", "problem": {"kind": "logistic-finite-sum", "features": LOGISTIC_ROWS,
                                  "labels": [1, -1, 1, -1], "mu": 0.1}},
    {"method": "stm", "p": 3, "kappa": [0.5, 0.5, 0.5],
     "problem": {"kind": "online-logistic", "n": 3, "pool": 60}},
)

NUMBERS = (0, -1, 1, 0.5, 2.5, 1e-300, 1e-8, 1e8, 1e76, 1e100, 1e300, 1.7e308,
           -1e154, -1e300)
WRONG = (True, None, "x", [], {}, [1.0])

#: Values a field may take: mostly in range, down to the float extremes, and
#: some out of it. Sizes and step caps stay tiny, so every case is cheap.
FIELD_VALUES = {
    "n": (1, 2, 3, 4, 0, -1, 2.5, True, "3"),
    "m": (1, 2, 5, 60, 0, 2.5),
    "pool": (1, 2, 60, 0, 2.5),
    "seed": (0, 1, 2 ** 31, 2 ** 64, -1),
    "max_iter": (1, 2, 5, 0, -1, 2.5, True),
    "seeds": ([0], [0, 1], [3], [], [-1], [0, 0], [1.5], "0"),
    "eps": ([1e-3], [1e-300], [1e300], [1e-2, 1e-4], [1e-12], [0.0], [-1.0],
            [1e-3, 1e-3], [], 1e-3),
    "kappa": ("exact", "corollary", [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1e300] * 3,
              [1e-300] * 3, [1e8, 0.0, 1e8], [-1.0] * 3, [1.0], "x"),
    "method": ("itm", "stm", "gd", "agd", "newton"),
    "p": (2, 3, 4, 2.0),
    "version": (1, 2, 1.0, "1"),
    "mode": ("offline", "online", "x"),
    "kind": ("quadratic", "logistic-synthetic", "online-logistic", "x"),
    "tau": (2.5, 4.0, 8.0, 1e8, 1e300, 2.0, -3.0),
    "delta": (0.1, 1.0, 1e-300, 0.5, 0.0, 2.0),
    "diameter": (1e-300, 1.0, 1e8, 1e300, 0.0),
    "x0_offset": (0.0, 1e-300, 1e8, 1e76, 1e100, 1e154, 1e300, 1.7e308, -1e100),
    "mu": (0.0, 1e-300, 1e-8, 1e8, 1e300, 1.7e308, -1.0),
    "cond": (1e-300, 1e-8, 1.0, 1e6, 1e8, 1e300, 0.0),
    "row_scale": (1e-300, 1e-8, 1e8, 1e76, 1e154, 1.7e308, 0.0),
    "clamp": (1e-300, 1e-8, 1e8, 1e300, 1.7e308, 0.0),
    "flip_fraction": (0.0, 1.0, 0.5, -0.1, 2.0),
}

#: Scales of the array fields.
SCALES = (0.0, 1e-300, 1e-8, 1e8, 1e76, 1e154, 1e300, -1e154, -1.0)

#: The top-level fields each method reads.
METHOD_FIELDS = {
    "itm": ("p", "eps", "seeds", "kappa", "tau", "max_iter", "x0_offset"),
    "stm": ("p", "eps", "seeds", "kappa", "tau", "max_iter", "x0_offset", "delta"),
    "gd": ("p", "eps", "seeds", "max_iter", "x0_offset"),
    "agd": ("p", "eps", "seeds", "max_iter", "x0_offset"),
}

#: The fields of each problem kind.
KIND_FIELDS = {
    "quadratic": ("A", "b"),
    "quadratic-synthetic": ("n", "seed", "cond"),
    "logistic-synthetic": ("n", "m", "seed", "mu", "row_scale", "flip_fraction", "mode"),
    "logistic-finite-sum": ("features", "labels", "mu", "mode", "clamp"),
    "online-logistic": ("n", "pool", "seed", "mu", "clamp", "flip_fraction"),
}

TOP_FIELDS = ("method", "diameter", "version", *METHOD_FIELDS["stm"])
PROBLEM_FIELDS = ("kind", *sorted({f for fields in KIND_FIELDS.values() for f in fields}))

#: Scales that once printed a warning or a traceback, or a wrong result, each
#: on one of ``BASES``; a third entry is text the output must contain.
PINNED = (
    ({"x0_offset": 1e100}, 0),
    ({"problem": {"kind": "logistic-synthetic", "n": 4, "m": 50, "row_scale": 1e76},
      "kappa": "exact"}, 0),
    ({"problem": {"kind": "logistic-synthetic", "n": 4, "m": 50, "row_scale": 1.7e308}}, 0),
    ({"problem": {"kind": "logistic-synthetic", "n": 4, "m": 50, "mu": 1.7e308}}, 0),
    ({"problem": {"kind": "quadratic", "A": [[1.0]], "b": [1e300]}}, 3),
    ({"problem": {"kind": "quadratic", "A": [[1.0]], "b": [-1e154]}}, 3),
    ({"problem": {"kind": "quadratic", "A": [[1.0]], "b": [-1e154]}, "p": 2}, 0),
    ({"problem": {"kind": "quadratic-synthetic", "n": 3, "cond": 1e-300}}, 2),
    ({"problem": {"kind": "online-logistic", "n": 3, "pool": 60, "clamp": 1.7e308},
      "command": "verify-condition"}, 5),
    ({"delta": 5e-324}, 1),
    ({"delta": 5e-324, "command": "verify-condition"}, 1),
    ({"delta": 5e-324}, 5),
    ({"kappa": "corollary", "diameter": 5e-324}, 0),
    ({"kappa": "corollary", "diameter": 5e-324}, 2),
    ({"problem": {"kind": "quadratic", "A": [[1.7e308, 0.0], [0.0, 1.0]], "b": [1.0, -1.0]}}, 3),
    ({"problem": {"kind": "quadratic", "A": [[1.0, 9e307], [-9e307, 1.0]], "b": [1.0, -1.0]}}, 3),
    ({"problem": {"kind": "quadratic-synthetic", "n": 3, "cond": 5e-324}}, 2),
    # a subnormal delta / p, whose 2 / delta overflows: the online plan was
    # inf samples (exit 1), and the offline plan full batches at every order
    ({"delta": 1e-323}, 5, "status=max-iter"),
    ({"delta": 1e-323, "kappa": [1.0, 1.0, 100.0], "command": "verify-condition"}, 1,
     "plan sizes: (40, 40, 7)"),
)


def _value(rng, field, current):
    if field in FIELD_VALUES:
        return rng.choice(FIELD_VALUES[field])
    if field in ("A", "features") and isinstance(current, list):
        scale = rng.choice(SCALES)
        return [[scale * v for v in row] for row in current]
    if field in ("b", "labels") and isinstance(current, list):
        scale = rng.choice(SCALES)
        return [scale * v for v in current]
    return rng.choice(NUMBERS + WRONG)


def _mutate(rng, config):
    """Replace one or two fields of ``config``: most often one its method or
    problem kind reads, else any field; now and then drop a field or add an
    unknown one."""
    problem = config["problem"]
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            target = config
            fields = METHOD_FIELDS[config["method"]] if rng.random() < 0.8 else TOP_FIELDS
        else:
            target = problem
            fields = KIND_FIELDS[problem["kind"]] if rng.random() < 0.8 else PROBLEM_FIELDS
        field = rng.choice(fields)
        roll = rng.random()
        if roll < 0.05:
            target.pop(field, None)
        elif roll < 0.08:
            target["unknown"] = 1
        else:
            target[field] = _value(rng, field, target.get(field))
        if not isinstance(problem.get("kind"), str) or problem["kind"] not in KIND_FIELDS \
                or config.get("method") not in METHOD_FIELDS:
            return


def _case(config, command="run", extra=(), expected=None):
    data = {"version": 1, "eps": [1e-3], "seeds": [0], "max_iter": 3, **config}
    return command, data, list(extra), expected


def cases():
    """``(command, config data, extra arguments, expected output or None)`` of
    every case, in order."""
    out = []
    for fields, base, *expected in PINNED:
        fields = copy.deepcopy(fields)
        command = fields.pop("command", "run")
        extra = ["--trials", "2"] if command == "verify-condition" else []
        out.append(_case({**copy.deepcopy(BASES[base]), **fields}, command, extra,
                         *expected))
    rng = random.Random(FUZZ_SEED)
    for _ in range(DRAWN):
        config = copy.deepcopy(rng.choice(BASES))
        roll = rng.random()
        command, extra = "run", []
        if roll < 0.15:
            # a sweep fits over two accuracies
            command, config["eps"] = "sweep", [1e-2, 1e-3]
        elif roll < 0.3:
            # verify-condition runs stm on an explicit kappa
            command, extra = "verify-condition", ["--trials", "2"]
            config["method"] = "stm"
            if not isinstance(config.get("kappa"), list):
                config["kappa"] = [1.0] * config.get("p", 3)
        _mutate(rng, config)
        if rng.random() < 0.1:
            extra += rng.choice((["--p", "2"], ["--p", "3"], ["--eps", "1e-2,1e-3"],
                                 ["--eps", "abc"], ["--seed", "1"]))
        out.append(_case(config, command, extra))
    return out


CASES = cases()


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """Per case: the exit code, or the traceback of the exception that escaped
    ``main``, the messages of the ``RuntimeWarning``s it issued, and its output."""
    folder = tmp_path_factory.mktemp("fuzz")
    out = []
    for index, (command, data, extra, _) in enumerate(CASES):
        path = folder / f"case{index}.json"
        path.write_text(json.dumps(data))
        sink = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            warnings.simplefilter("always")
            try:
                result = cli.main([command, "--config", str(path), *extra])
            except Exception:  # noqa: BLE001 - the escape is the failure
                result = traceback.format_exc(limit=-3)
        out.append((result, [str(w.message) for w in caught
                             if issubclass(w.category, RuntimeWarning)], sink.getvalue()))
    return out


@pytest.mark.parametrize("group", range(GROUPS))
def test_every_case_keeps_the_exit_code_contract(outcomes, group):
    failures = [
        f"case {index} {CASES[index]}: exit {result!r}, warnings {runtime}, output {output!r}"
        for index in range(group, len(CASES), GROUPS)
        for (result, runtime, output), expected in [(outcomes[index], CASES[index][3])]
        if result not in (0, 1, 2, 3) or runtime or (expected and expected not in output)
    ]
    assert not failures, "\n".join(failures)


def test_cases_reach_the_solvers(outcomes):
    # cases that all failed validation would test only the config parser
    codes = [result for result, _, _ in outcomes]
    assert {0, 1, 2} <= set(codes)
    assert sum(code in (0, 2, 3) for code in codes) >= 0.4 * len(codes)
