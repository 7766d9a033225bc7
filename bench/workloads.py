"""The benchmark workloads: inputs, one closed-loop iteration, output checks.

Every workload reaches the library only through the public names of the
``diffalg`` package, looked up at call time, so the tracer's wrappers see
the calls.

- ``suite``: the default ``diffalg verify all`` at rank 2.  The seed is the
  suite's master seed; it is the only workload with random draws.
- ``operator``: the rank-3 closed-form shift element minus its generator
  form, which must be the zero operator.  Rational-function arithmetic with
  ``exact_divide``, no row reduction or membership test.
"""

import hashlib
import json

NAMES = ("suite", "operator")

# sha256 of json.dumps(report.entries, sort_keys=True) for
# run_suite(CheckConfig("all", seed=0)).  It covers the entries only, not
# the config echo, so a change to the echoed fields leaves it valid.
SUITE_SEED0_DIGEST = "0e5ef4bed8019fcaecccc889aff3755ef385803139f9843ed622f54d6b284512"
SUITE_STEPS = 27  # report entries of ``verify all``; the seed changes values, not steps

OPERATOR_LAMBDA = (1, 0, 0)


def setup(name, seed):
    """Import the library and build the workload's inputs.

    The import happens here, not at module level, because it is part of
    what ``setup_s`` times.
    """
    import diffalg

    if name == "suite":
        return {"config": diffalg.CheckConfig("all", seed=seed)}
    if name == "operator":
        return {"ctx": diffalg.VarContext(3)}
    raise ValueError(f"unknown workload {name!r}")


def run(name, inputs, seed):
    """One iteration: call the library, check its output.

    Returns ``(attempted, failed, output)``.  ``output`` is a canonical text
    of what the library returned, for comparing runs with each other.
    """
    return _RUNNERS[name](inputs, seed)


def checks(name, seed):
    """Number of checks one iteration of the workload makes."""
    if name == "suite":
        return SUITE_STEPS + (1 if seed == 0 else 0)
    return 1


def _run_suite(inputs, seed):
    import diffalg

    report = diffalg.run_suite(inputs["config"])
    failed = sum(1 for entry in report.entries if entry["status"] != "pass")
    attempted = len(report.entries)
    entries = json.dumps(report.entries, sort_keys=True)
    if seed == 0:
        attempted += 1
        if hashlib.sha256(entries.encode()).hexdigest() != SUITE_SEED0_DIGEST:
            failed += 1
    return attempted, failed, entries


def _run_operator(inputs, seed):
    import diffalg

    ctx = inputs["ctx"]
    closed = diffalg.e_lambda(ctx, OPERATOR_LAMBDA, "closed")
    generators = diffalg.e_lambda(ctx, OPERATOR_LAMBDA, "generators")
    difference = closed - generators
    output = diffalg.op_to_text(difference)
    return 1, 0 if difference.is_zero() else 1, output


_RUNNERS = {"suite": _run_suite, "operator": _run_operator}
