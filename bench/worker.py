"""Child process of the benchmark; prints one JSON object on stdout.

    worker.py cli ARG...           run `boolprod ARG...` traced, in this
                                   fresh process, capturing its stdout
    worker.py count N P TRACE      run complement_count(N, P) alone in this
                                   fresh process, traced if TRACE is 1
    worker.py session ORDER TRACE  run the session cases in ORDER (comma
                                   separated indices) in one warm process,
                                   traced if TRACE is 1, then check them

boolprod must be importable (the benchmark puts the checkout's src on
PYTHONPATH).
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout

import boolprod.cli

import pace
import spans


def _kostka_delta(before: tuple) -> list:
    hits, misses, entries = spans.kostka_counts()
    return [hits - before[0] + misses - before[1], misses - before[1], entries]


def run_cli(argv: list) -> dict:
    tracer = spans.Tracer()
    spans.install(tracer)
    main = tracer.wrap(boolprod.cli.main, "cli.main")
    before = spans.kostka_counts()
    captured = io.StringIO()
    with redirect_stdout(captured):
        rc = main(argv)
    return {"rc": rc, "stdout": captured.getvalue(),
            "spans": tracer.spans, "kostka": [_kostka_delta(before)]}


def run_count(n: int, p: int, trace: bool) -> dict:
    tracer = spans.Tracer()
    if trace:
        spans.install(tracer)
    before = spans.kostka_counts()
    count = sys.modules["boolprod.resonance"].complement_count(n, p)
    record = {"command": "count", "result": {"n": n, "p": p, "count": count}}
    return {"rc": 0, "stdout": json.dumps(record),
            "spans": tracer.spans, "kostka": [_kostka_delta(before)]}


def plain(value):
    """A result or argument as the plain data the oracle checks."""
    if hasattr(value, "lhs"):
        return (value.equal, plain(value.lhs)[1], plain(value.rhs)[1])
    if hasattr(value, "forms"):
        return (value.var_count, tuple(value.forms))
    if hasattr(value, "terms"):
        blocks = (value.n, value.m) if hasattr(value, "m") else value.var_count
        return (blocks, {key: tuple(c.coeffs) if hasattr(c, "coeffs") else c
                         for key, c in value.terms.items()})
    return value


def run_session(order: list, trace: bool) -> dict:
    # imported here, not at the top, to keep them out of the traced CLI
    # child, whose start-up is part of what the benchmark times
    import traceback

    import cases
    import oracle

    all_cases = cases.session_cases()
    modules = {name: sys.modules[f"boolprod.{name}"] for name in spans.TRACED}
    tracer = spans.Tracer()
    if trace:
        spans.install(tracer)
    before = spans.kostka_counts()
    # the reference runs after each stretch of at least 0.1 s of cases
    timed, run_pace, stretch = [], pace.Pace(), 0.0
    for index in order:
        label, calls = all_cases[index]
        tracer.case = index
        results, errors = [], []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for module, name, args in calls:
            args = tuple(results[a.index] if isinstance(a, cases.Ref) else a for a in args)
            try:
                results.append(getattr(modules[module], name)(*args))
            except Exception:  # a failed call is counted, and the sweep goes on
                results.append(None)
                errors.append(traceback.format_exc(limit=2))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        timed.append((index, label, calls, results, errors, wall, cpu))
        stretch += wall
        if stretch >= 0.1 or len(timed) == len(order):
            run_pace.sample(stretch)
            stretch = 0.0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kostka = [_kostka_delta(before)]

    out = []
    for index, label, calls, results, errors, wall, cpu in timed:
        failures = list(errors)
        for (module, name, args), result in zip(calls, results):
            if result is None:
                continue
            values = tuple(results[a.index] if isinstance(a, cases.Ref) else a for a in args)
            try:
                oracle.check_call(name, tuple(plain(v) for v in values), plain(result))
            except Exception as exc:  # a malformed result fails its call
                failures.append(f"{name}{args}: {type(exc).__name__}: {exc}")
        out.append({"case": index, "label": label, "wall": wall, "cpu": cpu,
                    "calls": len(calls), "failures": failures})
    return {"cases": out, "maxrss_kb": maxrss_kb, "spans": tracer.spans, "kostka": kostka,
            "pace": run_pace.samples}


def main(argv: list) -> int:
    if argv[:1] == ["cli"]:
        report = run_cli(argv[1:])
    elif argv[:1] == ["count"] and len(argv) == 4:
        report = run_count(int(argv[1]), int(argv[2]), argv[3] == "1")
    elif argv[:1] == ["session"] and len(argv) == 3:
        report = run_session([int(i) for i in argv[1].split(",")], argv[2] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
