#!/usr/bin/env python3
"""Tiny-size self-test of the session benchmark.

    python3 perfbench/selftest.py

Runs every workload on a few nodes for a fraction of a second and
checks that:

* every metric ``BENCHMARK.json`` names is emitted, with its unit, in
  the matching mode (end-to-end untraced, per-layer traced), and so are
  the end-to-end metrics that are reported but not gated;
* a correct program reports ``error_rate`` 0 and ``correct``;
* an injected wrong result raises ``error_rate`` and clears ``correct``;
* in the traced run the layer self times plus the unattributed remainder
  add up to the traced op wall time.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run

#: Small inputs: the hash workload needs ``2 * size > LOOKUPS``.
TINY_SIZE = 48
TINY_SECONDS = 0.6


def check_declared_metrics(failures: list) -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, units in (
        ("end_to_end", run.END_TO_END_UNITS),
        ("per_layer", run.PER_LAYER_UNITS),
    ):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        if listed != units:
            failures.append(f"BENCHMARK.json {section} != emitted {units}")


def check_metrics(metrics: dict, units: dict, label: str, failures: list):
    if set(metrics) != set(units):
        failures.append(f"{label}: metrics {sorted(metrics)}")
    for name, unit in units.items():
        metric = metrics.get(name, {})
        value = metric.get("value")
        if metric.get("unit") != unit or not isinstance(value, float):
            failures.append(f"{label}: bad metric {name}: {metric}")
        elif not math.isfinite(value):
            failures.append(f"{label}: {name} is {value}")


def check_layer_sum(report: dict, label: str, failures: list) -> None:
    metrics = {k: m["value"] for k, m in report["metrics"].items()}
    wall = metrics["trace.op_ms_mean"]
    layers = sum(metrics[name] for name in run.SELF_TIME_METRICS.values())
    rest = metrics["trace.unattributed_frac"] * wall
    if not math.isclose(layers + rest, wall, rel_tol=1e-9):
        failures.append(
            f"{label}: layers {layers} + unattributed {rest} != wall {wall}"
        )


def main() -> int:
    if not run.use_source_tree():
        return 2
    from session_workloads import WORKLOADS

    failures: list = []
    check_declared_metrics(failures)
    for name in WORKLOADS:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            report = run.run(
                name, 7, TINY_SECONDS, trace, size=TINY_SIZE, setups=2
            )
            units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            check_metrics(report["metrics"], units, label, failures)
            if not trace:
                check_metrics(
                    report["reported"], run.REPORTED_UNITS, label, failures
                )
            if not report["correct"] or report["error_rate"] != 0:
                failures.append(f"{label}: incorrect clean run: {report}")
            if trace:
                check_layer_sum(report, label, failures)
        wrong = run.run(
            name, 7, TINY_SECONDS, False, size=TINY_SIZE, setups=2,
            corrupt=lambda result: result + 1,
        )
        if wrong["correct"] or not wrong["error_rate"] > 0:
            failures.append(f"{name}: injected wrong result not counted")
        print(f"{name}: ok" if not failures else f"{name}: FAILED")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
