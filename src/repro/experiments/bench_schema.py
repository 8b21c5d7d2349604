"""Schema validation for the committed ``BENCH_*.json`` artifacts.

Benchmark jobs write JSON artifacts (``BENCH_serve.json``,
``BENCH_pool.json``, ``BENCH_build_kernels.json``, ``BENCH_adaptive.json``, and the
coverage study's ``BENCH_coverage_intervals.json``) that CI uploads and
later jobs/dashboards consume.  A benchmark refactor that silently
drops or retypes a field breaks those consumers long after the PR
merged, so CI validates every artifact against the schemas here —
pure-python, no external JSON-Schema dependency.

A schema is a mapping ``field -> FieldSpec``; validation reports *all*
violations (missing, unknown, mistyped, out-of-range fields) rather
than stopping at the first, so one CI run shows the full repair list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FieldSpec",
    "SCHEMAS",
    "validate_payload",
    "validate_artifact",
    "validate_bench_artifacts",
]

_TYPE_NAMES = {bool: "bool", int: "int", float: "number", str: "str"}


@dataclass(frozen=True)
class FieldSpec:
    """One artifact field: accepted types plus an optional range."""

    types: tuple
    required: bool = True
    minimum: float | None = None
    exclusive_minimum: bool = False

    def describe(self) -> str:
        names = "|".join(_TYPE_NAMES.get(t, t.__name__) for t in self.types)
        if self.minimum is not None:
            op = ">" if self.exclusive_minimum else ">="
            return f"{names} {op} {self.minimum:g}"
        return names

    def violations(self, field: str, value) -> list[str]:
        # bool is an int subclass: only accept it where bool is listed.
        if isinstance(value, bool) and bool not in self.types:
            return [f"{field}: expected {self.describe()}, got bool"]
        if not isinstance(value, self.types):
            return [
                f"{field}: expected {self.describe()}, "
                f"got {type(value).__name__}"
            ]
        if isinstance(value, float) and not math.isfinite(value):
            return [f"{field}: must be finite, got {value!r}"]
        if self.minimum is not None and not isinstance(value, (str, bool)):
            if self.exclusive_minimum:
                if not value > self.minimum:
                    return [f"{field}: must be > {self.minimum:g}, got {value!r}"]
            elif not value >= self.minimum:
                return [f"{field}: must be >= {self.minimum:g}, got {value!r}"]
        return []


def _positive_int(required: bool = True) -> FieldSpec:
    return FieldSpec((int,), required, minimum=1)


def _count(required: bool = True) -> FieldSpec:
    return FieldSpec((int,), required, minimum=0)


def _positive_number(required: bool = True) -> FieldSpec:
    return FieldSpec((int, float), required, minimum=0.0, exclusive_minimum=True)


def _nonnegative_number(required: bool = True) -> FieldSpec:
    return FieldSpec((int, float), required, minimum=0.0)


_STAGE_SCHEMA = {
    "stage": FieldSpec((str,)),
    "answers": _positive_int(),
    "covered": _count(),
    "coverage": _nonnegative_number(),
    "mean_width": _nonnegative_number(),
    "max_width": _nonnegative_number(),
}

#: Per-artifact schemas, keyed by file name.
SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "BENCH_serve.json": {
        "row_count": _positive_int(),
        "domain": _positive_int(),
        "query_count": _positive_int(),
        "thread_count": _positive_int(),
        "max_batch": _positive_int(),
        "max_delay_ms": _nonnegative_number(),
        "naive_seconds": _positive_number(),
        "served_seconds": _positive_number(),
        "naive_qps": _positive_number(),
        "served_qps": _positive_number(),
        "speedup": _positive_number(),
        "batches": _count(),
        "mean_batch_size": _nonnegative_number(),
        "cache_hits": _count(),
        "max_abs_difference": _nonnegative_number(),
    },
    "BENCH_pool.json": {
        "row_count": _positive_int(),
        "domain": _positive_int(),
        "shards": _positive_int(),
        "budget_words": _positive_int(),
        "query_count": _positive_int(),
        "thread_count": _positive_int(),
        "single_workers": _positive_int(),
        "single_seconds": _positive_number(),
        "single_qps": _positive_number(),
        "pool_workers": _positive_int(),
        "pool_seconds": _positive_number(),
        "pool_qps": _positive_number(),
        "speedup": _positive_number(),
        "max_abs_difference": _nonnegative_number(),
        "engine_pickle_free": FieldSpec((bool,)),
        "segment_bytes": _positive_int(),
        "cache_hits": _count(),
    },
    "BENCH_build_kernels.json": {
        "benchmark": FieldSpec((str,)),
        "n": _positive_int(),
        "seed": FieldSpec((int,)),
        "scalar_precompute_seconds": _positive_number(),
        "vectorised_precompute_seconds": _positive_number(),
        "speedup": _positive_number(),
        "gate": _positive_number(),
        "bit_identical": FieldSpec((bool,)),
    },
    "BENCH_adaptive.json": {
        "row_count": _positive_int(),
        "domain": _positive_int(),
        "shards": _positive_int(),
        "budget_words": _positive_int(),
        "query_count": _positive_int(),
        "seed": FieldSpec((int,)),
        "method": FieldSpec((str,)),
        "hot_low": _count(),
        "hot_high": _count(),
        "uniform_sse": _nonnegative_number(),
        "optimized_sse": _nonnegative_number(),
        "improvement": _positive_number(),
        "shards_rebuilt": _count(),
        "hot_budget_before": _count(),
        "hot_budget_after": _count(),
        "budget_total_before": _positive_int(),
        "budget_total_after": _positive_int(),
    },
    "BENCH_coverage_intervals.json": {
        "row_count": _positive_int(),
        "domain": _positive_int(),
        "query_count": _positive_int(),
        "shards": _positive_int(),
        "confidence": _positive_number(),
        "seed": FieldSpec((int,)),
        "append_rows": _count(),
        "stages": FieldSpec((list,)),
        "min_stage_coverage": _nonnegative_number(),
        "final_stage_bitwise": FieldSpec((bool,)),
    },
}


def validate_payload(payload, schema: dict[str, FieldSpec]) -> list[str]:
    """Every violation of ``schema`` in ``payload`` (empty = valid)."""
    if not isinstance(payload, dict):
        return [f"artifact must be a JSON object, got {type(payload).__name__}"]
    problems: list[str] = []
    for field, spec in schema.items():
        if field not in payload:
            if spec.required:
                problems.append(f"{field}: missing required field")
            continue
        problems.extend(spec.violations(field, payload[field]))
    for field in sorted(set(payload) - set(schema)):
        problems.append(f"{field}: unknown field")
    return problems


def _validate_coverage_artifact(payload) -> list[str]:
    """Coverage artifacts are a *list* of per-seed study dicts."""
    if not isinstance(payload, list) or not payload:
        return ["artifact must be a non-empty JSON array of studies"]
    problems: list[str] = []
    for index, study in enumerate(payload):
        for problem in validate_payload(
            study, SCHEMAS["BENCH_coverage_intervals.json"]
        ):
            problems.append(f"study[{index}].{problem}")
        if isinstance(study, dict):
            for stage_index, stage in enumerate(study.get("stages") or []):
                for problem in validate_payload(stage, _STAGE_SCHEMA):
                    problems.append(
                        f"study[{index}].stages[{stage_index}].{problem}"
                    )
    return problems


def validate_artifact(path) -> list[str]:
    """Validate one ``BENCH_*.json`` file; returns its violations.

    Unknown artifact names are themselves a violation: a new benchmark
    must register a schema here before CI will accept its output.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable artifact: {exc}"]
    if path.name == "BENCH_coverage_intervals.json":
        return _validate_coverage_artifact(payload)
    schema = SCHEMAS.get(path.name)
    if schema is None:
        return [
            f"no schema registered for {path.name!r}; add one to "
            "repro.experiments.bench_schema.SCHEMAS"
        ]
    return validate_payload(payload, schema)


def validate_bench_artifacts(root) -> dict[str, list[str]]:
    """Validate every ``BENCH_*.json`` under ``root`` (non-recursive).

    Returns ``{file name: violations}`` for all artifacts found; an
    empty violation list means that artifact passed.
    """
    root = Path(root)
    return {
        path.name: validate_artifact(path)
        for path in sorted(root.glob("BENCH_*.json"))
    }
