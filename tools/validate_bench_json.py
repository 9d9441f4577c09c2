#!/usr/bin/env python3
"""Validates machine-readable benchmark records (schema version 1).

Usage: tools/validate_bench_json.py RECORD.json [RECORD.json ...]

Accepts either a single record object (as emitted by `micro_ssj --json=` or
`micro_joint --json=`) or an array of records (the committed
bench/BENCH_ssj.json and bench/BENCH_joint.json archives [before, after]).
The per-record shape is dispatched on the "benchmark" field. Exits non-zero
with a message naming the offending field on the first violation. Run by
the bench-smoke step of tools/ci.sh.
"""

import json
import re
import sys

# Machine context every record must carry (micro_kernels spells these out
# in its own workload schema): the core budget and the active SIMD level,
# without which archived timings are not comparable across runners.
MACHINE_FIELDS = {
    "cpu_cores": int,
    "simd_level": str,
}

WORKLOAD_FIELDS = {
    "dataset": str,
    "scale": (int, float),
    "rows_a": int,
    "rows_b": int,
    "config_mask": int,
    "measure": str,
    "k": int,
    "repetitions": int,
}

RESULT_FIELDS = {
    "name": str,
    "q": int,
    "shards": int,
    "best_seconds": (int, float),
    "mean_seconds": (int, float),
    "pairs": int,
    "events_popped": int,
    "pairs_scored": int,
    "topk_checksum": str,
}

JOINT_WORKLOAD_FIELDS = {
    "dataset": str,
    "scale": (int, float),
    "rows_a": int,
    "rows_b": int,
    "configs": int,
    "k": int,
    "q": int,
    "threads": int,
    "build_threads": int,
    "reuse_trigger": (int, float),
    "repetitions": int,
}

# micro_joint stage timings, in emission order.
JOINT_STAGE_NAMES = ["corpus_build", "view_build", "joint_execute",
                     "end_to_end"]

JOINT_STAGE_FIELDS = {
    "name": str,
    "best_seconds": (int, float),
    "mean_seconds": (int, float),
}

JOINT_OUTPUT_FIELDS = {
    "pairs": int,
    "cache_hits": int,
    "cache_misses": int,
    "seeded_configs": int,
    "events_popped": int,
    "pairs_scored": int,
    "zero_copy_rows": int,
    "materialized_rows": int,
    "overlap_cache_shards": int,
    "topk_checksum": str,
    "determinism_checked": bool,
    "identical_to_single_thread": bool,
}


TEXT_WORKLOAD_FIELDS = {
    "dataset": str,
    "scale": (int, float),
    "rows_a": int,
    "rows_b": int,
    "columns": int,
    "promising_columns": int,
    "feature_pairs": int,
    "threads": int,
    "text_plane": str,
    "repetitions": int,
}

# micro_text stage timings, in emission order. Legacy records have no
# plane_build stage (there is no plane to build).
TEXT_STAGE_NAMES = ["plane_build", "profile", "corpus_build", "featurize",
                    "end_to_end"]

TEXT_OUTPUT_FIELDS = {
    "profile_checksum": str,
    "corpus_checksum": str,
    "feature_checksum": str,
    "equivalence_checked": bool,
    "identical_to_legacy": bool,
}

TEXT_CHECKSUM_KEYS = ["profile_checksum", "corpus_checksum",
                      "feature_checksum"]


KERNELS_WORKLOAD_FIELDS = {
    "simd_level": str,
    "simd_level_requested": str,
    "cpu_flags": str,
    "cpu_cores": int,
    "spans": int,
    "kernel_pairs": int,
    "verifier_rows": int,
    "repetitions": int,
}

# micro_kernels stage timings, in emission order.
KERNELS_STAGE_NAMES = ["overlap_kernel", "overlap_capped", "overlap_at_least",
                       "score_many", "verifier_rerank_1t",
                       "verifier_rerank_4t"]

KERNELS_OUTPUT_FIELDS = {
    "overlap_checksum": str,
    "capped_checksum": str,
    "at_least_checksum": str,
    "score_checksum": str,
    "verifier_checksum": str,
    "verifier_identical_across_threads": bool,
}

KERNELS_CHECKSUM_KEYS = ["overlap_checksum", "capped_checksum",
                         "at_least_checksum", "score_checksum",
                         "verifier_checksum"]

KERNELS_LEVELS = ("scalar", "sse4", "avx2")


SERVICE_WORKLOAD_FIELDS = {
    "dataset": str,
    "scale": (int, float),
    "rows_a": int,
    "rows_b": int,
    "sessions": int,
    "concurrency": int,
    "k": int,
    "threads": int,
    "repetitions": int,
}

# micro_service stage timings, in emission order.
SERVICE_STAGE_NAMES = ["isolated", "shared"]

SERVICE_STAGE_FIELDS = {
    "name": str,
    "best_seconds": (int, float),
    "mean_seconds": (int, float),
    "sessions_per_sec": (int, float),
}

SERVICE_OUTPUT_FIELDS = {
    "shared_speedup": (int, float),
    "admission_p99_millis": (int, float),
    "plane_cache_hits": int,
    "plane_cache_misses": int,
    "plane_hit_rate": (int, float),
    "corpus_cache_hits": int,
    "identical_to_isolated": bool,
    "topk_checksum": str,
}


DELTA_WORKLOAD_FIELDS = {
    "dataset": str,
    "scale": (int, float),
    "rows_a": int,
    "rows_b": int,
    "generations": int,
    "delta_rows": int,
    "k": int,
    "threads": int,
    "repetitions": int,
    "seed": int,
}

# micro_delta stage timings, in emission order.
DELTA_STAGE_NAMES = ["rebuild", "patch"]

DELTA_STAGE_FIELDS = {
    "name": str,
    "best_seconds": (int, float),
    "mean_seconds": (int, float),
    "generations_per_sec": (int, float),
}

DELTA_OUTPUT_FIELDS = {
    "patch_speedup": (int, float),
    "lists_repaired": int,
    "lists_rejoined": int,
    "dead_token_fraction": (int, float),
    "plane_crc": str,
    "corpus_crc": str,
    "topk_checksum": str,
    "rebuilt_topk_checksum": str,
    "identical_to_rebuild": bool,
}


PLANNER_WORKLOAD_FIELDS = {
    "dataset": str,
    "scale": (int, float),
    "rows_a": int,
    "rows_b": int,
    "config_mask": int,
    "measure": str,
    "k": int,
    "repetitions": int,
}

# micro_planner end-to-end paths, in emission order.
PLANNER_PATH_NAMES = ["race_path", "planner_path"]

PLANNER_PATH_FIELDS = {
    "name": str,
    "q": int,
    "shards": int,
    "hybrid": bool,
    "select_seconds": (int, float),
    "join_seconds": (int, float),
    "best_seconds": (int, float),
    "mean_seconds": (int, float),
    "pairs": int,
    "topk_checksum": str,
}

PLANNER_COMPARISON_FIELDS = {
    "speedup": (int, float),
    "identical_to_race": bool,
    "identical_to_direct": bool,
    "race_q": int,
    "planner_q": int,
    "planner_hybrid": bool,
    "planner_tau": (int, float),
    "planner_sample_rate": int,
    "planner_sample_rows": int,
    "planner_seed": int,
}


PLANCACHE_WORKLOAD_FIELDS = {
    "dataset": str,
    "scale": (int, float),
    "rows_a": int,
    "rows_b": int,
    "k": int,
    "threads": int,
    "max_attributes": int,
    "sessions": int,
    "repetitions": int,
}

# micro_plancache arms, in emission order.
PLANCACHE_ARM_NAMES = ["warm_cached", "warm_fresh_planned"]

PLANCACHE_ARM_FIELDS = {
    "name": str,
    "cold_seconds": (int, float),
    "best_seconds": (int, float),
    "mean_seconds": (int, float),
    "sessions_per_sec": (int, float),
    "plan_cache_hits": int,
    "plan_cache_misses": int,
    "plans_computed": int,
    "topk_checksum": str,
}

PLANCACHE_COMPARISON_FIELDS = {
    "speedup": (int, float),
    "identical_to_fresh": bool,
    "cached_hit_count": int,
    "fresh_plans_computed": int,
}


class ValidationError(Exception):
    pass


def require(condition, message):
    if not condition:
        raise ValidationError(message)


def check_fields(obj, fields, where):
    require(isinstance(obj, dict), f"{where}: expected an object")
    for name, types in fields.items():
        require(name in obj, f"{where}: missing field '{name}'")
        # bool is an int subclass in Python: reject it for numeric fields,
        # but accept it where the schema asks for bool explicitly.
        wants_bool = types is bool
        require(
            isinstance(obj[name], types)
            and (wants_bool or not isinstance(obj[name], bool)),
            f"{where}: field '{name}' has wrong type "
            f"({type(obj[name]).__name__})",
        )


def check_workload(obj, fields, where):
    """A workload block: the benchmark-specific fields plus the mandatory
    machine context (cpu_cores, simd_level)."""
    check_fields(obj, fields, where)
    check_fields(obj, MACHINE_FIELDS, where)
    require(obj["cpu_cores"] >= 1, f"{where}: cpu_cores must be >= 1")
    require(obj["simd_level"],
            f"{where}: simd_level must be a non-empty string")


def validate_joint_record(record, where):
    """micro_joint_executor: stage timings + a single output block."""
    check_workload(record.get("workload"), JOINT_WORKLOAD_FIELDS,
                   f"{where}.workload")
    results = record.get("results")
    require(isinstance(results, list), f"{where}: 'results' must be an array")
    require([r.get("name") for r in results if isinstance(r, dict)]
            == JOINT_STAGE_NAMES,
            f"{where}: results must be the stages {JOINT_STAGE_NAMES}")
    for i, result in enumerate(results):
        where_r = f"{where}.results[{i}]"
        check_fields(result, JOINT_STAGE_FIELDS, where_r)
        require(result["best_seconds"] > 0.0,
                f"{where_r}: best_seconds must be positive")
        require(result["mean_seconds"] >= result["best_seconds"],
                f"{where_r}: mean_seconds < best_seconds")
    output = record.get("output")
    check_fields(output, JOINT_OUTPUT_FIELDS, f"{where}.output")
    workload = record["workload"]
    require(output["pairs"] <= workload["k"] * workload["configs"],
            f"{where}.output: pairs exceeds k x configs")
    require(re.fullmatch(r"[0-9a-f]{8}", output["topk_checksum"]),
            f"{where}.output: topk_checksum is not 8 lowercase hex digits")
    if output["determinism_checked"]:
        require(output["identical_to_single_thread"],
                f"{where}.output: determinism check ran but failed")


def validate_text_record(record, where):
    """micro_text_plane: stage timings + the three output checksums."""
    check_workload(record.get("workload"), TEXT_WORKLOAD_FIELDS,
                   f"{where}.workload")
    workload = record["workload"]
    require(workload["text_plane"] in ("legacy", "tokenized"),
            f"{where}.workload: text_plane must be legacy|tokenized")
    tokenized = workload["text_plane"] == "tokenized"
    expected_stages = (TEXT_STAGE_NAMES if tokenized
                       else TEXT_STAGE_NAMES[1:])
    results = record.get("results")
    require(isinstance(results, list), f"{where}: 'results' must be an array")
    require([r.get("name") for r in results if isinstance(r, dict)]
            == expected_stages,
            f"{where}: results must be the stages {expected_stages}")
    for i, result in enumerate(results):
        where_r = f"{where}.results[{i}]"
        check_fields(result, JOINT_STAGE_FIELDS, where_r)
        require(result["best_seconds"] > 0.0,
                f"{where_r}: best_seconds must be positive")
        require(result["mean_seconds"] >= result["best_seconds"],
                f"{where_r}: mean_seconds < best_seconds")
    output = record.get("output")
    check_fields(output, TEXT_OUTPUT_FIELDS, f"{where}.output")
    for key in TEXT_CHECKSUM_KEYS:
        require(re.fullmatch(r"[0-9a-f]{8}", output[key]),
                f"{where}.output: {key} is not 8 lowercase hex digits")
    if tokenized:
        require(output["equivalence_checked"],
                f"{where}.output: tokenized records must run the "
                "legacy-equivalence check")
    if output["equivalence_checked"]:
        require(output["identical_to_legacy"],
                f"{where}.output: equivalence check ran but failed")


def validate_kernels_record(record, where):
    """micro_kernels: per-level stage timings + output checksums."""
    check_fields(record.get("workload"), KERNELS_WORKLOAD_FIELDS,
                 f"{where}.workload")
    workload = record["workload"]
    require(workload["simd_level"] in KERNELS_LEVELS,
            f"{where}.workload: simd_level must be one of {KERNELS_LEVELS}")
    require(workload["simd_level_requested"] in KERNELS_LEVELS + ("auto",),
            f"{where}.workload: simd_level_requested must be "
            f"auto|{'|'.join(KERNELS_LEVELS)}")
    require(workload["cpu_cores"] >= 1,
            f"{where}.workload: cpu_cores must be >= 1")
    results = record.get("results")
    require(isinstance(results, list), f"{where}: 'results' must be an array")
    require([r.get("name") for r in results if isinstance(r, dict)]
            == KERNELS_STAGE_NAMES,
            f"{where}: results must be the stages {KERNELS_STAGE_NAMES}")
    for i, result in enumerate(results):
        where_r = f"{where}.results[{i}]"
        check_fields(result, JOINT_STAGE_FIELDS, where_r)
        require(result["best_seconds"] > 0.0,
                f"{where_r}: best_seconds must be positive")
        require(result["mean_seconds"] >= result["best_seconds"],
                f"{where_r}: mean_seconds < best_seconds")
    output = record.get("output")
    check_fields(output, KERNELS_OUTPUT_FIELDS, f"{where}.output")
    for key in KERNELS_CHECKSUM_KEYS:
        require(re.fullmatch(r"[0-9a-f]{8}", output[key]),
                f"{where}.output: {key} is not 8 lowercase hex digits")
    require(output["verifier_identical_across_threads"],
            f"{where}.output: verifier re-rank differed across thread counts")


def validate_service_record(record, where):
    """micro_service: isolated-vs-shared session timings + sharing stats."""
    check_workload(record.get("workload"), SERVICE_WORKLOAD_FIELDS,
                   f"{where}.workload")
    workload = record["workload"]
    require(workload["sessions"] >= 1 and workload["concurrency"] >= 1,
            f"{where}.workload: sessions and concurrency must be >= 1")
    results = record.get("results")
    require(isinstance(results, list), f"{where}: 'results' must be an array")
    require([r.get("name") for r in results if isinstance(r, dict)]
            == SERVICE_STAGE_NAMES,
            f"{where}: results must be the stages {SERVICE_STAGE_NAMES}")
    for i, result in enumerate(results):
        where_r = f"{where}.results[{i}]"
        check_fields(result, SERVICE_STAGE_FIELDS, where_r)
        require(result["best_seconds"] > 0.0,
                f"{where_r}: best_seconds must be positive")
        require(result["mean_seconds"] >= result["best_seconds"],
                f"{where_r}: mean_seconds < best_seconds")
        require(result["sessions_per_sec"] > 0.0,
                f"{where_r}: sessions_per_sec must be positive")
    output = record.get("output")
    check_fields(output, SERVICE_OUTPUT_FIELDS, f"{where}.output")
    require(output["shared_speedup"] > 0.0,
            f"{where}.output: shared_speedup must be positive")
    require(0.0 <= output["plane_hit_rate"] <= 1.0,
            f"{where}.output: plane_hit_rate must be in [0, 1]")
    require(output["admission_p99_millis"] >= 0.0,
            f"{where}.output: admission_p99_millis must be >= 0")
    require(re.fullmatch(r"[0-9a-f]{8}", output["topk_checksum"]),
            f"{where}.output: topk_checksum is not 8 lowercase hex digits")
    # Sharing is only a cost optimization: shared lists must be
    # bit-identical to isolated sessions, always.
    require(output["identical_to_isolated"],
            f"{where}.output: shared sessions differ from isolated runs")


def validate_delta_record(record, where):
    """micro_delta: patch-vs-rebuild timings + bit-identity checksums."""
    check_workload(record.get("workload"), DELTA_WORKLOAD_FIELDS,
                   f"{where}.workload")
    workload = record["workload"]
    require(workload["generations"] >= 1 and workload["delta_rows"] >= 1,
            f"{where}.workload: generations and delta_rows must be >= 1")
    results = record.get("results")
    require(isinstance(results, list), f"{where}: 'results' must be an array")
    require([r.get("name") for r in results if isinstance(r, dict)]
            == DELTA_STAGE_NAMES,
            f"{where}: results must be the stages {DELTA_STAGE_NAMES}")
    for i, result in enumerate(results):
        where_r = f"{where}.results[{i}]"
        check_fields(result, DELTA_STAGE_FIELDS, where_r)
        require(result["best_seconds"] > 0.0,
                f"{where_r}: best_seconds must be positive")
        require(result["mean_seconds"] >= result["best_seconds"],
                f"{where_r}: mean_seconds < best_seconds")
        require(result["generations_per_sec"] > 0.0,
                f"{where_r}: generations_per_sec must be positive")
    output = record.get("output")
    check_fields(output, DELTA_OUTPUT_FIELDS, f"{where}.output")
    require(output["patch_speedup"] > 0.0,
            f"{where}.output: patch_speedup must be positive")
    require(0.0 <= output["dead_token_fraction"] <= 1.0,
            f"{where}.output: dead_token_fraction must be in [0, 1]")
    for key in ("plane_crc", "corpus_crc", "topk_checksum",
                "rebuilt_topk_checksum"):
        require(re.fullmatch(r"[0-9a-f]{8}", output[key]),
                f"{where}.output: {key} is not 8 lowercase hex digits")
    # Patching is only a cost optimization: the patched lists must be
    # bit-identical to a from-scratch rebuild, always.
    require(output["topk_checksum"] == output["rebuilt_topk_checksum"],
            f"{where}.output: patched topk_checksum differs from rebuild")
    require(output["identical_to_rebuild"],
            f"{where}.output: patched planes differ from a rebuild")


def validate_planner_record(record, where):
    """micro_planner: race-vs-planner end-to-end paths + equality proof."""
    check_workload(record.get("workload"), PLANNER_WORKLOAD_FIELDS,
                   f"{where}.workload")
    results = record.get("results")
    require(isinstance(results, list), f"{where}: 'results' must be an array")
    require([r.get("name") for r in results if isinstance(r, dict)]
            == PLANNER_PATH_NAMES,
            f"{where}: results must be the paths {PLANNER_PATH_NAMES}")
    checksums = {}
    for i, result in enumerate(results):
        where_r = f"{where}.results[{i}]"
        check_fields(result, PLANNER_PATH_FIELDS, where_r)
        require(result["q"] >= 1, f"{where_r}: q must be >= 1")
        require(result["shards"] >= 1, f"{where_r}: shards must be >= 1")
        require(result["select_seconds"] >= 0.0,
                f"{where_r}: select_seconds must be >= 0")
        require(result["best_seconds"] > 0.0,
                f"{where_r}: best_seconds must be positive")
        require(result["mean_seconds"] >= result["best_seconds"],
                f"{where_r}: mean_seconds < best_seconds")
        require(result["pairs"] <= record["workload"]["k"],
                f"{where_r}: pairs exceeds workload k")
        require(re.fullmatch(r"[0-9a-f]{8}", result["topk_checksum"]),
                f"{where_r}: topk_checksum is not 8 lowercase hex digits")
        checksums[result["name"]] = result["topk_checksum"]
    comparison = record.get("comparison")
    check_fields(comparison, PLANNER_COMPARISON_FIELDS, f"{where}.comparison")
    require(comparison["speedup"] > 0.0,
            f"{where}.comparison: speedup must be positive")
    # The planner is only a cost optimization: its path must produce output
    # bit-identical to the race path (q-invariant workload) and to a direct
    # run of its own plan, always.
    require(comparison["identical_to_race"],
            f"{where}.comparison: planner output differs from race output")
    require(comparison["identical_to_direct"],
            f"{where}.comparison: planner output differs from a direct run "
            "of its own plan")
    require(checksums["planner_path"] == checksums["race_path"],
            f"{where}: race_path and planner_path checksums disagree "
            f"({checksums})")


def validate_plancache_record(record, where):
    """micro_plancache: cached-vs-fresh session arms + bit-identity proof."""
    check_workload(record.get("workload"), PLANCACHE_WORKLOAD_FIELDS,
                   f"{where}.workload")
    workload = record["workload"]
    require(workload["sessions"] >= 1,
            f"{where}.workload: sessions must be >= 1")
    results = record.get("results")
    require(isinstance(results, list), f"{where}: 'results' must be an array")
    require([r.get("name") for r in results if isinstance(r, dict)]
            == PLANCACHE_ARM_NAMES,
            f"{where}: results must be the arms {PLANCACHE_ARM_NAMES}")
    checksums = {}
    for i, result in enumerate(results):
        where_r = f"{where}.results[{i}]"
        check_fields(result, PLANCACHE_ARM_FIELDS, where_r)
        require(result["cold_seconds"] > 0.0,
                f"{where_r}: cold_seconds must be positive")
        require(result["best_seconds"] > 0.0,
                f"{where_r}: best_seconds must be positive")
        require(result["mean_seconds"] >= result["best_seconds"],
                f"{where_r}: mean_seconds < best_seconds")
        require(result["sessions_per_sec"] > 0.0,
                f"{where_r}: sessions_per_sec must be positive")
        require(re.fullmatch(r"[0-9a-f]{8}", result["topk_checksum"]),
                f"{where_r}: topk_checksum is not 8 lowercase hex digits")
        checksums[result["name"]] = result["topk_checksum"]
    cached, fresh = results
    require(cached["plan_cache_hits"] >= 1,
            f"{where}: the cached arm never hit its plan cache")
    require(fresh["plans_computed"] > cached["plans_computed"],
            f"{where}: the fresh arm must re-plan more than the cached arm")
    comparison = record.get("comparison")
    check_fields(comparison, PLANCACHE_COMPARISON_FIELDS,
                 f"{where}.comparison")
    require(comparison["speedup"] > 0.0,
            f"{where}.comparison: speedup must be positive")
    # The plan cache is only a cost optimization: a cached-plan session must
    # produce output bit-identical to a fresh-planned one, always.
    require(checksums["warm_cached"] == checksums["warm_fresh_planned"],
            f"{where}: cached and fresh arms disagree on topk_checksum "
            f"({checksums})")
    require(comparison["identical_to_fresh"],
            f"{where}.comparison: cached-plan sessions differ from "
            "fresh-planned sessions")


def validate_record(record, where):
    require(isinstance(record, dict), f"{where}: expected an object")
    require(record.get("schema_version") == 1,
            f"{where}: schema_version must be 1")
    require(isinstance(record.get("benchmark"), str) and record["benchmark"],
            f"{where}: missing/empty 'benchmark'")
    require(isinstance(record.get("engine"), str) and record["engine"],
            f"{where}: missing/empty 'engine'")
    if record["benchmark"] == "micro_joint_executor":
        validate_joint_record(record, where)
        return
    if record["benchmark"] == "micro_text_plane":
        validate_text_record(record, where)
        return
    if record["benchmark"] == "micro_kernels":
        validate_kernels_record(record, where)
        return
    if record["benchmark"] == "micro_service":
        validate_service_record(record, where)
        return
    if record["benchmark"] == "micro_delta":
        validate_delta_record(record, where)
        return
    if record["benchmark"] == "micro_planner":
        validate_planner_record(record, where)
        return
    if record["benchmark"] == "micro_plancache":
        validate_plancache_record(record, where)
        return
    check_workload(record.get("workload"), WORKLOAD_FIELDS,
                   f"{where}.workload")

    results = record.get("results")
    require(isinstance(results, list) and results,
            f"{where}: 'results' must be a non-empty array")
    for i, result in enumerate(results):
        where_r = f"{where}.results[{i}]"
        check_fields(result, RESULT_FIELDS, where_r)
        require(result["q"] >= 1, f"{where_r}: q must be >= 1")
        require(result["shards"] >= 1, f"{where_r}: shards must be >= 1")
        require(result["best_seconds"] > 0.0,
                f"{where_r}: best_seconds must be positive")
        require(result["mean_seconds"] >= result["best_seconds"],
                f"{where_r}: mean_seconds < best_seconds")
        require(result["pairs"] <= record["workload"]["k"],
                f"{where_r}: pairs exceeds workload k")
        require(re.fullmatch(r"[0-9a-f]{8}", result["topk_checksum"]),
                f"{where_r}: topk_checksum is not 8 lowercase hex digits")


def reject_non_finite(literal):
    # Python's json accepts NaN/Infinity by default; JSON does not.
    raise ValidationError(f"non-JSON number literal {literal}")


def validate_file(path):
    with open(path) as f:
        data = json.load(f, parse_constant=reject_non_finite)
    records = data if isinstance(data, list) else [data]
    require(records, f"{path}: empty record array")
    for i, record in enumerate(records):
        where = f"{path}[{i}]" if isinstance(data, list) else path
        validate_record(record, where)
    # A [before, after] text-plane archive must prove identical outputs:
    # the engines are ablations of one another, not different workloads.
    text_outputs = [r["output"] for r in records
                    if isinstance(r, dict)
                    and r.get("benchmark") == "micro_text_plane"]
    for key in TEXT_CHECKSUM_KEYS:
        values = {output[key] for output in text_outputs}
        require(len(values) <= 1,
                f"{path}: micro_text_plane records disagree on {key} "
                f"({sorted(values)})")
    # Cross-level bit-identity: every micro_kernels record on the same
    # workload must produce the same checksums no matter which SIMD level
    # ran — the dispatch contract of simd/kernels.h. Group by workload
    # (minus the level fields) so differently-sized runs don't collide.
    kernels_by_workload = {}
    for r in records:
        if not (isinstance(r, dict) and r.get("benchmark") == "micro_kernels"):
            continue
        key = tuple(sorted((k, v) for k, v in r["workload"].items()
                           if k not in ("simd_level", "simd_level_requested",
                                        "cpu_flags", "cpu_cores")))
        kernels_by_workload.setdefault(key, []).append(r)
    for group in kernels_by_workload.values():
        for key in KERNELS_CHECKSUM_KEYS:
            values = {r["output"][key] for r in group}
            levels = sorted(r["workload"]["simd_level"] for r in group)
            require(len(values) <= 1,
                    f"{path}: micro_kernels levels {levels} disagree on "
                    f"{key} ({sorted(values)})")
    return len(records)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            n = validate_file(path)
        except (ValidationError, json.JSONDecodeError, OSError) as error:
            print(f"FAIL {path}: {error}", file=sys.stderr)
            return 1
        print(f"OK {path}: {n} record(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
