// mcserve — drives the session service from the command line.
//
// Stands up a SessionManager on a generated workload (or two CSV tables),
// pushes a burst of debugging sessions through it, and prints one line per
// session plus the service counters. The operational smoke test for the
// service layer: admission control, plane sharing, deadlines, checkpointing
// and chaos (seeded fault injection) are all reachable from flags.
//
//   mcserve [options]
//   mcserve --tables A.csv,B.csv --candidates C.csv [options]
//
// Options:
//   --dataset NAME     generated workload: amazon_google (default),
//                      fodors_zagats, walmart_amazon, acm_dblp
//   --scale F          dataset scale factor (default 0.05)
//   --sessions N       sessions to submit (default 8)
//   --concurrency N    max concurrent sessions (default 4)
//   --queue N          admission queue depth beyond concurrency (default 16)
//   --k N              top-k per config (default 100)
//   --threads N        per-session joint workers (default 2)
//   --deadline-ms N    per-session deadline (default: none)
//   --memory-limit B   shared build budget in bytes (default: unlimited)
//   --checkpoint DIR   save finished sessions; restore from DIR on start
//   --chaos-seed S     arm probabilistic faults at the service fault points
//   --retry-after      honor kResourceExhausted retry-after hints and
//                      resubmit instead of dropping
//   --deltas N         the apply-delta command: after the session burst,
//                      push N synthetic row deltas (mutate + append + delete)
//                      through ApplyTableDelta and report the patch counters
//   --delta-seed S     seed for the synthetic delta generator (default 7)
//   --q N              joint q parameter; 0 runs the cost-based planner
//                      (default 1: fixed q, planner off)
//   --explain-plans    print each session's cost-based plan (with its
//                      execution mode, whether it was served from the
//                      cross-session plan cache, and the modeled cost per
//                      q — ">=" marks a q whose probe was abandoned, a
//                      lower bound), the per-config plan decisions (q,
//                      shards, hybrid prefilter, exec mode, parent
//                      seeding) and the service plan-cache hit/miss
//                      counters; implies --q 0 unless --q was given
//                      explicitly
//   --no-plan-cache    disable the cross-session plan cache (every
//                      planner-eligible session re-runs the sampling
//                      probes; the ablation baseline for the cache)
//
// Exit status: 0 when every admitted session ends complete or truncated,
// 1 when any session fails, 2 on usage errors.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "blocking/candidate_set.h"
#include "core/match_catcher.h"
#include "datagen/generator.h"
#include "service/session_manager.h"
#include "table/csv.h"
#include "util/fault_injection.h"

namespace {

struct Args {
  std::string dataset = "amazon_google";
  std::string table_a, table_b, candidates;
  double scale = 0.05;
  size_t sessions = 8;
  size_t concurrency = 4;
  size_t queue = 16;
  size_t k = 100;
  size_t threads = 2;
  int64_t deadline_ms = -1;
  size_t memory_limit = 0;
  std::string checkpoint_dir;
  uint64_t chaos_seed = 0;
  bool chaos = false;
  bool honor_retry_after = false;
  size_t deltas = 0;
  uint64_t delta_seed = 7;
  size_t joint_q = 1;
  bool q_set = false;
  bool explain_plans = false;
  bool plan_cache = true;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dataset NAME] [--scale F] [--sessions N] "
               "[--concurrency N] [--queue N] [--k N] [--threads N] "
               "[--deadline-ms N] [--memory-limit B] [--checkpoint DIR] "
               "[--chaos-seed S] [--retry-after] [--deltas N] "
               "[--delta-seed S] [--q N] [--explain-plans] "
               "[--no-plan-cache]\n"
               "       %s --tables A.csv,B.csv --candidates C.csv [...]\n",
               argv0, argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--dataset" && (value = next())) {
      args->dataset = value;
    } else if (arg == "--tables" && (value = next())) {
      const std::string pair = value;
      const size_t comma = pair.find(',');
      if (comma == std::string::npos) return false;
      args->table_a = pair.substr(0, comma);
      args->table_b = pair.substr(comma + 1);
    } else if (arg == "--candidates" && (value = next())) {
      args->candidates = value;
    } else if (arg == "--scale" && (value = next())) {
      args->scale = std::atof(value);
    } else if (arg == "--sessions" && (value = next())) {
      args->sessions = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--concurrency" && (value = next())) {
      args->concurrency = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--queue" && (value = next())) {
      args->queue = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--k" && (value = next())) {
      args->k = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--threads" && (value = next())) {
      args->threads = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--deadline-ms" && (value = next())) {
      args->deadline_ms = std::atoll(value);
    } else if (arg == "--memory-limit" && (value = next())) {
      args->memory_limit = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--checkpoint" && (value = next())) {
      args->checkpoint_dir = value;
    } else if (arg == "--chaos-seed" && (value = next())) {
      args->chaos = true;
      args->chaos_seed = static_cast<uint64_t>(std::atoll(value));
    } else if (arg == "--retry-after") {
      args->honor_retry_after = true;
    } else if (arg == "--deltas" && (value = next())) {
      args->deltas = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--delta-seed" && (value = next())) {
      args->delta_seed = static_cast<uint64_t>(std::atoll(value));
    } else if (arg == "--q" && (value = next())) {
      args->joint_q = static_cast<size_t>(std::atoll(value));
      args->q_set = true;
    } else if (arg == "--explain-plans") {
      args->explain_plans = true;
    } else if (arg == "--no-plan-cache") {
      args->plan_cache = false;
    } else {
      return false;
    }
  }
  // Plan decisions only exist when the planner runs.
  if (args->explain_plans && !args->q_set) args->joint_q = 0;
  return args->concurrency >= 1 && args->sessions >= 1;
}

// One-line rendering of a session's cost-based plan plus one line per
// config decision, for --explain-plans.
void PrintPlan(uint64_t id, const mc::SessionOutcome& outcome) {
  if (!outcome.planner_used) {
    std::printf("  plan: none (planner off or session did not run a join)\n");
    return;
  }
  const mc::JoinPlan& plan = outcome.plan;
  std::printf(
      "  plan[%llu]: q=%zu shards=%zu mode=%s hybrid=%d tau=%.6f "
      "sample=%zu rows (rate 1/%zu) kth=%.6f half_kth=%.6f stats_gen=%llu "
      "seed=%llu%s%s\n",
      static_cast<unsigned long long>(id), plan.q, plan.shards,
      mc::JoinExecModeName(plan.mode), plan.hybrid ? 1 : 0,
      plan.prefilter_threshold, plan.sample_rows, plan.sample_rate,
      plan.sampled_kth, plan.half_sample_kth,
      static_cast<unsigned long long>(plan.stats_generation),
      static_cast<unsigned long long>(plan.seed),
      outcome.plan_cache_hit ? " (plan cache hit)" : "",
      plan.truncated ? " (truncated: conservative fallback)" : "");
  // An abandoned q's cost is where its probe stopped: a lower bound.
  for (size_t q = 0; q < plan.cost_per_q.size(); ++q) {
    const bool abandoned = (plan.abandoned_q_mask >> q) & 1u;
    std::printf("    cost[q=%zu]%s%.0f%s\n", q + 1, abandoned ? ">=" : "=",
                plan.cost_per_q[q], q + 1 == plan.q ? "  <- chosen" : "");
  }
  for (const mc::ConfigPlanDecision& decision : outcome.plan_decisions) {
    std::printf(
        "    config=0x%llx q=%zu shards=%zu mode=%s hybrid=%d tau=%.6f "
        "seeded=%d\n",
        static_cast<unsigned long long>(decision.config), decision.q,
        decision.shards, mc::JoinExecModeName(decision.mode),
        decision.hybrid ? 1 : 0, decision.prefilter_threshold,
        decision.seeded_from_parent ? 1 : 0);
  }
}

// Loads an "a,b" row-index pair CSV into a CandidateSet (same format as
// mcdbg's C.csv input).
mc::Result<mc::CandidateSet> LoadPairs(const std::string& path,
                                       size_t rows_a, size_t rows_b) {
  mc::Result<mc::Table> table = mc::ReadCsvFile(path);
  if (!table.ok()) return table.status();
  if (table->num_columns() < 2) {
    return mc::Status::InvalidArgument(path +
                                       ": expected two columns (a,b)");
  }
  mc::CandidateSet pairs;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    std::optional<double> a = table->NumericValue(r, 0);
    std::optional<double> b = table->NumericValue(r, 1);
    if (!a.has_value() || !b.has_value() || *a < 0 || *b < 0 ||
        *a >= static_cast<double>(rows_a) ||
        *b >= static_cast<double>(rows_b)) {
      return mc::Status::InvalidArgument(
          path + ": bad pair at data row " + std::to_string(r));
    }
    pairs.Add(static_cast<mc::RowId>(*a), static_cast<mc::RowId>(*b));
  }
  return pairs;
}

// One synthetic delta against the registered pair: mutate a couple of rows
// (a "rev<g>" marker keeps each generation's content distinct), append one
// row cloned from an existing one, and tombstone a row every third delta.
// Deterministic for a given (seed, generation, table shape).
mc::TableDelta SynthesizeDelta(const mc::Table& table_a,
                               const mc::Table& table_b, size_t generation,
                               std::mt19937_64& rng) {
  mc::TableDelta delta;
  delta.side = static_cast<uint8_t>(generation % 2);
  const mc::Table& table = delta.side == 0 ? table_a : table_b;
  if (table.num_rows() == 0) return delta;
  auto row_values = [&](size_t row) {
    std::vector<std::string> values;
    values.reserve(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      values.emplace_back(table.Value(row, c));
    }
    return values;
  };
  const std::string marker = " rev" + std::to_string(generation);
  for (size_t m = 0; m < 2; ++m) {
    mc::TableDelta::RowEdit edit;
    edit.row = static_cast<uint32_t>(rng() % table.num_rows());
    edit.values = row_values(edit.row);
    edit.values[0] += marker;
    // ApplyTableDelta rejects duplicate row edits; skip collisions.
    bool duplicate = false;
    for (const auto& prior : delta.mutated) {
      duplicate = duplicate || prior.row == edit.row;
    }
    if (!duplicate) delta.mutated.push_back(std::move(edit));
  }
  std::vector<std::string> appended = row_values(rng() % table.num_rows());
  appended[0] += marker + " appended";
  delta.appended.push_back(std::move(appended));
  if (generation % 3 == 2) {
    const uint32_t victim = static_cast<uint32_t>(rng() % table.num_rows());
    bool duplicate = false;
    for (const auto& prior : delta.mutated) {
      duplicate = duplicate || prior.row == victim;
    }
    if (!duplicate) delta.deleted.push_back(victim);
  }
  return delta;
}

mc::datagen::GeneratedDataset Generate(const Args& args) {
  using namespace mc::datagen;
  if (args.dataset == "fodors_zagats") {
    return GenerateFodorsZagats(ScaleDims(kDimsFodorsZagats, args.scale));
  }
  if (args.dataset == "walmart_amazon") {
    return GenerateWalmartAmazon(ScaleDims(kDimsWalmartAmazon, args.scale));
  }
  if (args.dataset == "acm_dblp") {
    return GenerateAcmDblp(ScaleDims(kDimsAcmDblp, args.scale));
  }
  return GenerateAmazonGoogle(ScaleDims(kDimsAmazonGoogle, args.scale));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  mc::Table table_a, table_b;
  mc::CandidateSet candidates;
  std::string pair_key;
  if (!args.table_a.empty()) {
    if (args.candidates.empty()) return Usage(argv[0]);
    mc::Result<mc::Table> a = mc::ReadCsvFile(args.table_a);
    mc::Result<mc::Table> b = mc::ReadCsvFile(args.table_b);
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "cannot load tables: %s\n",
                   (!a.ok() ? a.status() : b.status()).ToString().c_str());
      return 1;
    }
    mc::Result<mc::CandidateSet> c =
        LoadPairs(args.candidates, a->num_rows(), b->num_rows());
    if (!c.ok()) {
      std::fprintf(stderr, "cannot load candidates: %s\n",
                   c.status().ToString().c_str());
      return 1;
    }
    table_a = *std::move(a);
    table_b = *std::move(b);
    candidates = *std::move(c);
    pair_key = args.table_a + "," + args.table_b;
  } else {
    mc::datagen::GeneratedDataset dataset = Generate(args);
    table_a = std::move(dataset.table_a);
    table_b = std::move(dataset.table_b);
    candidates = std::move(dataset.gold);
    pair_key = dataset.name;
  }

  mc::ServiceLimits limits;
  limits.max_concurrent_sessions = args.concurrency;
  limits.max_queued_sessions = args.queue;
  limits.memory_limit_bytes = args.memory_limit;
  limits.default_deadline_millis = args.deadline_ms;
  limits.checkpoint_dir = args.checkpoint_dir;
  limits.enable_plan_cache = args.plan_cache;
  mc::SessionManager manager(limits);

  if (!args.checkpoint_dir.empty()) {
    mc::Result<size_t> restored = manager.RestoreFromCheckpoints();
    if (restored.ok() && *restored > 0) {
      std::printf("restored %zu finished session(s) from %s\n", *restored,
                  args.checkpoint_dir.c_str());
    }
  }

  if (args.chaos) {
    // Real faults at the real sites; kept armed for the whole run so
    // operators can watch the service degrade and recover live.
    auto& registry = mc::FaultRegistry::Instance();
    registry.ArmWithProbability("service/build", mc::FaultKind::kError, 0.2,
                                args.chaos_seed ^ 0x1);
    registry.ArmWithProbability("corpus/build_block", mc::FaultKind::kError,
                                0.02, args.chaos_seed ^ 0x2);
    registry.ArmWithProbability("session_io/write", mc::FaultKind::kError,
                                0.2, args.chaos_seed ^ 0x3);
    std::printf("chaos armed (seed %llu)\n",
                static_cast<unsigned long long>(args.chaos_seed));
  }

  mc::Status registered =
      manager.RegisterTablePair(pair_key, table_a, table_b, candidates);
  if (!registered.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 registered.ToString().c_str());
    return 1;
  }

  mc::SessionRequest request;
  request.pair_key = pair_key;
  request.options.joint.k = args.k;
  request.options.joint.num_threads = args.threads;
  request.options.joint.q = args.joint_q;

  std::vector<uint64_t> ids;
  size_t rejected = 0;
  for (size_t s = 0; s < args.sessions; ++s) {
    mc::Result<uint64_t> id = manager.Submit(request);
    if (!id.ok() && args.honor_retry_after &&
        id.status().code() == mc::StatusCode::kResourceExhausted) {
      const int64_t wait_ms = id.status().retry_after_millis();
      std::printf("queue full; retrying in %lld ms\n",
                  static_cast<long long>(wait_ms));
      std::this_thread::sleep_for(
          std::chrono::milliseconds(wait_ms > 0 ? wait_ms : 1));
      id = manager.Submit(request);
    }
    if (!id.ok()) {
      ++rejected;
      std::printf("session rejected: %s\n", id.status().ToString().c_str());
      continue;
    }
    ids.push_back(*id);
  }

  int exit_code = 0;
  for (uint64_t id : ids) {
    mc::Result<mc::SessionOutcome> outcome = manager.Wait(id);
    if (!outcome.ok()) {
      std::fprintf(stderr, "wait(%llu) failed: %s\n",
                   static_cast<unsigned long long>(id),
                   outcome.status().ToString().c_str());
      exit_code = 1;
      continue;
    }
    size_t pairs = 0;
    for (const auto& list : outcome->lists) pairs += list.size();
    std::printf("session %-4llu %-10s %6.1f ms (wait %5.1f ms) "
                "pairs=%-6zu shared_corpus=%d%s%s\n",
                static_cast<unsigned long long>(id),
                mc::SessionStateName(outcome->state),
                outcome->total_seconds * 1000.0,
                outcome->admission_wait_seconds * 1000.0, pairs,
                outcome->used_shared_corpus ? 1 : 0,
                outcome->status.ok()
                    ? ""
                    : (" | " + outcome->status.ToString()).c_str(),
                outcome->checkpoint_status.ok() ? ""
                                                : " | checkpoint failed");
    if (args.explain_plans) PrintPlan(id, *outcome);
    if (outcome->state == mc::SessionState::kFailed) exit_code = 1;
  }

  if (args.deltas > 0) {
    // The apply-delta command: push synthetic row deltas through the
    // incremental path. Each commit bumps the pair's generation and patches
    // the shared plane / corpus / cached lists in place of a rebuild; a
    // follow-up session then runs over the patched planes.
    std::mt19937_64 delta_rng(args.delta_seed);
    for (size_t g = 1; g <= args.deltas; ++g) {
      const mc::TableDelta delta =
          SynthesizeDelta(table_a, table_b, g, delta_rng);
      const mc::Status applied = manager.ApplyTableDelta(pair_key, delta);
      const mc::Result<uint64_t> generation = manager.PairGeneration(pair_key);
      std::printf("delta %-3zu side=%d rows(~%zu/+%zu/-%zu) -> %s "
                  "(generation %llu)\n",
                  g, delta.side, delta.mutated.size(), delta.appended.size(),
                  delta.deleted.size(),
                  applied.ok() ? "applied" : applied.ToString().c_str(),
                  static_cast<unsigned long long>(
                      generation.ok() ? *generation : 0));
      if (!applied.ok()) exit_code = 1;
    }
    mc::Result<uint64_t> id = manager.Submit(request);
    if (id.ok()) {
      mc::Result<mc::SessionOutcome> outcome = manager.Wait(*id);
      if (outcome.ok()) {
        std::printf("post-delta session %llu: %s (plane generation %llu)\n",
                    static_cast<unsigned long long>(*id),
                    mc::SessionStateName(outcome->state),
                    static_cast<unsigned long long>(
                        outcome->plane_generation));
        // A post-delta plan shows the planner re-sampling: its stats_gen
        // follows the patched corpus generation.
        if (args.explain_plans) PrintPlan(*id, *outcome);
        if (outcome->state == mc::SessionState::kFailed) exit_code = 1;
      }
    }
  }

  const mc::ServiceStats stats = manager.stats();
  std::printf(
      "\nservice: submitted=%zu admitted=%zu rejected=%zu completed=%zu "
      "truncated=%zu failed=%zu cancelled=%zu\n"
      "sharing: plane hits/misses=%zu/%zu corpus hits=%zu builds=%zu "
      "evicted=%zu\n"
      "deltas: applied=%zu failed=%zu planes_patched=%zu "
      "corpora_patched=%zu lists repaired/rejoined=%zu/%zu\n"
      "memory: used=%zu peak=%zu rejected_charges=%zu "
      "release_violations=%zu | restored=%zu "
      "restore_failures=%zu watchdog_cancelled=%zu\n"
      "planner: plans=%zu hybrid=%zu restarts=%zu | plan cache "
      "hits/misses=%zu/%zu evicted=%zu\n",
      stats.submitted, stats.admitted, stats.rejected + rejected,
      stats.completed, stats.truncated, stats.failed, stats.cancelled,
      stats.plane_cache_hits, stats.plane_cache_misses,
      stats.corpus_cache_hits, stats.corpus_builds, stats.planes_evicted,
      stats.deltas_applied, stats.delta_failures, stats.planes_patched,
      stats.corpora_patched, stats.lists_repaired, stats.lists_rejoined,
      stats.memory_used_bytes, stats.memory_peak_bytes,
      stats.memory_rejected_charges, stats.memory_release_violations,
      stats.sessions_restored, stats.restore_failures,
      stats.watchdog_cancelled, stats.plans_computed, stats.hybrid_plans,
      stats.hybrid_restarts, stats.plan_cache_hits, stats.plan_cache_misses,
      stats.plans_evicted);
  manager.Shutdown();
  if (args.chaos) mc::FaultRegistry::Instance().Reset();
  return exit_code;
}
