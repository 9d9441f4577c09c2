// Session-level benchmark: runs one workload per process and prints
// one JSON record as the last line of standard output.
//
//   mc_bench --workload=NAME --seed=S --seconds=T [--trace=PATH]
//            [--scale=X] [--k=N] [--datasets=N]
//
// A session is the paper's unit of cost (§6.4): tables A and B plus the
// output C of a blocker, then config generation, the joint top-k SSJs,
// verifier iterations to the natural stop against a user who labels from
// the gold matches, and the problem summary of the confirmed matches.
//
// A run generates the workload's datasets from the seed and debugs every
// blocker of every dataset in turn, timing whole sessions back to back. A
// --trace run follows each session with a staged twin that calls each
// layer's public function itself, in DebugSession::Create's order, wraps
// every call in a span, writes the spans to PATH as Chrome trace-event JSON
// and adds per-layer metrics; each staged session's top-k lists must equal
// those of the untraced Create on the same inputs, which keeps the staged
// path from drifting away from the real one. --scale, --k and --datasets
// override the workload's sizes, to compare a scaled workload with the
// full-size dataset. sessionbench/README.md lists the workloads and
// metrics; BENCHMARK.json says which metrics a run reports for each mode.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/match_catcher.h"
#include "core/session_io.h"
#include "datagen/generator.h"
#include "explain/summary.h"
#include "paper_blockers.h"
#include "service/session_manager.h"
#include "ssj/join_planner.h"
#include "table/profile.h"
#include "table/tokenized_table.h"
#include "tracer.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace mc {
namespace sessionbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups per run at the least; setup_s is their median.
constexpr size_t kMinSetupReps = 3;

// service_mix traffic: closed-loop clients that each wait for their session
// before starting the next, one concurrent session slot per client, and one
// open-loop writer on a fixed schedule.
constexpr size_t kServiceClients = 3;
constexpr std::chrono::milliseconds kDeltaPeriod{250};
constexpr size_t kDeltaRows = 4;
// Generations of each pair the benchmark keeps mirrored for its clients: a
// client needs the tables of the generation its session ran over.
constexpr uint64_t kMirrorGenerations = 16;

// A traced session may leave at most this share of its span to no layer.
constexpr double kMaxUnattributed = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  // Empty: untraced run.
  // Overrides of the workload's sizes; 0 keeps the workload's own.
  double scale = 0.0;
  size_t k = 0;
  size_t datasets = 0;
};

// ---------------------------------------------------------------------------
// Statistics.

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : std::nan("");
}

double Millis(Clock::duration duration) {
  return std::chrono::duration<double, std::milli>(duration).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---------------------------------------------------------------------------
// The record: metrics, the operation counts and every correctness failure.

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// NaN and infinity are not JSON; a missing value is written as null, which
// the runner reports as a failed check.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

class Record {
 public:
  void Metric(const std::string& name, double value, const char* unit,
              size_t samples) {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.push_back({name, value, unit, samples});
  }
  void Error(const std::string& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    errors_.push_back(message);
  }
  void Attempt() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
  }
  // A failed operation: a session that errored or was truncated, a rejected
  // submit or a failed delta. Every one is also a correctness error.
  void Fail(const std::string& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
    errors_.push_back(message);
  }

  void Print(const Args& args) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string line = "{\"workload\":" + JsonString(args.workload) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"trace\":" +
                       (args.trace_path.empty() ? "false" : "true") +
                       ",\"correct\":" + (errors_.empty() ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted_) +
                       ",\"failed\":" + std::to_string(failed_) +
                       ",\"errors\":[";
    for (size_t i = 0; i < errors_.size(); ++i) {
      line += (i == 0 ? "" : ",") + JsonString(errors_[i]);
    }
    line += "],\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Entry& m = metrics_[i];
      line += (i == 0 ? "" : ",") + JsonString(m.name) +
              ":{\"value\":" + JsonNumber(m.value) +
              ",\"unit\":" + JsonString(m.unit) +
              ",\"samples\":" + std::to_string(m.samples) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  mutable std::mutex mutex_;
  std::vector<Entry> metrics_;
  std::vector<std::string> errors_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs.

struct BlockerCase {
  std::string label;
  CandidateSet output;  // C.
  CandidateSet killed;  // M - C: the matches the blocker killed off.
};

// One generated dataset and the outputs of the workload's blockers on it.
struct Setup {
  datagen::GeneratedDataset dataset;
  std::vector<BlockerCase> cases;
  double blocking_seconds = 0.0;
};

// Generates the seeded tables and runs the workload's blockers.
Setup BuildSetup(const WorkloadSpec& spec, uint64_t dataset_seed,
                 Tracer* tracer, Record& record) {
  Setup setup;
  ScopedSpan root(tracer, "setup", 0);
  {
    ScopedSpan span(tracer, "datagen.generate", 0, root.id());
    Result<datagen::GeneratedDataset> dataset =
        datagen::GenerateByName(spec.dataset, spec.scale, dataset_seed);
    if (!dataset.ok()) {
      record.Error("generate " + spec.dataset + ": " +
                   dataset.status().ToString());
      return setup;
    }
    setup.dataset = std::move(dataset).value();
  }
  const std::vector<bench::PaperBlocker> blockers =
      bench::PaperBlockersFor(spec.dataset, setup.dataset.table_a.schema());
  for (const std::string& label : spec.blockers) {
    auto it = std::find_if(blockers.begin(), blockers.end(),
                           [&](const bench::PaperBlocker& blocker) {
                             return blocker.label == label;
                           });
    if (it == blockers.end()) {
      record.Error("no blocker " + label + " for " + spec.dataset);
      continue;
    }
    BlockerCase blocker_case;
    blocker_case.label = label;
    Stopwatch watch;
    {
      ScopedSpan span(tracer, "blocking.run", 0, root.id());
      blocker_case.output =
          it->blocker->Run(setup.dataset.table_a, setup.dataset.table_b);
    }
    setup.blocking_seconds += watch.ElapsedSeconds();
    for (PairId pair : setup.dataset.gold) {
      if (!blocker_case.output.Contains(pair)) blocker_case.killed.Add(pair);
    }
    setup.cases.push_back(std::move(blocker_case));
  }
  return setup;
}

MatchCatcherOptions SessionOptions(const WorkloadSpec& spec) {
  MatchCatcherOptions options;
  options.joint.k = spec.k;
  options.joint.q = 0;  // The cost-based planner picks q.
  options.joint.num_threads = spec.threads;
  options.verifier.num_threads = spec.threads;
  return options;
}

// ---------------------------------------------------------------------------
// One session.

struct Verification {
  std::vector<PairId> found;  // Confirmed matches, sorted.
  size_t shown = 0;
  double first_batch_seconds = 0.0;  // On the session's watch.
  std::vector<double> iteration_ms;  // SubmitLabels + the next NextBatch.
};

// Drives the verifier to its natural stop with the gold-labelling user.
Verification Verify(MatchVerifier& verifier, const CandidateSet& gold,
                    const Stopwatch& session_watch, Tracer* tracer,
                    uint64_t session, int64_t parent) {
  Verification out;
  GoldOracle oracle(&gold);
  std::vector<PairId> batch;
  {
    ScopedSpan span(tracer, "verifier.next_batch", session, parent);
    batch = verifier.NextBatch();
  }
  out.first_batch_seconds = session_watch.ElapsedSeconds();
  while (!batch.empty()) {
    std::vector<std::pair<PairId, bool>> labels;
    labels.reserve(batch.size());
    for (PairId pair : batch) labels.emplace_back(pair, oracle.IsMatch(pair));
    out.shown += batch.size();
    Stopwatch iteration;
    {
      ScopedSpan span(tracer, "verifier.submit", session, parent);
      verifier.SubmitLabels(labels);
    }
    {
      ScopedSpan span(tracer, "verifier.next_batch", session, parent);
      batch = verifier.NextBatch();
    }
    out.iteration_ms.push_back(iteration.ElapsedMillis());
  }
  out.found = verifier.confirmed_matches().SortedPairs();
  return out;
}

struct SessionSample {
  // The (dataset, blocker) cell of a session workload, or the pair of the
  // service.
  size_t cell = 0;
  double seconds = 0.0;
  double first_batch_seconds = 0.0;
  std::vector<double> iteration_ms;
  size_t killed = 0;       // M_D.
  size_t killed_in_e = 0;  // M_E.
  size_t found = 0;        // F.
  size_t shown = 0;
  uint32_t crc = 0;  // Of the per-config top-k lists.
  // Score of the root config's last (k-th, when full) entry: the regime the
  // joint top-k runs in.
  double root_kth_score = 0.0;
};

// Checks one session's output and fills its quality fields: every list is a
// canonical top-k list of pairs outside C, and every confirmed match is a
// killed-off match that E contains.
void ScoreSession(const std::vector<std::vector<ScoredPair>>& lists,
                  const Verification& verification, const BlockerCase& blocker,
                  size_t k, SessionSample& sample, Record& record) {
  const std::string where = "session on " + blocker.label + ": ";
  std::unordered_set<PairId> candidates;
  for (const std::vector<ScoredPair>& list : lists) {
    if (list.size() > k) record.Error(where + "list longer than k");
    for (size_t i = 0; i < list.size(); ++i) {
      const ScoredPair& entry = list[i];
      if (!(entry.score >= 0.0 && entry.score <= 1.0)) {
        record.Error(where + "score outside [0, 1]");
      }
      if (blocker.output.Contains(entry.pair)) {
        record.Error(where + "list holds a pair of C");
      }
      if (i > 0 && !(list[i - 1].score > entry.score ||
                     (list[i - 1].score == entry.score &&
                      list[i - 1].pair < entry.pair))) {
        record.Error(where + "list not in (score desc, pair asc) order");
      }
      candidates.insert(entry.pair);
    }
  }
  if (candidates.empty()) {
    record.Error(where + "E is empty");
    return;
  }
  sample.killed = blocker.killed.size();
  sample.killed_in_e = 0;
  for (PairId pair : candidates) {
    if (blocker.killed.Contains(pair)) ++sample.killed_in_e;
  }
  for (PairId pair : verification.found) {
    if (candidates.count(pair) == 0 || !blocker.killed.Contains(pair)) {
      record.Error(where + "confirmed match outside E or not killed off");
      break;
    }
  }
  sample.found = verification.found.size();
  sample.shown = verification.shown;
  sample.crc = TopKListsCrc(lists);
  sample.root_kth_score = lists[0].empty() ? 0.0 : lists[0].back().score;
}

// The real path: DebugSession::Create, MakeVerifier, the verifier loop and
// SummarizeProblems. False (and a failure recorded) when the session errs.
bool RunSession(const Setup& setup, const BlockerCase& blocker,
                const MatchCatcherOptions& options, SessionSample& sample,
                Record& record) {
  Stopwatch watch;
  Result<DebugSession> session =
      DebugSession::Create(setup.dataset.table_a, setup.dataset.table_b,
                           blocker.output, options);
  if (!session.ok()) {
    record.Fail("Create on " + blocker.label + ": " +
                session.status().ToString());
    return false;
  }
  if (session->truncated()) {
    record.Fail("Create on " + blocker.label + " was truncated");
    return false;
  }
  MatchVerifier verifier = session->MakeVerifier();
  Verification verification =
      Verify(verifier, setup.dataset.gold, watch, nullptr, 0, -1);
  session->SummarizeProblems(verification.found);
  sample.seconds = watch.ElapsedSeconds();
  sample.first_batch_seconds = verification.first_batch_seconds;
  sample.iteration_ms = verification.iteration_ms;
  ScoreSession(session->TopKLists(), verification, blocker,
               options.joint.k, sample, record);
  return true;
}

// Counts a staged session reads from the layers' public results.
struct StagedCounters {
  uint64_t session = 0;
  double seconds = 0.0;
  double first_batch_seconds = 0.0;
  double cores_used = 0.0;
  double root_kth_score = 0.0;
  size_t q = 0;
  size_t nodes = 0;
  size_t events = 0;
  size_t pairs_scored = 0;
  size_t pairs_pruned = 0;
  size_t topk_pairs = 0;
  size_t cache_hits = 0;
  size_t cache_lookups = 0;
  size_t seeded_configs = 0;
  size_t iterations = 0;
};

// The traced path: the same steps DebugSession::Create runs, called layer by
// layer in its order with a span around each call, then the verifier loop
// and the summary. The joint phase runs the plan computed here as its
// cached plan, so planning is timed on its own.
bool RunStagedSession(const Setup& setup, const BlockerCase& blocker,
                      const MatchCatcherOptions& options, Tracer& tracer,
                      uint64_t session, SessionSample& sample,
                      StagedCounters& counters, Record& record) {
  const std::string where = "staged session on " + blocker.label + ": ";
  std::vector<std::vector<ScoredPair>> lists;
  Verification verification;
  Stopwatch watch;
  {
    ScopedSpan root(&tracer, "session", session);
    const int64_t parent = root.id();
    Table table_a;
    Table table_b;
    {
      ScopedSpan span(&tracer, "table.copy", session, parent);
      table_a = setup.dataset.table_a;
      table_b = setup.dataset.table_b;
    }
    {
      ScopedSpan span(&tracer, "table.text_plane", session, parent);
      TextPlaneBuildOptions plane_options;
      plane_options.num_threads = options.joint.num_threads;
      TokenizedTable::BuildAndAttach(table_a, table_b, plane_options);
    }
    {
      ScopedSpan span(&tracer, "table.infer_types", session, parent);
      table_a.SetSchema(InferAttributeTypes(table_a));
      table_b.SetSchema(table_a.schema());
    }
    std::optional<Result<PromisingAttributes>> attributes;
    {
      ScopedSpan span(&tracer, "config.select", session, parent);
      attributes.emplace(
          SelectPromisingAttributes(table_a, table_b, options.config));
    }
    if (!attributes->ok()) {
      record.Fail(where + attributes->status().ToString());
      return false;
    }
    ConfigTree tree;
    {
      ScopedSpan span(&tracer, "config.tree", session, parent);
      tree = GenerateConfigTree(**attributes, options.config);
    }
    std::optional<SsjCorpus> corpus;
    {
      ScopedSpan span(&tracer, "ssj.corpus_build", session, parent);
      CorpusBuildOptions build_options;
      build_options.num_threads = options.joint.num_threads;
      corpus.emplace(SsjCorpus::Build(table_a, table_b, (*attributes)->columns,
                                      build_options));
    }
    JoinPlan plan;
    {
      std::optional<ConfigView> root_view;
      {
        ScopedSpan span(&tracer, "ssj.root_view", session, parent);
        root_view.emplace(corpus->MakeConfigView(tree.nodes[0].mask));
      }
      ScopedSpan span(&tracer, "ssj.plan", session, parent);
      // The planner options RunJointTopKJoins derives from JointOptions.
      PlannerOptions planner_options;
      planner_options.k = options.joint.k;
      planner_options.measure = options.joint.measure;
      planner_options.exclude = &blocker.output;
      planner_options.seed = options.joint.planner_seed;
      planner_options.max_shards = options.joint.num_threads;
      planner_options.enable_hybrid = options.joint.planner_hybrid;
      planner_options.enable_threshold = options.joint.planner_threshold;
      plan = PlanTopKJoin(*corpus, *root_view, planner_options);
    }
    JointResult joint;
    {
      ScopedSpan span(&tracer, "joint.run", session, parent);
      JointOptions joint_options = options.joint;
      joint_options.exclude = &blocker.output;
      joint_options.cached_plan = &plan;
      const double cpu_before = CpuSeconds();
      Stopwatch joint_watch;
      joint = RunJointTopKJoins(*corpus, tree, joint_options);
      counters.cores_used =
          (CpuSeconds() - cpu_before) / joint_watch.ElapsedSeconds();
      corpus.reset();  // Create drops its corpus before returning, too.
    }
    if (!joint.task_error.ok() || joint.truncated) {
      record.Fail(where + "joint phase failed or was truncated");
      return false;
    }
    std::optional<PairFeatureExtractor> extractor;
    {
      ScopedSpan span(&tracer, "learn.extractor", session, parent);
      extractor.emplace(&table_a, &table_b);
    }
    std::optional<MatchVerifier> verifier;
    {
      ScopedSpan span(&tracer, "rank.aggregate", session, parent);
      for (const ConfigJoinResult& config : joint.per_config) {
        lists.push_back(config.topk);
      }
      verifier.emplace(lists, &*extractor, options.verifier);
    }
    verification = Verify(*verifier, setup.dataset.gold, watch, &tracer,
                          session, parent);
    {
      ScopedSpan span(&tracer, "explain.summarize", session, parent);
      SummarizeProblems(table_a, table_b, verification.found);
    }
    counters.q = joint.q_used;
    counters.nodes = tree.size();
    for (const ConfigJoinResult& config : joint.per_config) {
      counters.events += config.stats.events_popped;
      counters.pairs_scored += config.stats.pairs_scored;
      counters.pairs_pruned += config.stats.pairs_pruned;
      counters.topk_pairs += config.topk.size();
      counters.cache_hits += config.cache_hits;
      counters.cache_lookups += config.cache_hits + config.cache_misses;
      if (config.seeded_from_parent) ++counters.seeded_configs;
    }
  }
  sample.seconds = watch.ElapsedSeconds();
  sample.first_batch_seconds = verification.first_batch_seconds;
  sample.iteration_ms = verification.iteration_ms;
  counters.session = session;
  counters.seconds = sample.seconds;
  counters.first_batch_seconds = sample.first_batch_seconds;
  counters.iterations = verification.iteration_ms.size();
  ScoreSession(lists, verification, blocker, options.joint.k, sample, record);
  counters.root_kth_score = sample.root_kth_score;
  return true;
}

// The staged twin of an untraced session: the same inputs, traced layer by
// layer, and it must return the same lists.
void RunStagedTwin(const Setup& setup, const BlockerCase& blocker,
                   const SessionSample& reference,
                   const MatchCatcherOptions& options, Tracer& tracer,
                   uint64_t session, std::vector<StagedCounters>& staged,
                   Record& record) {
  SessionSample traced;
  StagedCounters counters;
  if (!RunStagedSession(setup, blocker, options, tracer, session, traced,
                        counters, record)) {
    return;
  }
  if (traced.crc != reference.crc) {
    record.Error("staged session on " + blocker.label +
                 " produced other lists than DebugSession::Create");
  }
  staged.push_back(counters);
}

// ---------------------------------------------------------------------------
// Metrics.

// Sessions on different datasets and blockers differ in cost by design. A
// median of the pooled sessions would jump from one cell's sessions to
// another's under run-to-run noise, so each cell gets its own median and
// the metric is the mean of those medians.
double MeanOfCellMedians(const std::vector<SessionSample>& samples,
                         size_t cells,
                         double (*field)(const SessionSample&)) {
  std::vector<std::vector<double>> per_cell(cells);
  for (const SessionSample& s : samples) per_cell[s.cell].push_back(field(s));
  double sum = 0.0;
  for (const std::vector<double>& values : per_cell) sum += Median(values);
  return sum / static_cast<double>(cells);
}

// The session metrics a user sees. `timed` are every session of the
// measured window; `scored` hold one session per cell, whose debugging
// quality — summed over the cells, in the pair-completeness terms of the
// blocking literature — is the same on every run of one seed: M_D
// killed-off matches, M_E of them in E, F of them confirmed by the user
// after `shown` labelled pairs.
void AddSessionMetrics(const std::vector<SessionSample>& timed, size_t cells,
                       const std::vector<SessionSample>& scored,
                       double measured_seconds, Record& record) {
  std::vector<double> iteration_ms;
  for (const SessionSample& s : timed) {
    iteration_ms.insert(iteration_ms.end(), s.iteration_ms.begin(),
                        s.iteration_ms.end());
  }
  double killed = 0.0, killed_in_e = 0.0, found = 0.0, shown = 0.0;
  for (const SessionSample& s : scored) {
    killed += static_cast<double>(s.killed);
    killed_in_e += static_cast<double>(s.killed_in_e);
    found += static_cast<double>(s.found);
    shown += static_cast<double>(s.shown);
  }
  const size_t n = timed.size();
  record.Metric("session_s",
                MeanOfCellMedians(timed, cells,
                                  [](const SessionSample& s) {
                                    return s.seconds;
                                  }),
                "s", n);
  record.Metric("first_batch_s",
                MeanOfCellMedians(timed, cells,
                                  [](const SessionSample& s) {
                                    return s.first_batch_seconds;
                                  }),
                "s", n);
  record.Metric("iteration_ms.p90", Percentile(iteration_ms, 0.9), "ms",
                iteration_ms.size());
  record.Metric("sessions_per_s",
                Ratio(static_cast<double>(n), measured_seconds), "1/s", n);
  record.Metric("killed_recall", Ratio(killed_in_e, killed), "frac",
                scored.size());
  record.Metric("found_recall", Ratio(found, killed), "frac", scored.size());
  record.Metric("labels_per_match", Ratio(shown, found), "pairs",
                scored.size());
}

// Results of the service loop, shared by the client and writer threads.
struct ServiceResults {
  std::vector<SessionSample> sessions;
  // The last session of every pair after the writer stopped, verified on
  // the pair's final tables: these fix the run's debugging quality.
  std::vector<SessionSample> final_sessions;
  std::vector<double> session_ms;    // Submit until Wait returns.
  std::vector<double> submit_ms;
  std::vector<double> admission_ms;  // SessionOutcome::admission_wait_seconds.
  std::vector<double> delta_ms;      // From the delta's due time to commit.
  std::vector<double> delta_late_ms;  // From due time to ApplyTableDelta call.
  double window_seconds = 0.0;
  ServiceStats stats;
};

// Workloads without a service pass null and report zeros: the layer did no
// work.
void AddServiceLayerMetrics(const ServiceResults* results, Record& record) {
  const ServiceResults none;
  const ServiceResults& r = results != nullptr ? *results : none;
  auto percentile = [&](const char* name, const std::vector<double>& values,
                        double p) {
    record.Metric(name, values.empty() ? 0.0 : Percentile(values, p), "ms",
                  values.size());
  };
  auto rate = [&](const char* name, size_t hits, size_t lookups) {
    record.Metric(name,
                  lookups == 0 ? 0.0
                               : static_cast<double>(hits) /
                                     static_cast<double>(lookups),
                  "frac", lookups);
  };
  percentile("service.session_ms.p50", r.session_ms, 0.5);
  percentile("service.session_ms.max", r.session_ms, 1.0);
  percentile("service.submit_ms.p50", r.submit_ms, 0.5);
  percentile("service.admission_wait_ms.p50", r.admission_ms, 0.5);
  percentile("service.admission_wait_ms.max", r.admission_ms, 1.0);
  percentile("service.delta_ms.p50", r.delta_ms, 0.5);
  percentile("service.delta_ms.max", r.delta_ms, 1.0);
  percentile("service.delta_late_ms.max", r.delta_late_ms, 1.0);
  const ServiceStats& s = r.stats;
  const size_t lookups = s.plane_cache_hits + s.plane_cache_misses;
  rate("service.plane_hit_rate", s.plane_cache_hits, lookups);
  rate("service.corpus_hit_rate", s.corpus_cache_hits, lookups);
  rate("service.plan_cache_hit_rate", s.plan_cache_hits,
       s.plan_cache_hits + s.plan_cache_misses);
}

// Per-layer metrics of the staged sessions, from their spans and counters,
// plus the tracing checks over every traced session.
void AddLayerMetrics(const std::vector<StagedCounters>& staged,
                     const std::vector<SessionSample>& untraced,
                     const Tracer& tracer, Record& record) {
  const std::vector<Span> spans = tracer.Snapshot();
  const std::vector<double> self_us = SelfTimesMicros(spans);
  std::map<uint64_t, size_t> staged_index;
  for (size_t i = 0; i < staged.size(); ++i) {
    staged_index[staged[i].session] = i;
  }
  // Self seconds per (layer, staged session); per-iteration span times.
  std::map<std::string, std::vector<double>> layer_seconds;
  std::vector<double> next_batch_ms, submit_ms, unattributed;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration_us = span.end_us - span.start_us;
    const std::string name = span.name;
    if (name == "session") {
      // The root's own self time is the share no layer accounts for.
      unattributed.push_back(Ratio(self_us[i], duration_us));
    }
    auto it = staged_index.find(span.session);
    if (it == staged_index.end()) continue;
    std::vector<double>& per_session = layer_seconds[name];
    per_session.resize(staged.size(), 0.0);
    per_session[it->second] += self_us[i] / 1e6;
    if (name == "verifier.next_batch") {
      next_batch_ms.push_back(duration_us / 1e3);
    } else if (name == "verifier.submit") {
      submit_ms.push_back(duration_us / 1e3);
    }
  }
  const size_t n = staged.size();
  auto seconds_of = [&](const char* span_name) {
    auto it = layer_seconds.find(span_name);
    return it == layer_seconds.end() ? std::vector<double>(n, 0.0)
                                     : it->second;
  };
  auto layer = [&](const char* span_name, const char* metric) {
    record.Metric(metric, Median(seconds_of(span_name)), "s", n);
  };
  auto counter = [&](const char* metric, const char* unit, auto field) {
    std::vector<double> values;
    for (const StagedCounters& c : staged) {
      values.push_back(static_cast<double>(field(c)));
    }
    record.Metric(metric, Median(values), unit, n);
  };
  layer("table.text_plane", "table.text_plane_s");
  layer("table.infer_types", "table.infer_types_s");
  layer("config.select", "config.select_s");
  layer("config.tree", "config.tree_s");
  counter("config.nodes", "count",
          [](const StagedCounters& c) { return c.nodes; });
  layer("ssj.corpus_build", "ssj.corpus_build_s");
  layer("ssj.root_view", "ssj.root_view_s");
  layer("ssj.plan", "ssj.plan_s");
  counter("ssj.plan_q", "count", [](const StagedCounters& c) { return c.q; });
  counter("ssj.root_kth_score", "score",
          [](const StagedCounters& c) { return c.root_kth_score; });
  layer("joint.run", "joint.run_s");
  // The top-k phase (corpus, root view, plan and joint run) as a share of
  // the time to the first batch.
  {
    const std::vector<double> corpus = seconds_of("ssj.corpus_build");
    const std::vector<double> view = seconds_of("ssj.root_view");
    const std::vector<double> plan = seconds_of("ssj.plan");
    const std::vector<double> run = seconds_of("joint.run");
    std::vector<double> share;
    for (size_t i = 0; i < n; ++i) {
      share.push_back(Ratio(corpus[i] + view[i] + plan[i] + run[i],
                            staged[i].first_batch_seconds));
    }
    record.Metric("joint.topk_share", Median(share), "frac", n);
  }
  counter("joint.cores_used", "cores",
          [](const StagedCounters& c) { return c.cores_used; });
  counter("joint.events", "count",
          [](const StagedCounters& c) { return c.events; });
  counter("joint.pairs_scored", "count",
          [](const StagedCounters& c) { return c.pairs_scored; });
  counter("joint.pairs_pruned", "count",
          [](const StagedCounters& c) { return c.pairs_pruned; });
  counter("joint.useful_frac", "frac", [](const StagedCounters& c) {
    return Ratio(static_cast<double>(c.topk_pairs),
                 static_cast<double>(c.pairs_scored));
  });
  // 0 when the overlap cache is off (short tuples).
  counter("joint.overlap_hit_rate", "frac", [](const StagedCounters& c) {
    return c.cache_lookups == 0 ? 0.0
                                : static_cast<double>(c.cache_hits) /
                                      static_cast<double>(c.cache_lookups);
  });
  counter("joint.seeded_configs", "count",
          [](const StagedCounters& c) { return c.seeded_configs; });
  layer("learn.extractor", "learn.extractor_s");
  layer("rank.aggregate", "rank.aggregate_s");
  record.Metric("verifier.next_batch_ms.p50", Percentile(next_batch_ms, 0.5),
                "ms", next_batch_ms.size());
  record.Metric("verifier.next_batch_ms.p90", Percentile(next_batch_ms, 0.9),
                "ms", next_batch_ms.size());
  record.Metric("verifier.submit_ms.p50", Percentile(submit_ms, 0.5), "ms",
                submit_ms.size());
  record.Metric("verifier.submit_ms.p90", Percentile(submit_ms, 0.9), "ms",
                submit_ms.size());
  counter("verifier.iterations", "count",
          [](const StagedCounters& c) { return double(c.iterations); });
  layer("explain.summarize", "explain.summarize_s");

  std::vector<double> traced_seconds, untraced_seconds;
  for (const StagedCounters& c : staged) traced_seconds.push_back(c.seconds);
  for (const SessionSample& s : untraced) untraced_seconds.push_back(s.seconds);
  record.Metric("trace.overhead_frac",
                Median(traced_seconds) / Median(untraced_seconds) - 1.0,
                "frac", n);
  const double worst = unattributed.empty()
                           ? std::nan("")
                           : *std::max_element(unattributed.begin(),
                                               unattributed.end());
  record.Metric("trace.unattributed_frac", worst, "frac", unattributed.size());
  if (!(worst <= kMaxUnattributed)) {
    record.Error("a traced session leaves " + JsonNumber(worst) +
                 " of its time to no layer");
  }
}

// ---------------------------------------------------------------------------
// Session workloads: back-to-back sessions, one client, passes of one
// session per (dataset, blocker) cell.

// A cell's sessions must repeat its first session's lists and quality
// exactly: the planner and verifier are deterministic for fixed inputs.
void CheckRepeat(const SessionSample& first, const SessionSample& again,
                 const std::string& label, Record& record) {
  if (first.crc != again.crc || first.killed_in_e != again.killed_in_e ||
      first.found != again.found || first.shown != again.shown) {
    record.Error("session on " + label + " did not repeat its first pass");
  }
}

void RunSessionWorkload(const WorkloadSpec& spec, const Args& args,
                        Tracer* tracer, Record& record) {
  // Each dataset is set up at least once; the first ones again until there
  // are kMinSetupReps set-ups to take the median of.
  std::vector<Setup> panel(spec.datasets);
  std::vector<double> setup_seconds, blocking;
  for (size_t rep = 0; rep < std::max(spec.datasets, kMinSetupReps); ++rep) {
    const size_t d = rep % spec.datasets;
    Stopwatch watch;
    panel[d] = BuildSetup(spec, DatasetSeed(args.seed, d), tracer, record);
    setup_seconds.push_back(watch.ElapsedSeconds());
    blocking.push_back(panel[d].blocking_seconds);
  }
  // A traced run stages the sessions of the first dataset only.
  struct Cell {
    size_t dataset;
    size_t blocker;
  };
  std::vector<Cell> cells;
  for (size_t d = 0; d < (tracer == nullptr ? panel.size() : 1); ++d) {
    for (size_t b = 0; b < panel[d].cases.size(); ++b) cells.push_back({d, b});
  }
  if (cells.empty()) return;
  const MatchCatcherOptions options = SessionOptions(spec);

  std::vector<SessionSample> samples;
  std::vector<StagedCounters> staged;
  std::vector<std::optional<SessionSample>> first_pass(cells.size());
  Stopwatch measured;
  for (size_t i = 0;
       i < cells.size() || measured.ElapsedSeconds() < args.seconds; ++i) {
    const size_t c = i % cells.size();
    const Setup& setup = panel[cells[c].dataset];
    const BlockerCase& blocker = setup.cases[cells[c].blocker];
    record.Attempt();
    SessionSample sample;
    sample.cell = c;
    if (!RunSession(setup, blocker, options, sample, record)) continue;
    if (first_pass[c]) {
      CheckRepeat(*first_pass[c], sample, blocker.label, record);
    } else {
      first_pass[c] = sample;
    }
    samples.push_back(sample);
    if (tracer != nullptr) {
      RunStagedTwin(setup, blocker, sample, options, *tracer, samples.size(),
                    staged, record);
    }
  }
  // A traced run spends part of its window on the staged twins, so its
  // sessions per second count the untraced sessions' own time only.
  double window_seconds = measured.ElapsedSeconds();
  if (tracer != nullptr) {
    window_seconds = 0.0;
    for (const SessionSample& s : samples) window_seconds += s.seconds;
  }
  std::vector<SessionSample> scored;
  for (const std::optional<SessionSample>& s : first_pass) {
    if (s) scored.push_back(*s);
  }
  AddSessionMetrics(samples, cells.size(), scored, window_seconds, record);
  record.Metric("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  record.Metric("peak_rss_mb", PeakRssMb(), "MB", 1);
  record.Metric("blocking.run_s", Median(blocking), "s", blocking.size());
  if (tracer == nullptr) return;
  AddLayerMetrics(staged, samples, *tracer, record);
  AddServiceLayerMetrics(nullptr, record);
}

// ---------------------------------------------------------------------------
// service_mix: concurrent debugging sessions through one SessionManager over
// table pairs that a writer keeps changing.

// A registered pair as a session sees it: text plane attached and schema
// inferred, as DebugSession::Create prepares its own copies.
struct Generation {
  std::shared_ptr<const Table> a;
  std::shared_ptr<const Table> b;
};

Generation Prepare(const Table& raw_a, const Table& raw_b) {
  auto a = std::make_shared<Table>(raw_a);
  auto b = std::make_shared<Table>(raw_b);
  TextPlaneBuildOptions plane_options;
  plane_options.num_threads = 1;
  TokenizedTable::BuildAndAttach(*a, *b, plane_options);
  a->SetSchema(InferAttributeTypes(*a));
  b->SetSchema(a->schema());
  return {std::move(a), std::move(b)};
}

std::string PairKey(size_t pair) { return "bench" + std::to_string(pair); }

// One registered pair: its inputs, the writer's copy of its latest tables
// and the mirror of its recent generations.
struct ServicePair {
  const Setup* setup = nullptr;
  SessionRequest request;
  // Writer-owned: the raw tables of the latest generation.
  Table raw_a;
  Table raw_b;
  // Guarded by ServiceTraffic::mirror_mutex_. Older generations are dropped
  // so that the mirror does not inflate peak_rss_mb.
  std::map<uint64_t, Generation> mirror;
  uint64_t latest_generation = 1;
  // Guarded by ServiceTraffic::results_mutex_.
  std::map<uint64_t, uint32_t> crc_by_generation;
};

class ServiceTraffic {
 public:
  ServiceTraffic(const WorkloadSpec& spec, uint64_t seed,
                 const std::vector<Setup>& panel, SessionManager& manager,
                 Tracer* tracer, Record& record)
      : manager_(manager),
        tracer_(tracer),
        record_(record),
        options_(SessionOptions(spec)),
        delta_rng_(seed),
        pairs_(panel.size()) {
    for (size_t p = 0; p < panel.size(); ++p) {
      ServicePair& pair = pairs_[p];
      pair.setup = &panel[p];
      pair.request.pair_key = PairKey(p);
      pair.request.options = options_;
      pair.raw_a = panel[p].dataset.table_a;
      pair.raw_b = panel[p].dataset.table_b;
      pair.mirror[1] = Prepare(pair.raw_a, pair.raw_b);
    }
  }

  ServiceTraffic(const ServiceTraffic&) = delete;
  ServiceTraffic& operator=(const ServiceTraffic&) = delete;

  // Runs the clients and the writer for `seconds`, then checks each pair's
  // last generation against an isolated session on its mirrored tables.
  ServiceResults Run(double seconds, uint64_t first_session) {
    next_session_ = first_session;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
      std::thread writer([&] { Writer(start, end); });
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kServiceClients; ++c) {
        clients.emplace_back([&] {
          while (Clock::now() < end) ClientSession();
        });
      }
      for (std::thread& client : clients) client.join();
      writer.join();
    }
    results_.window_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    for (ServicePair& pair : pairs_) CheckMirror(pair);
    results_.stats = manager_.stats();
    return std::move(results_);
  }

 private:
  // One service session as a client saw it.
  struct Served {
    SessionSample sample;
    uint64_t generation = 0;
    double submit_ms = 0.0;
    double session_ms = 0.0;  // Submit until Wait returns.
    double admission_ms = 0.0;
  };

  // Submits one session on `pair` and verifies its lists on the tables of
  // the generation it ran over. Nothing (and a failure recorded) when the
  // session did not complete.
  std::optional<Served> ServeSession(ServicePair& pair, uint64_t session) {
    const BlockerCase& blocker = pair.setup->cases.front();
    Served served;
    SessionSample& sample = served.sample;
    Verification verification;
    std::vector<std::vector<ScoredPair>> lists;
    {
      Stopwatch watch;
      ScopedSpan root(tracer_, "session", session);
      std::optional<Result<uint64_t>> id;
      {
        ScopedSpan span(tracer_, "service.submit", session, root.id());
        id.emplace(manager_.Submit(pair.request));
      }
      served.submit_ms = watch.ElapsedMillis();
      if (!id->ok()) {
        record_.Fail("submit rejected: " + id->status().ToString());
        return std::nullopt;
      }
      std::optional<Result<SessionOutcome>> outcome;
      {
        ScopedSpan span(tracer_, "service.wait", session, root.id());
        outcome.emplace(manager_.Wait(**id));
      }
      served.session_ms = watch.ElapsedMillis();
      if (!outcome->ok() || (*outcome)->state != SessionState::kComplete ||
          (*outcome)->truncated) {
        record_.Fail("service session did not complete: " +
                     (outcome->ok() ? std::string(SessionStateName(
                                          (*outcome)->state)) +
                                          " " + (*outcome)->status.ToString()
                                    : outcome->status().ToString()));
        return std::nullopt;
      }
      served.admission_ms = (*outcome)->admission_wait_seconds * 1e3;
      served.generation = (*outcome)->plane_generation;
      lists = std::move((*outcome)->lists);
      const std::optional<Generation> tables =
          MirrorAt(pair, served.generation);
      if (!tables) {
        record_.Fail("no mirror of generation " +
                     std::to_string(served.generation));
        return std::nullopt;
      }
      std::optional<PairFeatureExtractor> extractor;
      {
        ScopedSpan span(tracer_, "learn.extractor", session, root.id());
        extractor.emplace(tables->a.get(), tables->b.get());
      }
      std::optional<MatchVerifier> verifier;
      {
        ScopedSpan span(tracer_, "rank.aggregate", session, root.id());
        verifier.emplace(lists, &*extractor, options_.verifier);
      }
      verification = Verify(*verifier, pair.setup->dataset.gold, watch,
                            tracer_, session, root.id());
      {
        ScopedSpan span(tracer_, "explain.summarize", session, root.id());
        SummarizeProblems(*tables->a, *tables->b, verification.found);
      }
      sample.seconds = watch.ElapsedSeconds();
      sample.first_batch_seconds = verification.first_batch_seconds;
      sample.iteration_ms = verification.iteration_ms;
    }
    ScoreSession(lists, verification, blocker, options_.joint.k, sample,
                 record_);
    return served;
  }

  // One closed-loop client session; sessions take the pairs in turn.
  void ClientSession() {
    const uint64_t session = next_session_++;
    const size_t p = session % pairs_.size();
    ServicePair& pair = pairs_[p];
    record_.Attempt();
    std::optional<Served> served = ServeSession(pair, session);
    if (!served) return;
    served->sample.cell = p;
    std::lock_guard<std::mutex> lock(results_mutex_);
    // Every session over one plane generation must see the same lists,
    // whichever caches (plane, corpus, plan) it was served from.
    auto [it, inserted] =
        pair.crc_by_generation.emplace(served->generation, served->sample.crc);
    if (!inserted && it->second != served->sample.crc) {
      record_.Error("sessions over generation " +
                    std::to_string(served->generation) + " of " +
                    pair.request.pair_key + " returned different lists");
    }
    results_.sessions.push_back(std::move(served->sample));
    results_.session_ms.push_back(served->session_ms);
    results_.submit_ms.push_back(served->submit_ms);
    results_.admission_ms.push_back(served->admission_ms);
  }

  // Open loop: delta i is due at start + i * kDeltaPeriod whether or not
  // the previous one finished, and is timed from that due time. Deltas take
  // the pairs in turn, and each pair's deltas alternate between A and B.
  void Writer(Clock::time_point start, Clock::time_point end) {
    for (size_t i = 1;; ++i) {
      const Clock::time_point due = start + i * kDeltaPeriod;
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      ServicePair& pair = pairs_[(i - 1) % pairs_.size()];
      const uint8_t side = static_cast<uint8_t>((i - 1) / pairs_.size() % 2);
      Table& target = side == 0 ? pair.raw_a : pair.raw_b;
      const TableDelta delta =
          SmallRandomDelta(target, side, i, kDeltaRows, delta_rng_);
      record_.Attempt();
      const Clock::time_point begin = Clock::now();
      Status status;
      {
        ScopedSpan span(tracer_, "service.delta", next_session_++);
        status = manager_.ApplyTableDelta(pair.request.pair_key, delta);
      }
      const Clock::time_point done = Clock::now();
      {
        std::lock_guard<std::mutex> lock(results_mutex_);
        results_.delta_ms.push_back(Millis(done - due));
        results_.delta_late_ms.push_back(Millis(begin - due));
      }
      if (!status.ok()) {
        record_.Fail("delta " + std::to_string(i) + ": " + status.ToString());
        continue;
      }
      const Status mirrored = ApplyDeltaToTable(target, delta);
      if (!mirrored.ok()) {
        record_.Error("mirroring delta " + std::to_string(i) + ": " +
                      mirrored.ToString());
        return;
      }
      Generation next = Prepare(pair.raw_a, pair.raw_b);
      {
        std::lock_guard<std::mutex> lock(mirror_mutex_);
        const uint64_t latest = ++pair.latest_generation;
        pair.mirror[latest] = std::move(next);
        if (latest > kMirrorGenerations) {
          pair.mirror.erase(
              pair.mirror.begin(),
              pair.mirror.lower_bound(latest - kMirrorGenerations));
        }
      }
      mirror_cv_.notify_all();
    }
  }

  // The mirrored tables of `generation` of `pair`, waiting briefly for the
  // writer to mirror a delta the manager has just committed.
  std::optional<Generation> MirrorAt(ServicePair& pair, uint64_t generation) {
    std::unique_lock<std::mutex> lock(mirror_mutex_);
    mirror_cv_.wait_for(lock, std::chrono::seconds(10), [&] {
      return pair.latest_generation >= generation;
    });
    auto it = pair.mirror.find(generation);
    if (it == pair.mirror.end()) return std::nullopt;
    return it->second;
  }

  // After the writer stopped: a last session on `pair` must see its final
  // generation and return the lists an isolated DebugSession::Create
  // computes on the mirrored tables — the patched planes never drift from a
  // rebuild. The session is verified like any other, and is the pair's
  // sample of the run's debugging quality.
  void CheckMirror(ServicePair& pair) {
    record_.Attempt();
    std::optional<Served> served = ServeSession(pair, next_session_++);
    if (!served) return;
    if (served->generation != pair.latest_generation) {
      record_.Error("mirror-check session on " + pair.request.pair_key +
                    " ran on generation " +
                    std::to_string(served->generation) + ", not " +
                    std::to_string(pair.latest_generation));
    }
    Result<DebugSession> isolated =
        DebugSession::Create(pair.raw_a, pair.raw_b,
                             pair.setup->cases.front().output, options_);
    if (!isolated.ok()) {
      record_.Error("isolated session: " + isolated.status().ToString());
      return;
    }
    if (served->sample.crc != TopKListsCrc(isolated->TopKLists())) {
      record_.Error("service lists of " + pair.request.pair_key +
                    " after the deltas differ from an isolated session on "
                    "the mirrored tables");
    }
    results_.final_sessions.push_back(std::move(served->sample));
  }

  SessionManager& manager_;
  Tracer* tracer_;
  Record& record_;
  const MatchCatcherOptions options_;
  std::atomic<uint64_t> next_session_{0};

  // Writer-owned: the seeded delta stream.
  Rng delta_rng_;

  std::vector<ServicePair> pairs_;
  std::mutex mirror_mutex_;
  std::condition_variable mirror_cv_;
  std::mutex results_mutex_;
  ServiceResults results_;
};

// Registers a set-up as pair `pair` of the service and runs one leader
// session on it, which builds the pair's shared plane, corpus and plan.
void RegisterPair(const WorkloadSpec& spec, const Setup& setup, size_t pair,
                  SessionManager& manager, Record& record) {
  const Status registered =
      manager.RegisterTablePair(PairKey(pair), setup.dataset.table_a,
                                setup.dataset.table_b,
                                setup.cases.front().output);
  if (!registered.ok()) {
    record.Error("register: " + registered.ToString());
    return;
  }
  SessionRequest request;
  request.pair_key = PairKey(pair);
  request.options = SessionOptions(spec);
  Result<uint64_t> id = manager.Submit(request);
  Result<SessionOutcome> leader =
      id.ok() ? manager.Wait(*id) : Result<SessionOutcome>(id.status());
  if (!leader.ok() || leader->state != SessionState::kComplete) {
    record.Error("leader session did not complete");
  }
}

void RunServiceWorkload(const WorkloadSpec& spec, const Args& args,
                        Tracer* tracer, Record& record) {
  // Set-up, once per pair: generation, blocking, registration and the
  // leader session.
  ServiceLimits limits;
  limits.max_concurrent_sessions = kServiceClients;
  SessionManager manager(limits);
  std::vector<Setup> panel(spec.datasets);
  std::vector<double> setup_seconds, blocking;
  for (size_t p = 0; p < panel.size(); ++p) {
    Stopwatch watch;
    panel[p] = BuildSetup(spec, DatasetSeed(args.seed, p), tracer, record);
    if (panel[p].cases.empty()) return;
    RegisterPair(spec, panel[p], p, manager, record);
    setup_seconds.push_back(watch.ElapsedSeconds());
    blocking.push_back(panel[p].blocking_seconds);
  }

  // A traced run first stages layer-by-layer sessions on the first pair's
  // inputs and options, for a third of the run, then runs the service loop
  // with its own spans for the rest.
  const MatchCatcherOptions options = SessionOptions(spec);
  const BlockerCase& blocker = panel.front().cases.front();
  std::vector<SessionSample> samples;
  std::vector<StagedCounters> staged;
  Stopwatch staged_watch;
  while (tracer != nullptr && (samples.empty() || staged_watch.ElapsedSeconds() <
                                                      args.seconds / 3)) {
    record.Attempt();
    SessionSample sample;
    if (!RunSession(panel.front(), blocker, options, sample, record)) break;
    samples.push_back(sample);
    RunStagedTwin(panel.front(), blocker, sample, options, *tracer,
                  samples.size(), staged, record);
  }
  const double service_seconds =
      tracer == nullptr ? args.seconds : args.seconds * 2 / 3;
  ServiceTraffic traffic(spec, args.seed, panel, manager, tracer, record);
  const ServiceResults results =
      traffic.Run(service_seconds, samples.size() + 1);
  AddSessionMetrics(results.sessions, panel.size(), results.final_sessions,
                    results.window_seconds, record);
  record.Metric("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  record.Metric("peak_rss_mb", PeakRssMb(), "MB", 1);
  record.Metric("blocking.run_s", Median(blocking), "s", blocking.size());
  if (tracer == nullptr) return;
  AddLayerMetrics(staged, samples, *tracer, record);
  AddServiceLayerMetrics(&results, record);
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t n = std::string(prefix).size();
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--workload=")) {
      args.workload = v;
    } else if (const char* v = value_of("--seed=")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--seconds=")) {
      args.seconds = std::atof(v);
    } else if (const char* v = value_of("--trace=")) {
      args.trace_path = v;
    } else if (const char* v = value_of("--scale=")) {
      args.scale = std::atof(v);
    } else if (const char* v = value_of("--k=")) {
      args.k = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--datasets=")) {
      args.datasets = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr || !(args.seconds > 0.0) || args.scale < 0.0 ||
      args.datasets > kMaxDatasets) {
    std::fprintf(stderr,
                 "usage: mc_bench --workload=NAME --seed=S --seconds=T "
                 "[--trace=PATH] [--scale=X] [--k=N] [--datasets=N<=%zu]\n",
                 kMaxDatasets);
    return 2;
  }
  WorkloadSpec spec = *found;
  if (args.scale > 0.0) spec.scale = args.scale;
  if (args.k > 0) spec.k = args.k;
  if (args.datasets > 0) spec.datasets = args.datasets;

  Record record;
  std::optional<Tracer> tracer;
  if (!args.trace_path.empty()) tracer.emplace();
  Tracer* trace = tracer ? &*tracer : nullptr;
  if (spec.service) {
    RunServiceWorkload(spec, args, trace, record);
  } else {
    RunSessionWorkload(spec, args, trace, record);
  }
  if (trace != nullptr && !trace->WriteChromeTrace(args.trace_path)) {
    record.Error("cannot write " + args.trace_path);
  }
  record.Print(args);
  return 0;
}

}  // namespace
}  // namespace sessionbench
}  // namespace mc

int main(int argc, char** argv) { return mc::sessionbench::Main(argc, argv); }
