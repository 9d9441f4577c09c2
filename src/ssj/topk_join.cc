#include "ssj/topk_join.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <type_traits>

#include "mem/arena.h"
#include "mem/arena_vector.h"
#include "simd/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace mc {

double DirectPairScorer::Score(RowId row_a, RowId row_b) {
  const TokenSpan a = view_->a(row_a);
  const TokenSpan b = view_->b(row_b);
  const size_t overlap = simd::OverlapCount(a.data, a.size(), b.data, b.size());
  return SetSimilarityFromCounts(measure_, a.size(), b.size(), overlap);
}

namespace {

// One pending prefix extension: string `row` on side `side` is about to
// reveal the token at `position`; any *new* pair formed through that token
// scores at most `cap`.
struct Event {
  double cap;
  uint8_t side;  // 0 = table A, 1 = table B.
  RowId row;
  uint32_t position;
};

struct EventLess {
  bool operator()(const Event& x, const Event& y) const {
    if (x.cap != y.cap) return x.cap < y.cap;
    if (x.side != y.side) return x.side > y.side;
    if (x.row != y.row) return x.row > y.row;
    return x.position > y.position;
  }
};

// One posting of the prefix inverted index: `row` has revealed the token at
// `position`.
struct IndexEntry {
  RowId row;
  uint32_t position;
};

// Exact |a[0..len_a) ∩ b[0..len_b)| of two rank-sorted prefixes, stopping
// as soon as the count exceeds `limit` (the caller only needs equality with
// a value <= limit). Counts below or equal to `limit` are exact. The capped
// kernel's contract (exactly limit + 1 once exceeded) keeps the return value
// level-independent.
inline size_t PrefixOverlap(const uint32_t* a, size_t len_a, const uint32_t* b,
                            size_t len_b, size_t limit) {
  return simd::OverlapCountCapped(a, len_a, b, len_b, limit);
}

// Exact similarity of a pair by merging its token spans, with the measure
// fixed at compile time (same arithmetic as DirectPairScorer::Score).
template <SetMeasure kMeasure>
double SpanScore(const ConfigView& view, RowId row_a, RowId row_b) {
  const TokenSpan a = view.a(row_a);
  const TokenSpan b = view.b(row_b);
  const size_t overlap = simd::OverlapCount(a.data, a.size(), b.data, b.size());
  return SetSimilarityFromCounts(kMeasure, a.size(), b.size(), overlap);
}

// Smallest integer overlap whose similarity under kMeasure reaches
// `threshold` (kStrict = false: >= threshold; kStrict = true: strictly
// above it) for spans of the given sizes, or min(size_a, size_b) + 1 when
// even full overlap falls short. Seeded from the analytic inverse of the
// measure and then adjusted with exact SetSimilarityFromCounts evaluations
// (a step or two at most), so the boundary agrees bit for bit with the
// scoring arithmetic — no float-rounding slack in either direction.
// Because the rounded similarity is monotone in the overlap for fixed
// sizes, "similarity above threshold" is exactly "overlap >= required":
// callers can replace a float division + compare with an integer compare.
template <SetMeasure kMeasure, bool kStrict>
size_t RequiredOverlap(size_t size_a, size_t size_b, double threshold) {
  const size_t max_overlap = std::min(size_a, size_b);
  const double a = static_cast<double>(size_a);
  const double b = static_cast<double>(size_b);
  auto reaches = [&](size_t overlap) {
    const double sim = SetSimilarityFromCounts(kMeasure, size_a, size_b,
                                               overlap);
    return kStrict ? sim > threshold : sim >= threshold;
  };
  double guess;
  if constexpr (kMeasure == SetMeasure::kJaccard) {
    guess = threshold * (a + b) / (1.0 + threshold);
  } else if constexpr (kMeasure == SetMeasure::kCosine) {
    guess = threshold * std::sqrt(a * b);
  } else if constexpr (kMeasure == SetMeasure::kDice) {
    guess = threshold * (a + b) / 2.0;
  } else {
    static_assert(kMeasure == SetMeasure::kOverlapCoefficient);
    guess = threshold * std::min(a, b);
  }
  size_t o = guess <= 0.0                                ? 0
             : guess >= static_cast<double>(max_overlap) ? max_overlap
                                                         : static_cast<size_t>(guess);
  while (o > 0 && reaches(o - 1)) --o;
  while (o <= max_overlap && !reaches(o)) ++o;
  return o;
}

// Exact similarity like SpanScore, but abandons the merge (returning false)
// as soon as the pair provably cannot reach `threshold`: when even matching
// every remaining token leaves the overlap below RequiredOverlap. The
// comparison is strict — a pair whose exact score ties the k-th entry is
// still scored in full, because ties can displace a larger pair id — so
// callers may treat `false` exactly as "TopKList::Add would have rejected
// it". On true, *score holds the exact similarity.
template <SetMeasure kMeasure>
bool SpanScoreAbove(const ConfigView& view, RowId row_a, RowId row_b,
                    double threshold, double* score) {
  const TokenSpan a = view.a(row_a);
  const TokenSpan b = view.b(row_b);
  const size_t required =
      RequiredOverlap<kMeasure, /*kStrict=*/false>(a.size(), b.size(),
                                                   threshold);
  size_t overlap = 0;
  if (!simd::OverlapAtLeast(a.data, a.size(), b.data, b.size(), required,
                            &overlap)) {
    return false;
  }
  *score = SetSimilarityFromCounts(kMeasure, a.size(), b.size(), overlap);
  return true;
}

// Runs the sequential prefix-event join over the rows of table A whose
// index is congruent to `shard` mod `shard_count` (joined against all of
// table B). shard = 0, shard_count = 1 is the full join; the engine is
// bit-identical to the pre-CSR implementation in that case.
//
// `prefilter` < 0 runs the classic engine. >= 0 tightens every pruning
// bound to max(k-th score, prefilter): termination, the positional
// required-overlap bound, extension scheduling, and early-abandon scoring
// all use the tightened bound, so pairs provably below the prefilter are
// skipped even while the list is still filling. The caller (RunShardImpl)
// owns the correctness argument: it accepts this pass's list only when its
// final k-th score reaches the prefilter, and restarts without it
// otherwise.
//
// Templated on the measure (folds the similarity switch out of the bound
// computations, which run once or twice per probe) and on the concrete
// scorer type (Scorer = DirectPairScorer scores inline with the same folded
// measure; Scorer = PairScorer keeps the virtual call for custom scorers).
template <SetMeasure kMeasure, typename Scorer>
TopKList RunShardPass(const ConfigView& view, const TopKJoinOptions& options,
                      double prefilter, Scorer* scorer,
                      const std::vector<ScoredPair>* seed,
                      TopKJoinStats* stats, size_t shard, size_t shard_count,
                      size_t b_shard, size_t b_shard_count, size_t a_begin,
                      size_t a_end) {
  TopKList topk(options.k);

  // Effective pruning bound. With the prefilter off this is exactly the
  // k-th score (max with -1 is the identity on KthScore's range), so the
  // classic engine's behavior is untouched byte for byte.
  auto bound = [&] { return std::max(topk.KthScore(), prefilter); };

  // Seeds initialize the list (raising the pruning threshold early). The
  // engine may later re-derive a seeded pair at its q-th shared token and
  // score it again; scoring is deterministic, so TopKList::Add sees the
  // same value and the list is unchanged.
  if (seed != nullptr) {
    for (const ScoredPair& entry : *seed) {
      topk.Add(entry.pair, entry.score);
    }
  }

  const size_t q = options.q;
  // Deferred-scoring cap: a pair still unscored when a row's prefix reaches
  // `position` has at most q - 1 shared tokens before `position` (it scores
  // the moment its count hits q), so its overlap is bounded as if the
  // suffix started q - 1 positions earlier. Using the classic cap at the
  // raw position (valid only for q = 1) undercounts those carried tokens
  // and silently drops pairs whose q-th shared token sits deep in a prefix.
  // q = 1 reduces to SetSimilarityCap exactly.
  auto extension_cap = [&](size_t len, size_t position) {
    const size_t effective = position >= q ? position - (q - 1) : 0;
    return SetSimilarityCap(kMeasure, len, effective);
  };

  // Pass-local scratch arena backing the inverted indexes, the event heap,
  // and the required-overlap tables. Uncharged (transient working memory,
  // not resident plane state) and unplaced: its pages are first-touched by
  // this thread, so under a pinned topology-aware pool the whole scratch
  // plane lands on the worker's own node for free. Posting-list growth
  // strands its doubling copies in the arena (deallocate is a no-op); the
  // waste is bounded by the geometric series and the arena returns it all
  // at once when the pass ends — cheaper than a heap round-trip per list.
  mem::Arena scratch(mem::ArenaOptions{.tag = "join_scratch"});

  // Inverted indexes over the *extended* prefixes, one per side, indexed
  // densely by token rank (every rank is < view.rank_limit()). Replaces the
  // former unordered_map indexes: a probe is one array load instead of a
  // hash walk, and the postings of hot (frequent) tokens stay contiguous.
  // The fill constructor copies the prototype posting list into every slot;
  // the allocator's select_on_container_copy_construction keeps the arena,
  // so the inner lists bump-allocate from scratch too.
  using PostingList = mem::ArenaVector<IndexEntry>;
  const PostingList posting_proto{mem::ArenaAllocator<IndexEntry>(&scratch)};
  mem::ArenaVector<PostingList> index_a(
      view.rank_limit(), posting_proto,
      mem::ArenaAllocator<PostingList>(&scratch));
  mem::ArenaVector<PostingList> index_b(
      view.rank_limit(), posting_proto,
      mem::ArenaAllocator<PostingList>(&scratch));

  // Required-overlap table: req_value[len] caches
  // RequiredOverlap<kMeasure, true>(own_len, len, kth) for the event being
  // processed, so each probe's pruning bound is an integer compare instead
  // of a float division (SetSimilarityFromCounts). Entries are valid while
  // req_epoch is unchanged; the epoch advances on every new event (own_len
  // changes) and whenever the k-th score moves (a scored pair entered the
  // list). Rounded similarity is monotone in the overlap,
  // so the integer compare reproduces the float compare bit for bit.
  size_t max_len = 0;
  for (size_t row = 0; row < view.rows_a(); ++row) {
    max_len = std::max(max_len, view.a(row).size());
  }
  for (size_t row = 0; row < view.rows_b(); ++row) {
    max_len = std::max(max_len, view.b(row).size());
  }
  mem::ArenaVector<uint32_t> req_value(max_len + 1, 0,
                                       mem::ArenaAllocator<uint32_t>(&scratch));
  mem::ArenaVector<uint64_t> req_stamp(max_len + 1, 0,
                                       mem::ArenaAllocator<uint64_t>(&scratch));
  uint64_t req_epoch = 1;  // 64-bit: never wraps into a stale stamp.
  double epoch_bound = bound();
  auto note_kth_change = [&] {
    if (bound() != epoch_bound) {
      epoch_bound = bound();
      ++req_epoch;
    }
  };

  // Event heap: a plain binary max-heap under EventLess. EventLess is a
  // total order on distinct (cap, side, row, position) keys, so the pop
  // sequence — and therefore the join's output — is independent of heap
  // internals; a hand-rolled heap buys a replace-top operation (assign the
  // root, one sift-down) that halves the per-event sift work versus
  // priority_queue's pop-then-push.
  // Side-A rows are confined to the [a_begin, a_end) window before the
  // residue split (the topology executor's node slices); the default window
  // covers the whole table.
  const size_t a_window_end = std::min(a_end, view.rows_a());
  const size_t a_window_begin = std::min(a_begin, a_window_end);

  mem::ArenaVector<Event> events{mem::ArenaAllocator<Event>(&scratch)};
  // Heap size only shrinks after the initial fill (replace_top assigns in
  // place); reserving the per-shard row bound up front means the arena
  // strands nothing to doubling.
  events.reserve(
      (a_window_end - a_window_begin + shard_count - 1) / shard_count +
      (view.rows_b() + b_shard_count - 1) / b_shard_count);
  const EventLess event_less;
  auto push_initial = [&](uint8_t side) {
    const size_t rows = side == 0 ? a_window_end : view.rows_b();
    const size_t step = side == 0 ? shard_count : b_shard_count;
    for (size_t row = side == 0 ? a_window_begin + shard : b_shard;
         row < rows; row += step) {
      const TokenSpan tokens = side == 0 ? view.a(row) : view.b(row);
      if (tokens.empty()) continue;
      events.push_back(Event{extension_cap(tokens.size(), 0), side,
                             static_cast<RowId>(row), 0});
    }
  };
  push_initial(0);
  push_initial(1);
  std::make_heap(events.begin(), events.end(), event_less);

  // Overwrites the root with `e` and restores the heap property downward.
  auto replace_top = [&](const Event& e) {
    size_t i = 0;
    const size_t n = events.size();
    while (true) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && event_less(events[child], events[child + 1])) {
        ++child;
      }
      if (!event_less(e, events[child])) break;
      events[i] = events[child];
      i = child;
    }
    events[i] = e;
  };
  auto pop_top = [&] {
    std::pop_heap(events.begin(), events.end(), event_less);
    events.pop_back();
  };

  // The exclusion filter (blocker output C) runs at scoring time, not at
  // discovery time: hopeless pairs die via the positional bound without the
  // hash lookup, so only the few pairs that could enter the top-k pay it.
  auto score_pair = [&](PairId pair) {
    if (options.exclude != nullptr && options.exclude->Contains(pair)) {
      return;
    }
    ++stats->pairs_scored;
    RowId row_a = PairRowA(pair);
    RowId row_b = PairRowB(pair);
    double score;
    if constexpr (std::is_same_v<Scorer, DirectPairScorer>) {
      const double kth = bound();  // -1 until the list fills (prefilter off).
      if (kth < 0.0 || topk.Contains(pair)) {
        // A not-yet-full list accepts everything, and a kept pair must be
        // re-scored in full so a corrected score lands in place.
        score = SpanScore<kMeasure>(view, row_a, row_b);
      } else if (!SpanScoreAbove<kMeasure>(view, row_a, row_b, kth, &score)) {
        return;  // Provably below the bound: Add would reject it.
      }
    } else {
      const double kth = bound();
      if (kth < 0.0 || topk.Contains(pair)) {
        score = scorer->Score(row_a, row_b);
      } else if (!scorer->ScoreAbove(row_a, row_b, kth, &score)) {
        return;  // Scorer proved it below the bound: Add would reject.
      }
    }
    topk.Add(pair, score);
    note_kth_change();
  };

  // Cancellation: checked before the loop and every poll_period events. On expiry the partially filled list is still returned (the
  // best-so-far contract, docs/robustness.md).
  if (options.run_context.Cancelled()) {
    stats->truncated = true;
    return topk;
  }

  while (!events.empty()) {
    const Event event = events.front();
    // Termination: no pending extension can create a pair beating *or
    // tying* the k-th score. The comparison is strict — events whose cap
    // equals the k-th score still run, because a tied pair with a smaller
    // pair id displaces the boundary entry under TopKList's total order
    // (score desc, pair asc). That makes the returned list the *canonical*
    // top-k of the searched pair space: the unique k-minimum under the
    // total order, independent of discovery order — which is what lets
    // shard-merged and seeded runs reproduce the sequential list bit for
    // bit (see docs/algorithms.md §"Canonical tie handling").
    // (KthScore() is -1 until the list fills, so we never stop early with
    // fewer than k results while extensions remain — unless an active
    // prefilter raises the bound, whose skips the caller repairs or
    // proves canonical.)
    if (event.cap < bound()) break;
    ++stats->events_popped;
    if ((stats->events_popped % options.poll_period) == 0) {
      if (options.run_context.Cancelled()) {
        stats->truncated = true;
        break;
      }
      if (options.cost_model != nullptr &&
          options.cost_model->Cost(stats->events_popped,
                                   stats->pairs_pruned + stats->pairs_scored,
                                   stats->pairs_scored) >
              options.cost_budget) {
        stats->abandoned = true;
        break;
      }
    }

    const bool from_a = event.side == 0;
    ++req_epoch;  // New event: own_len changes, so cached bounds expire.
    const TokenSpan tokens = from_a ? view.a(event.row) : view.b(event.row);
    const uint32_t token = tokens[event.position];
    auto& own_index = from_a ? index_a : index_b;
    auto& other_index = from_a ? index_b : index_a;

    // Probe partners whose prefix already covers `token`. Every shared
    // token of a pair produces exactly one probe (whichever side reveals
    // it second finds the other side's posting), so the probe sequence of
    // a pair enumerates its shared tokens in event order — and the pair's
    // exact shared count at each probe is recomputable from the CSR
    // prefixes alone. That makes the join stateless per pair: no hash map
    // of pair state (formerly the join's dominant cost — one random cache
    // miss per probe), just a short sequential merge over arena data.
    const PostingList& postings = other_index[token];
    if (!postings.empty()) {
      const size_t own_len = tokens.size();
      const size_t own_remaining = own_len - 1 - event.position;
      for (const IndexEntry& entry : postings) {
        RowId partner = entry.row;

        // A probe only matters if it is the pair's *scoring* probe — the
        // one where its shared-token count c = |own_prefix ∩ partner_prefix|
        // + 1 equals q (c is distinct at every probe of a pair, so this
        // holds at exactly one probe). At that probe the pair's overlap is
        // bounded by positions alone:
        //   - shared tokens so far: c = q, and also at most min(i, j) + 1
        //     (they all precede the current token in both rank-sorted
        //     rows);
        //   - shared tokens still to come: at most min of the remainders.
        // So overlap <= min(min(i, j) + 1, q) + min(own_rem, partner_rem),
        // capped at min of the lengths. If that cannot beat the k-th
        // score, skip before touching the prefixes: pruning a non-scoring
        // probe is harmless (it would have been a no-op), and a pair whose
        // true score exceeds the final k-th always passes at its scoring
        // probe (score <= bound, and the k-th only rises).
        const TokenSpan partner_tokens =
            from_a ? view.b(partner) : view.a(partner);
        const size_t partner_len = partner_tokens.size();
        const size_t partner_remaining = partner_len - 1 - entry.position;
        const size_t prefix_limit =
            std::min(static_cast<size_t>(event.position),
                     static_cast<size_t>(entry.position));
        if (prefix_limit + 1 < q) continue;  // c <= prefix_limit + 1 < q.
        const size_t max_overlap =
            std::min(std::min(prefix_limit + 1, q) +
                         std::min(own_remaining, partner_remaining),
                     std::min(own_len, partner_len));
        // Bound check in integer form: the probe survives iff its overlap
        // bound reaches the smallest overlap whose similarity beats the
        // k-th score (cached per partner length for the current event +
        // k-th score, see req_value above). No float math on this path.
        uint32_t required;
        if (req_stamp[partner_len] == req_epoch) {
          required = req_value[partner_len];
        } else {
          // Non-strict: a pair that can only *tie* the k-th score must
          // still be scored — a tie with a smaller pair id displaces the
          // boundary entry (canonical tie handling).
          required = static_cast<uint32_t>(
              RequiredOverlap<kMeasure, /*kStrict=*/false>(
                  own_len, partner_len, bound()));
          req_value[partner_len] = required;
          req_stamp[partner_len] = req_epoch;
        }
        if (max_overlap < required) {
          ++stats->pairs_pruned;
          continue;
        }

        // Exact c via a short merge of the rank-sorted CSR prefixes — the
        // join is stateless per pair: no hash map of pair counts (formerly
        // the dominant cost — one random cache miss per probe).
        const size_t before =
            PrefixOverlap(tokens.begin(), event.position,
                          partner_tokens.begin(), entry.position,
                          /*limit=*/q - 1);
        if (before == 0) ++stats->pairs_discovered;
        if (before != q - 1) continue;  // Not the q-th shared token.
        score_pair(from_a ? MakePairId(event.row, partner)
                          : MakePairId(partner, event.row));
      }
    }

    // Reveal the token in this side's index.
    own_index[token].push_back(IndexEntry{event.row, event.position});
    ++stats->tokens_indexed;

    // Schedule the next extension unless it provably cannot matter — i.e.
    // unless its cap is strictly below the k-th score (a cap that ties can
    // still surface a smaller-pair-id tie, canonical tie handling). The
    // common case (extension survives) replaces the just-processed root in
    // place instead of pop + push.
    uint32_t next = event.position + 1;
    if (next < tokens.size()) {
      double cap = extension_cap(tokens.size(), next);
      if (cap >= bound()) {
        replace_top(Event{cap, event.side, event.row, next});
        continue;
      }
    }
    pop_top();
  }
  return topk;
}

// Hybrid threshold/top-k wrapper (TopKJoinOptions::prefilter_threshold).
// Phase 1 runs the engine with every pruning bound tightened to
// max(k-th, threshold). If the phase ends with a full list whose k-th score
// reaches the threshold, that list is the canonical result: every pair the
// tightened bound skipped provably scores strictly below some bound value
// <= the final k-th score, so it cannot even tie into the list. Otherwise
// the threshold overshot the true k-th (the planner's sampled estimate is
// biased low, so this is the rare path) and the engine restarts
// without the prefilter, seeded with phase 1's survivors — all exactly
// scored at their q-th shared-token probe, hence inside the q-eligible
// space the classic run searches — which reproduces the non-hybrid output
// bit for bit.
template <SetMeasure kMeasure, typename Scorer>
TopKList RunShardImpl(const ConfigView& view, const TopKJoinOptions& options,
                      Scorer* scorer, const std::vector<ScoredPair>* seed,
                      TopKJoinStats* stats, size_t shard, size_t shard_count,
                      size_t b_shard, size_t b_shard_count, size_t a_begin,
                      size_t a_end) {
  const double tau = options.prefilter_threshold;
  if (tau < 0.0) {
    return RunShardPass<kMeasure, Scorer>(view, options, /*prefilter=*/-1.0,
                                          scorer, seed, stats, shard,
                                          shard_count, b_shard, b_shard_count,
                                          a_begin, a_end);
  }
  TopKList first = RunShardPass<kMeasure, Scorer>(
      view, options, tau, scorer, seed, stats, shard, shard_count, b_shard,
      b_shard_count, a_begin, a_end);
  // Cancelled or over budget mid-phase: best-so-far contract, no restart
  // (the restart would be cancelled too and lose the survivors).
  if (stats->truncated || stats->abandoned) return first;
  // Done case: full list (KthScore >= 0) whose boundary reached the
  // threshold — canonical, by the argument above.
  if (first.KthScore() >= tau) return first;
  ++stats->prefilter_restarts;
  std::vector<ScoredPair> combined = first.Entries();
  if (seed != nullptr) {
    combined.insert(combined.end(), seed->begin(), seed->end());
  }
  return RunShardPass<kMeasure, Scorer>(view, options, /*prefilter=*/-1.0,
                                        scorer, &combined, stats, shard,
                                        shard_count, b_shard, b_shard_count,
                                        a_begin, a_end);
}

// Measure/scorer-kind dispatch into the templated shard runner. `direct` is
// non-null exactly when the caller did not supply a custom scorer.
TopKList RunShard(const ConfigView& view, const TopKJoinOptions& options,
                  PairScorer* scorer, DirectPairScorer* direct,
                  const std::vector<ScoredPair>* seed, TopKJoinStats* stats,
                  size_t shard, size_t shard_count, size_t b_shard = 0,
                  size_t b_shard_count = 1, size_t a_begin = 0,
                  size_t a_end = static_cast<size_t>(-1)) {
  auto run = [&](auto measure_tag) {
    constexpr SetMeasure kMeasure = decltype(measure_tag)::value;
    if (direct != nullptr) {
      return RunShardImpl<kMeasure, DirectPairScorer>(
          view, options, direct, seed, stats, shard, shard_count, b_shard,
          b_shard_count, a_begin, a_end);
    }
    return RunShardImpl<kMeasure, PairScorer>(view, options, scorer, seed,
                                              stats, shard, shard_count,
                                              b_shard, b_shard_count, a_begin,
                                              a_end);
  };
  switch (options.measure) {
    case SetMeasure::kJaccard:
      return run(
          std::integral_constant<SetMeasure, SetMeasure::kJaccard>{});
    case SetMeasure::kCosine:
      return run(std::integral_constant<SetMeasure, SetMeasure::kCosine>{});
    case SetMeasure::kDice:
      return run(std::integral_constant<SetMeasure, SetMeasure::kDice>{});
    case SetMeasure::kOverlapCoefficient:
      return run(std::integral_constant<SetMeasure,
                                        SetMeasure::kOverlapCoefficient>{});
  }
  MC_CHECK(false) << "unknown measure";
  return TopKList(options.k);
}

// Largest L such that every position p < L of a row with `len` tokens has
// extension cap >= tau under (kMeasure, q). The cap is non-increasing in
// the position (the effective suffix only shrinks), so L is found by a
// binary search for the first position whose cap falls below tau.
template <SetMeasure kMeasure>
size_t TruncatedPrefixLength(size_t len, size_t q, double tau) {
  size_t lo = 0;
  size_t hi = len;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const size_t effective = mid >= q ? mid - (q - 1) : 0;
    if (SetSimilarityCap(kMeasure, len, effective) >= tau) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

using PostingList = mem::ArenaVector<IndexEntry>;

// Probes one contiguous block of table-B rows [b_begin, b_end) against the
// shared read-only table-A truncated-prefix index at the fixed bound `tau`
// and returns the canonical top-k of the block's sub-space restricted to
// pairs scoring >= tau (plus any seeds). Unlike RunShardPass there is no
// event heap — rows stream in order and positions advance sequentially —
// and the required-overlap table is stamped once per probe row (own_len is
// the only variable: tau never moves), so the k-th score raising never
// invalidates cached bounds. The k-th score still tightens the scoring
// early-abandon bound via max(tau, k-th), which is safe under the
// accept-or-restart contract of RunThresholdImpl.
template <SetMeasure kMeasure, typename Scorer>
TopKList ThresholdBlockPass(const ConfigView& view,
                            const TopKJoinOptions& options, double tau,
                            Scorer* scorer,
                            const std::vector<ScoredPair>* seed,
                            const mem::ArenaVector<PostingList>& index_a,
                            const mem::ArenaVector<uint32_t>& b_prefix_len,
                            size_t b_begin, size_t b_end,
                            TopKJoinStats* stats) {
  TopKList topk(options.k);
  if (seed != nullptr) {
    for (const ScoredPair& entry : *seed) {
      topk.Add(entry.pair, entry.score);
    }
  }
  const size_t q = options.q;

  auto score_pair = [&](PairId pair) {
    if (options.exclude != nullptr && options.exclude->Contains(pair)) {
      return;
    }
    ++stats->pairs_scored;
    const RowId row_a = PairRowA(pair);
    const RowId row_b = PairRowB(pair);
    // The scoring bound max(tau, k-th) mirrors the hybrid prefilter pass:
    // pairs provably strictly below it can neither enter the accepted list
    // (boundary >= tau) nor survive to the restart (survivors are exactly
    // the scored pairs). Kept pairs re-score in full so a re-derivation
    // lands the same value in place.
    const double threshold = std::max(tau, topk.KthScore());
    double score;
    if constexpr (std::is_same_v<Scorer, DirectPairScorer>) {
      if (topk.Contains(pair)) {
        score = SpanScore<kMeasure>(view, row_a, row_b);
      } else if (!SpanScoreAbove<kMeasure>(view, row_a, row_b, threshold,
                                           &score)) {
        return;
      }
    } else {
      if (topk.Contains(pair)) {
        score = scorer->Score(row_a, row_b);
      } else if (!scorer->ScoreAbove(row_a, row_b, threshold, &score)) {
        return;
      }
    }
    topk.Add(pair, score);
  };

  // Required-overlap cache at the fixed bound tau, stamped by probe row:
  // req_value[partner_len] holds RequiredOverlap(own_len, partner_len, tau)
  // for the row being probed. Valid for the whole row — tau is fixed, so
  // unlike the classic pass nothing ever expires mid-row.
  size_t max_len = 0;
  for (size_t row = 0; row < view.rows_a(); ++row) {
    max_len = std::max(max_len, view.a(row).size());
  }
  for (size_t row = b_begin; row < b_end; ++row) {
    max_len = std::max(max_len, view.b(row).size());
  }
  std::vector<uint32_t> req_value(max_len + 1, 0);
  std::vector<uint64_t> req_stamp(max_len + 1, 0);
  uint64_t req_epoch = 0;

  size_t since_poll = 0;
  for (size_t row = b_begin; row < b_end; ++row) {
    const TokenSpan tokens = view.b(row);
    const size_t limit = b_prefix_len[row];
    if (limit == 0) continue;
    ++req_epoch;
    const size_t own_len = tokens.size();
    for (size_t position = 0; position < limit; ++position) {
      ++stats->events_popped;
      if (++since_poll >= options.poll_period) {
        since_poll = 0;
        if (options.run_context.Cancelled()) {
          stats->truncated = true;
          return topk;
        }
      }
      const PostingList& postings = index_a[tokens[position]];
      if (postings.empty()) continue;
      const size_t own_remaining = own_len - 1 - position;
      for (const IndexEntry& entry : postings) {
        const RowId partner = entry.row;
        const TokenSpan partner_tokens = view.a(partner);
        const size_t partner_len = partner_tokens.size();
        const size_t partner_remaining = partner_len - 1 - entry.position;
        const size_t prefix_limit =
            std::min(position, static_cast<size_t>(entry.position));
        if (prefix_limit + 1 < q) continue;  // c <= prefix_limit + 1 < q.
        const size_t max_overlap =
            std::min(std::min(prefix_limit + 1, q) +
                         std::min(own_remaining, partner_remaining),
                     std::min(own_len, partner_len));
        uint32_t required;
        if (req_stamp[partner_len] == req_epoch) {
          required = req_value[partner_len];
        } else {
          required = static_cast<uint32_t>(
              RequiredOverlap<kMeasure, /*kStrict=*/false>(own_len,
                                                           partner_len, tau));
          req_value[partner_len] = required;
          req_stamp[partner_len] = req_epoch;
        }
        if (max_overlap < required) {
          ++stats->pairs_pruned;
          continue;
        }
        // Shared tokens appear at increasing positions in both rank-sorted
        // prefixes, so the i-th shared token inside the truncated prefixes
        // probes with exactly i - 1 predecessors: each pair is scored at
        // most once, at its q-th shared truncated-prefix token.
        const size_t before =
            PrefixOverlap(tokens.begin(), position, partner_tokens.begin(),
                          entry.position, /*limit=*/q - 1);
        if (before == 0) ++stats->pairs_discovered;
        if (before != q - 1) continue;
        score_pair(MakePairId(partner, static_cast<RowId>(row)));
      }
    }
  }
  return topk;
}

// Threshold-join driver body: truncate both sides' prefixes at tau, index
// table A sequentially, stream table B (in options.shards contiguous
// blocks) against it, merge the canonical block lists, and accept or
// restart per the hybrid prefilter contract.
template <SetMeasure kMeasure, typename Scorer>
TopKList RunThresholdImpl(const ConfigView& view,
                          const TopKJoinOptions& options, Scorer* scorer,
                          PairScorer* scorer_base,
                          const std::vector<ScoredPair>* seed,
                          TopKJoinStats* stats) {
  const double tau = options.prefilter_threshold;
  const size_t q = options.q;

  // Scratch arena for the truncated-prefix index: built once on the calling
  // thread, then shared read-only across the B-row block tasks.
  mem::Arena scratch(mem::ArenaOptions{.tag = "join_scratch"});
  const PostingList posting_proto{mem::ArenaAllocator<IndexEntry>(&scratch)};
  mem::ArenaVector<PostingList> index_a(
      view.rank_limit(), posting_proto,
      mem::ArenaAllocator<PostingList>(&scratch));

  // Truncated prefix lengths, computed once per distinct row length would
  // also work; per row keeps it simple and the binary search is O(log len).
  for (size_t row = 0; row < view.rows_a(); ++row) {
    const TokenSpan tokens = view.a(row);
    const size_t limit = TruncatedPrefixLength<kMeasure>(tokens.size(), q, tau);
    for (size_t position = 0; position < limit; ++position) {
      ++stats->events_popped;
      index_a[tokens[position]].push_back(
          IndexEntry{static_cast<RowId>(row), static_cast<uint32_t>(position)});
      ++stats->tokens_indexed;
    }
  }
  mem::ArenaVector<uint32_t> b_prefix_len(
      view.rows_b(), 0, mem::ArenaAllocator<uint32_t>(&scratch));
  for (size_t row = 0; row < view.rows_b(); ++row) {
    b_prefix_len[row] = static_cast<uint32_t>(
        TruncatedPrefixLength<kMeasure>(view.b(row).size(), q, tau));
  }

  TopKList merged(options.k);
  if (options.shards == 1 || view.rows_b() < 2) {
    merged = ThresholdBlockPass<kMeasure, Scorer>(
        view, options, tau, scorer, seed, index_a, b_prefix_len,
        /*b_begin=*/0, /*b_end=*/view.rows_b(), stats);
  } else {
    const size_t blocks = std::min(options.shards, view.rows_b());
    const size_t hardware =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    std::vector<TopKList> block_lists(blocks, TopKList(options.k));
    std::vector<TopKJoinStats> block_stats(blocks);
    {
      ThreadPool pool(std::min(blocks, hardware), "mc-ttjoin");
      for (size_t s = 0; s < blocks; ++s) {
        pool.Submit([&, s] {
          const size_t b_begin = s * view.rows_b() / blocks;
          const size_t b_end = (s + 1) * view.rows_b() / blocks;
          block_lists[s] = ThresholdBlockPass<kMeasure, Scorer>(
              view, options, tau, scorer, seed, index_a, b_prefix_len,
              b_begin, b_end, &block_stats[s]);
        });
      }
      Status status = pool.Wait();
      MC_CHECK(status.ok()) << status.message();
    }
    for (size_t s = 0; s < blocks; ++s) {
      for (const ScoredPair& entry : block_lists[s].Entries()) {
        merged.Add(entry.pair, entry.score);
      }
      stats->events_popped += block_stats[s].events_popped;
      stats->pairs_discovered += block_stats[s].pairs_discovered;
      stats->pairs_scored += block_stats[s].pairs_scored;
      stats->pairs_pruned += block_stats[s].pairs_pruned;
      stats->truncated = stats->truncated || block_stats[s].truncated;
    }
  }
  // Cancelled mid-pass: best-so-far contract, no restart (the restart would
  // be cancelled too and lose the survivors).
  if (stats->truncated) return merged;
  // Done case: full list whose boundary reached tau — canonical. Every pair
  // the truncation skipped has its q-th shared token at a position whose
  // extension cap is < tau, so it scores strictly below tau <= the final
  // k-th and cannot even tie; every ScoreAbove rejection was strictly below
  // max(tau, a then-current block k-th) <= the final k-th.
  if (merged.KthScore() >= tau) return merged;
  // Threshold overshot the true k-th: re-run the classic engine seeded with
  // the survivors (all exactly scored at their q-th shared-token probe,
  // hence q-eligible), which reproduces the non-threshold output bit for
  // bit — same repair as the hybrid prefilter restart.
  ++stats->prefilter_restarts;
  std::vector<ScoredPair> combined = merged.Entries();
  if (seed != nullptr) {
    combined.insert(combined.end(), seed->begin(), seed->end());
  }
  TopKJoinOptions classic = options;
  classic.prefilter_threshold = -1.0;
  return RunTopKJoin(view, classic, scorer_base, &combined, stats);
}

}  // namespace

TopKList RunTopKJoin(const ConfigView& view, const TopKJoinOptions& options,
                     PairScorer* scorer, const std::vector<ScoredPair>* seed,
                     TopKJoinStats* stats) {
  MC_CHECK_GE(options.q, 1u);
  MC_CHECK_GE(options.poll_period, 1u);
  MC_CHECK_GE(options.shards, 1u);
  MC_CHECK(options.shards == 1 || options.cost_model == nullptr)
      << "a cost budget prices one call's counters, not a shard merge";
  DirectPairScorer direct_scorer(&view, options.measure);
  DirectPairScorer* direct = scorer == nullptr ? &direct_scorer : nullptr;
  if (scorer == nullptr) scorer = &direct_scorer;
  TopKJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  if (options.shards == 1) {
    return RunShard(view, options, scorer, direct, seed, stats, /*shard=*/0,
                    /*shard_count=*/1);
  }

  // Parallel mode: independent sub-joins over table-A shards, merged at the
  // end. Each shard's result is its canonical top-k over (shard x B) — the
  // k-minimum under (score desc, pair asc) — so merging the shard lists
  // through TopKList::Add reproduces the sequential run's list bit for bit
  // (see docs/algorithms.md §"Canonical tie handling"). The seed is offered
  // to every shard — its scores raise each shard's pruning threshold early,
  // and the final merge deduplicates.
  const size_t shard_count = options.shards;
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<TopKList> shard_lists(shard_count, TopKList(options.k));
  std::vector<TopKJoinStats> shard_stats(shard_count);
  {
    ThreadPool pool(std::min(shard_count, hardware), "mc-shard");
    for (size_t s = 0; s < shard_count; ++s) {
      pool.Submit([&, s] {
        shard_lists[s] = RunShard(view, options, scorer, direct, seed,
                                  &shard_stats[s], s, shard_count);
      });
    }
    Status status = pool.Wait();
    // Scorers are the only user code on this path; a throwing scorer is a
    // programming error, not a data condition.
    MC_CHECK(status.ok()) << status.message();
  }

  TopKList merged(options.k);
  for (size_t s = 0; s < shard_count; ++s) {
    for (const ScoredPair& entry : shard_lists[s].Entries()) {
      merged.Add(entry.pair, entry.score);
    }
    stats->events_popped += shard_stats[s].events_popped;
    stats->pairs_discovered += shard_stats[s].pairs_discovered;
    stats->pairs_scored += shard_stats[s].pairs_scored;
    stats->pairs_pruned += shard_stats[s].pairs_pruned;
    stats->tokens_indexed += shard_stats[s].tokens_indexed;
    stats->prefilter_restarts += shard_stats[s].prefilter_restarts;
    stats->truncated = stats->truncated || shard_stats[s].truncated;
  }
  return merged;
}

TopKList RunTopKJoinShard(const ConfigView& view,
                          const TopKJoinOptions& options, size_t shard,
                          size_t shard_count, PairScorer* scorer,
                          const std::vector<ScoredPair>* seed,
                          TopKJoinStats* stats, size_t b_shard,
                          size_t b_shard_count, size_t a_begin,
                          size_t a_end) {
  MC_CHECK_GE(options.q, 1u);
  MC_CHECK_GE(options.poll_period, 1u);
  MC_CHECK_LT(shard, shard_count);
  MC_CHECK_LT(b_shard, b_shard_count);
  DirectPairScorer direct_scorer(&view, options.measure);
  DirectPairScorer* direct = scorer == nullptr ? &direct_scorer : nullptr;
  if (scorer == nullptr) scorer = &direct_scorer;
  TopKJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  return RunShard(view, options, scorer, direct, seed, stats, shard,
                  shard_count, b_shard, b_shard_count, a_begin, a_end);
}

TopKList RunThresholdJoin(const ConfigView& view,
                          const TopKJoinOptions& options, PairScorer* scorer,
                          const std::vector<ScoredPair>* seed,
                          TopKJoinStats* stats) {
  MC_CHECK_GE(options.q, 1u);
  MC_CHECK_GE(options.poll_period, 1u);
  MC_CHECK_GE(options.shards, 1u);
  MC_CHECK_GE(options.prefilter_threshold, 0.0)
      << "threshold mode needs a fixed bound";
  MC_CHECK(options.cost_model == nullptr)
      << "the threshold driver does not enforce a cost budget";
  PairScorer* scorer_base = scorer;
  DirectPairScorer direct_scorer(&view, options.measure);
  const bool direct = scorer == nullptr;
  if (scorer == nullptr) scorer = &direct_scorer;
  TopKJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (options.run_context.Cancelled()) {
    stats->truncated = true;
    TopKList topk(options.k);
    if (seed != nullptr) {
      for (const ScoredPair& entry : *seed) topk.Add(entry.pair, entry.score);
    }
    return topk;
  }
  auto run = [&](auto measure_tag) {
    constexpr SetMeasure kMeasure = decltype(measure_tag)::value;
    if (direct) {
      return RunThresholdImpl<kMeasure, DirectPairScorer>(
          view, options, &direct_scorer, scorer_base, seed, stats);
    }
    return RunThresholdImpl<kMeasure, PairScorer>(view, options, scorer,
                                                  scorer_base, seed, stats);
  };
  switch (options.measure) {
    case SetMeasure::kJaccard:
      return run(std::integral_constant<SetMeasure, SetMeasure::kJaccard>{});
    case SetMeasure::kCosine:
      return run(std::integral_constant<SetMeasure, SetMeasure::kCosine>{});
    case SetMeasure::kDice:
      return run(std::integral_constant<SetMeasure, SetMeasure::kDice>{});
    case SetMeasure::kOverlapCoefficient:
      return run(std::integral_constant<SetMeasure,
                                        SetMeasure::kOverlapCoefficient>{});
  }
  MC_CHECK(false) << "unknown measure";
  return TopKList(options.k);
}

size_t ThresholdPrefixLength(SetMeasure measure, size_t len, size_t q,
                             double threshold) {
  switch (measure) {
    case SetMeasure::kJaccard:
      return TruncatedPrefixLength<SetMeasure::kJaccard>(len, q, threshold);
    case SetMeasure::kCosine:
      return TruncatedPrefixLength<SetMeasure::kCosine>(len, q, threshold);
    case SetMeasure::kDice:
      return TruncatedPrefixLength<SetMeasure::kDice>(len, q, threshold);
    case SetMeasure::kOverlapCoefficient:
      return TruncatedPrefixLength<SetMeasure::kOverlapCoefficient>(
          len, q, threshold);
  }
  MC_CHECK(false) << "unknown measure";
  return len;
}

TopKList BruteForceTopK(const ConfigView& view, size_t k, SetMeasure measure,
                        const CandidateSet* exclude, size_t min_overlap) {
  TopKList topk(k);
  // Batch one probe row against all of table B through the kernel plane's
  // OverlapMany: one dispatch per probe, and the probe span stays
  // cache-resident across candidates. Iteration (and thus tie handling in
  // TopKList::Add) is unchanged: a outer ascending, b inner ascending.
  std::vector<simd::RankSpan> candidates(view.rows_b());
  for (size_t b = 0; b < view.rows_b(); ++b) {
    const TokenSpan tb = view.b(b);
    candidates[b] = {tb.data, tb.length};
  }
  std::vector<size_t> overlaps(view.rows_b());
  for (size_t a = 0; a < view.rows_a(); ++a) {
    const TokenSpan ta = view.a(a);
    if (ta.empty()) continue;
    simd::OverlapMany({ta.data, ta.length}, candidates.data(),
                      candidates.size(), overlaps.data());
    for (size_t b = 0; b < view.rows_b(); ++b) {
      if (candidates[b].length == 0) continue;
      PairId pair = MakePairId(static_cast<RowId>(a), static_cast<RowId>(b));
      if (exclude != nullptr && exclude->Contains(pair)) continue;
      const size_t overlap = overlaps[b];
      if (overlap < min_overlap) continue;
      topk.Add(pair, SetSimilarityFromCounts(measure, ta.size(),
                                             candidates[b].size(), overlap));
    }
  }
  return topk;
}

}  // namespace mc
