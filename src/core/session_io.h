#ifndef MATCHCATCHER_CORE_SESSION_IO_H_
#define MATCHCATCHER_CORE_SESSION_IO_H_

#include <string>
#include <utility>
#include <vector>

#include "blocking/pair.h"
#include "ssj/topk_list.h"
#include "util/status.h"

namespace mc {

/// Persistence for debugging sessions. Blocker debugging spans sittings —
/// a user labels a few iterations, revises the blocker, comes back later —
/// so the expensive artifacts (per-config top-k lists) and the accumulated
/// labels can be saved and restored:
///
///   SaveTopKLists(session.TopKLists(), "lists.mc");
///   SaveLabeledPairs(labels, "labels.csv");
///   ...
///   MatchVerifier verifier(LoadTopKLists("lists.mc").value(), &extractor,
///                          options);
///   verifier.PreloadLabels(LoadLabeledPairs("labels.csv").value());
///
/// Formats are plain text: labels as "a,b,label" CSV; lists as one
/// "list <index>" header per config followed by "a,b,score" rows.
///
/// Crash safety (docs/robustness.md): saves write to `<path>.tmp` and
/// rename() it into place, so an interrupted save leaves the previous
/// checkpoint intact. Files are framed by a magic header line and a CRC32
/// footer; loads detect truncated or corrupt checkpoints and return a typed
/// kIoError. Legacy files without the framing still load (unverified).
/// Fault points: "session_io/write", "session_io/rename", "session_io/read"
/// (util/fault_injection.h).

Status SaveLabeledPairs(
    const std::vector<std::pair<PairId, bool>>& labels,
    const std::string& path);

Result<std::vector<std::pair<PairId, bool>>> LoadLabeledPairs(
    const std::string& path);

Status SaveTopKLists(const std::vector<std::vector<ScoredPair>>& lists,
                     const std::string& path);

Result<std::vector<std::vector<ScoredPair>>> LoadTopKLists(
    const std::string& path);

/// Checksum over per-config lists: list count, then each list's length and
/// (pair, score-bits) entries in order. Two runs produce equal CRCs iff
/// their lists are bit-identical — what the delta-equivalence suite
/// compares patched vs rebuilt outputs with.
uint32_t TopKListsCrc(const std::vector<std::vector<ScoredPair>>& lists);

}  // namespace mc

#endif  // MATCHCATCHER_CORE_SESSION_IO_H_
