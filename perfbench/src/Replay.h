//===- perfbench/src/Replay.h - Layer-by-layer registration -----*- C++ -*-===//
//
// Part of anosy-cpp's repository benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attribution replay for the traced run. The program has no spans of its
/// own inside AnosySession::create, so the traced run re-runs a
/// registration step by step through the same public functions create
/// calls — parseModule, analyzeModule, canonicalizeQuery,
/// ArtifactCache::lookup/store, getOrCompileTape, Synthesizer,
/// RefinementChecker, serializeKnowledgeBaseV2,
/// writeKnowledgeBaseFileAtomic — with one span around each. The serial
/// engine is deterministic, so the replay does the same solver work as
/// the registration it attributes; its node counts are exact.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_PERFBENCH_REPLAY_H
#define ANOSY_PERFBENCH_REPLAY_H

#include "Harness.h"

#include "cache/ArtifactCache.h"
#include "core/KnowledgeTracker.h"

#include <string>

namespace perfbench {

struct ReplayOptions {
  /// Powerset size k (PowerBox replays only).
  unsigned PowersetK = 3;
  /// Run the admission analysis first and skip the queries it decides,
  /// as an anosyd registration (StaticAdmission) does.
  bool Lint = false;
  /// minSizePolicy threshold the admission analysis uses.
  int64_t MinSize = -1;
  /// Probe and fill this cache as a cached registration does; null skips
  /// the cache layers.
  anosy::ArtifactCache *Cache = nullptr;
  /// Non-null: also time AnosySession::create itself (span core.create)
  /// over this cache, as the daemon runs it.
  anosy::ArtifactCache *CreateCache = nullptr;
  /// Non-empty: write the serialized KB here (span core.kb_write).
  std::string KbPath;
};

struct ReplayCounts {
  uint64_t SynthNodes = 0;
  uint64_t VerifyNodes = 0;
  bool Ok = true;
};

/// Replays one registration of \p Source under a root span
/// `attr.register` of request \p Req. With a null \p Log nothing is
/// recorded but the counts are still exact.
template <typename D>
ReplayCounts replayRegistration(const std::string &Source,
                                const ReplayOptions &O, SpanLog *Log,
                                uint64_t Req);

/// Re-runs the parts of KnowledgeTracker::downgrade on the tracker's
/// current state, without changing it, under a root span `attr.downgrade`:
/// the posterior meet (QueryInfo::approx), compaction (compactKnowledge),
/// the policy's size check on both posteriors and, when that admits, the
/// query on the secret (QueryInfo::run). Returns the root span's id.
template <typename D>
uint64_t attributeDowngrade(const anosy::KnowledgeTracker<D> &T,
                            const anosy::QueryInfo<D> &Info,
                            const anosy::Point &Secret, size_t MaxBoxes,
                            SpanLog *Log, uint64_t Req) {
  Span Root(Log, "attr.downgrade", Req);
  const uint64_t P = Root.id();
  D Prior = T.knowledgeFor(Secret);
  std::pair<D, D> Post;
  {
    Span Sp(Log, "domains.meet", Req, P);
    Post = Info.approx(Prior);
  }
  {
    Span Sp(Log, "domains.compact", Req, P);
    anosy::compactKnowledge(Post.first, MaxBoxes);
    anosy::compactKnowledge(Post.second, MaxBoxes);
  }
  bool Admitted = false;
  {
    Span Sp(Log, "domains.size", Req, P);
    Admitted = T.policy()(Post.first) && T.policy()(Post.second);
  }
  if (Admitted) {
    Span Sp(Log, "expr.eval", Req, P);
    volatile bool Answer = Info.run(Secret);
    (void)Answer;
  }
  return P;
}

} // namespace perfbench

#endif // ANOSY_PERFBENCH_REPLAY_H
