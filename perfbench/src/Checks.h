//===- perfbench/src/Checks.h - Output checks against references -*- C++ -*-===//
//
// Part of anosy-cpp's repository benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's output checks. Every reference is independent of the
/// code path under test:
///
///  * under-approximation sizes are compared with a hand-written file of
///    the sizes the parent commit printed in its Fig. 5a/5b tables;
///  * synthesized boxes are sampled and each sample is re-evaluated with
///    the tree-walk evaluator (evalBool), not the compiled tape;
///  * monitor posteriors are compared with exact knowledge, kept as one
///    membership flag per secret and refined by evalBool on every point.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_PERFBENCH_CHECKS_H
#define ANOSY_PERFBENCH_CHECKS_H

#include "domains/PowerBox.h"
#include "expr/Expr.h"
#include "support/Result.h"
#include "support/Rng.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Expected minimum under-approximation sizes, keyed "B1_interval",
/// "B1_k3", ...: {True-set size, False-set size}.
using ExpectedSizes = std::map<std::string, std::pair<int64_t, int64_t>>;

/// Parses lines `<problem> <interval|k3> <true size> <false size>`;
/// `#` starts a comment.
anosy::Result<ExpectedSizes> parseExpectedSizes(const std::string &Text);

/// Empty when the synthesized sizes are no smaller than the expected ones;
/// otherwise a description of the violation (also when \p Key is absent).
std::string checkUnderSizes(const ExpectedSizes &Expected,
                            const std::string &Key, int64_t TrueSize,
                            int64_t FalseSize);

/// Samples the corners, the centre and \p Random further points of every
/// box in \p Boxes, skipping points inside any of \p Excludes, and counts
/// the samples on which evalBool(Query) differs from \p Expected.
unsigned boxSampleViolations(const anosy::Expr &Query,
                             const std::vector<anosy::Box> &Boxes,
                             const std::vector<anosy::Box> &Excludes,
                             bool Expected, anosy::Rng &R,
                             unsigned Random = 16);

/// Exact attacker knowledge over a small schema: one flag per secret.
class ExactKnowledge {
public:
  explicit ExactKnowledge(const anosy::Schema &S);

  /// The number of secrets still possible that answer \p Query true and
  /// false, without changing the knowledge.
  std::pair<int64_t, int64_t> split(const anosy::Expr &Query) const;

  /// Keeps only the secrets that answer \p Query with \p Answer.
  void refine(const anosy::Expr &Query, bool Answer);

  bool contains(const anosy::Point &P) const;
  int64_t size() const { return Size; }

  /// Points of \p Posterior that the exact knowledge excludes (0 means
  /// the stored posterior under-approximates the knowledge).
  uint64_t outsideCount(const anosy::PowerBox &Posterior) const;

private:
  anosy::Point pointAt(size_t Index) const;
  size_t indexOf(const anosy::Point &P) const;

  anosy::Schema S;
  std::vector<uint8_t> Member;
  int64_t Size = 0;
};

} // namespace perfbench

#endif // ANOSY_PERFBENCH_CHECKS_H
