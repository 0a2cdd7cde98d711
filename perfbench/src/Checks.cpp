//===- perfbench/src/Checks.cpp - Output checks against references --------===//

#include "Checks.h"

#include "expr/Eval.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

using namespace perfbench;
using anosy::Box;
using anosy::Point;

anosy::Result<ExpectedSizes>
perfbench::parseExpectedSizes(const std::string &Text) {
  ExpectedSizes Out;
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (size_t Hash = Line.find('#'); Hash != std::string::npos)
      Line.resize(Hash);
    std::istringstream Fields(Line);
    std::string Problem, Domain;
    if (!(Fields >> Problem))
      continue;
    long long T = -1, F = -1;
    if (!(Fields >> Domain >> T >> F) || T < 0 || F < 0 ||
        (Domain != "interval" && Domain != "k3"))
      return anosy::Error(anosy::ErrorCode::Other,
                          "expected-sizes line " + std::to_string(LineNo) +
                              " is malformed");
    Out[Problem + "_" + Domain] = {T, F};
  }
  return Out;
}

std::string perfbench::checkUnderSizes(const ExpectedSizes &Expected,
                                       const std::string &Key,
                                       int64_t TrueSize, int64_t FalseSize) {
  auto It = Expected.find(Key);
  if (It == Expected.end())
    return Key + ": no expected under-approximation sizes";
  auto [T, F] = It->second;
  if (TrueSize >= T && FalseSize >= F)
    return "";
  return Key + ": under-approximation sizes " + std::to_string(TrueSize) +
         " / " + std::to_string(FalseSize) + " are below the expected " +
         std::to_string(T) + " / " + std::to_string(F);
}

unsigned perfbench::boxSampleViolations(const anosy::Expr &Query,
                                        const std::vector<Box> &Boxes,
                                        const std::vector<Box> &Excludes,
                                        bool Expected, anosy::Rng &R,
                                        unsigned Random) {
  unsigned Violations = 0;
  auto Probe = [&](const Point &P) {
    for (const Box &E : Excludes)
      if (E.contains(P))
        return;
    if (anosy::evalBool(Query, P) != Expected)
      ++Violations;
  };
  for (const Box &B : Boxes) {
    if (B.isEmpty())
      continue;
    const size_t N = B.arity();
    // Corners (capped at 2^6 of them), the centre, then uniform points.
    const size_t Corners = size_t(1) << std::min<size_t>(N, 6);
    for (size_t Mask = 0; Mask != Corners; ++Mask) {
      Point P(N);
      for (size_t D = 0; D != N; ++D)
        P[D] = (D < 6 && (Mask >> D) & 1) ? B.dim(D).Hi : B.dim(D).Lo;
      Probe(P);
    }
    Probe(B.center());
    for (unsigned I = 0; I != Random; ++I) {
      Point P(N);
      for (size_t D = 0; D != N; ++D)
        P[D] = R.range(B.dim(D).Lo, B.dim(D).Hi);
      Probe(P);
    }
  }
  return Violations;
}

ExactKnowledge::ExactKnowledge(const anosy::Schema &Sch) : S(Sch) {
  // The benchmark only builds this over small schemas (the 401 x 401 Fig. 6
  // location space); refuse anything that would not fit comfortably.
  anosy::BigCount Total = S.totalSize();
  if (!Total.fitsInt64() || Total.toInt64() > (int64_t(1) << 26))
    std::abort();
  Size = Total.toInt64();
  Member.assign(static_cast<size_t>(Size), 1);
}

Point ExactKnowledge::pointAt(size_t Index) const {
  Point P(S.arity());
  for (size_t D = S.arity(); D-- != 0;) {
    const anosy::Field &F = S.field(D);
    size_t Width = static_cast<size_t>(F.Hi - F.Lo + 1);
    P[D] = F.Lo + static_cast<int64_t>(Index % Width);
    Index /= Width;
  }
  return P;
}

size_t ExactKnowledge::indexOf(const Point &P) const {
  size_t Index = 0;
  for (size_t D = 0; D != S.arity(); ++D) {
    const anosy::Field &F = S.field(D);
    Index = Index * static_cast<size_t>(F.Hi - F.Lo + 1) +
            static_cast<size_t>(P[D] - F.Lo);
  }
  return Index;
}

std::pair<int64_t, int64_t>
ExactKnowledge::split(const anosy::Expr &Query) const {
  int64_t T = 0, F = 0;
  for (size_t I = 0; I != Member.size(); ++I)
    if (Member[I])
      (anosy::evalBool(Query, pointAt(I)) ? T : F) += 1;
  return {T, F};
}

void ExactKnowledge::refine(const anosy::Expr &Query, bool Answer) {
  Size = 0;
  for (size_t I = 0; I != Member.size(); ++I) {
    if (Member[I] && anosy::evalBool(Query, pointAt(I)) != Answer)
      Member[I] = 0;
    Size += Member[I];
  }
}

bool ExactKnowledge::contains(const Point &P) const {
  return S.contains(P) && Member[indexOf(P)] != 0;
}

uint64_t ExactKnowledge::outsideCount(const anosy::PowerBox &Posterior) const {
  uint64_t Outside = 0;
  for (const Box &B : Posterior.includes()) {
    if (B.isEmpty())
      continue;
    // Odometer walk over the box's points.
    Point P(B.arity());
    for (size_t D = 0; D != B.arity(); ++D)
      P[D] = B.dim(D).Lo;
    while (true) {
      bool Excluded = false;
      for (const Box &E : Posterior.excludes())
        Excluded = Excluded || E.contains(P);
      if (!Excluded && !contains(P))
        ++Outside;
      size_t D = B.arity();
      while (D != 0 && P[D - 1] == B.dim(D - 1).Hi) {
        P[D - 1] = B.dim(D - 1).Lo;
        --D;
      }
      if (D == 0)
        break;
      ++P[D - 1];
    }
  }
  return Outside;
}
