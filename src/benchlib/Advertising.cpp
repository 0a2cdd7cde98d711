//===- benchlib/Advertising.cpp - The §6.2 case-study driver --------------===//

#include "benchlib/Advertising.h"

#include "expr/Parser.h"
#include "support/Rng.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace anosy;

Module anosy::buildAdvertisingModule(const AdvertisingConfig &Config) {
  Rng R(Config.Seed);
  std::string Source = "secret UserLoc { x: int[" +
                       std::to_string(Config.SpaceLo) + ", " +
                       std::to_string(Config.SpaceHi) + "], y: int[" +
                       std::to_string(Config.SpaceLo) + ", " +
                       std::to_string(Config.SpaceHi) + "] }\n";
  Source += "def nearby(ox: int, oy: int): bool = abs(x - ox) + abs(y - oy) "
            "<= " +
            std::to_string(Config.QueryRadius) + "\n";
  for (unsigned I = 0; I != Config.NumRestaurants; ++I) {
    int64_t OX = R.range(Config.SpaceLo, Config.SpaceHi);
    int64_t OY = R.range(Config.SpaceLo, Config.SpaceHi);
    Source += "query restaurant" + std::to_string(I) + " = nearby(" +
              std::to_string(OX) + ", " + std::to_string(OY) + ")\n";
  }
  auto M = parseModule(Source);
  if (!M) {
    std::fprintf(stderr, "advertising module failed to parse: %s\n",
                 M.error().str().c_str());
    std::abort();
  }
  return M.takeValue();
}

AdvertisingResult
anosy::runAdvertisingExperiment(const AdvertisingConfig &Config) {
  Module M = buildAdvertisingModule(Config);

  KnowledgePolicy<PowerBox> Policy =
      minSizePolicy<PowerBox>(Config.PolicyMinSize);

  SessionOptions Options;
  Options.PowersetSize = Config.PowersetSize;
  // Verification of all 50 queries is exercised by tests; the experiment
  // itself measures declassification counts, so skip re-verification here.
  Options.Verify = false;

  auto Session = AnosySession<PowerBox>::create(M, Policy, Options);
  if (!Session) {
    std::fprintf(stderr, "advertising session failed: %s\n",
                 Session.error().str().c_str());
    std::abort();
  }

  AdvertisingResult Out;
  Out.Survivors.assign(Config.NumRestaurants, 0);

  Rng R(Config.Seed ^ 0x5eedf00dULL);
  for (unsigned Instance = 0; Instance != Config.NumInstances; ++Instance) {
    // Fresh secret location per instance.
    Point Secret{R.range(Config.SpaceLo, Config.SpaceHi),
                 R.range(Config.SpaceLo, Config.SpaceHi)};
    // Fresh visiting order over the restaurant branches (Fisher-Yates).
    std::vector<unsigned> Order(Config.NumRestaurants);
    std::iota(Order.begin(), Order.end(), 0u);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1],
                Order[static_cast<size_t>(R.range(0, static_cast<int64_t>(I) -
                                                         1))]);

    // Each instance tracks knowledge independently: fresh tracker state by
    // reusing the session's registered queries on a per-instance tracker.
    KnowledgeTracker<PowerBox> Tracker(M.schema(), Policy);
    for (const QueryDef &Q : M.queries())
      Tracker.registerQuery(*Session->tracker().queryInfo(Q.Name));

    unsigned Answered = 0;
    for (unsigned Step = 0; Step != Config.NumRestaurants; ++Step) {
      const std::string &Name = M.queries()[Order[Step]].Name;
      anosy::Result<bool> Res = Tracker.downgrade(Secret, Name);
      if (!Res)
        break; // policy violation: the instance terminates (§6.2)
      ++Answered;
      ++Out.Survivors[Step];
    }
    Out.AnsweredPerInstance.push_back(Answered);
  }
  return Out;
}
