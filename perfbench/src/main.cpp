//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// anosy_perfbench --workload <fig6-monitor|anosyd-mix>
//                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload, checks its outputs, writes a detail report (and, when
// traced, a Chrome trace) into --out-dir, and prints as its last stdout
// line {"correct", "attempted", "failed", "metrics"}. Exits 0 when every
// check passed, 1 when a check failed, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Obs.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace perfbench;

namespace {

bool parseUnsigned(const char *Text, uint64_t &Out) {
  if (Text == nullptr || *Text == '\0')
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno != 0 || *End != '\0' || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "anosy_perfbench: %s\nusage: anosy_perfbench --workload "
               "<fig6-monitor|anosyd-mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  for (int I = 1; I < Argc; ++I) {
    const char *Flag = Argv[I];
    const char *Val = I + 1 < Argc ? Argv[I + 1] : nullptr;
    uint64_t N = 0;
    if (std::strcmp(Flag, "--workload") == 0 && Val != nullptr) {
      A.Workload = Val;
    } else if (std::strcmp(Flag, "--seed") == 0 && parseUnsigned(Val, N)) {
      A.Seed = N;
    } else if (std::strcmp(Flag, "--seconds") == 0 && parseUnsigned(Val, N) &&
               N >= 1 && N <= 120) {
      A.Seconds = static_cast<double>(N);
    } else if (std::strcmp(Flag, "--trace") == 0 && parseUnsigned(Val, N) &&
               N <= 1) {
      A.Trace = N == 1;
    } else if (std::strcmp(Flag, "--out-dir") == 0 && Val != nullptr) {
      A.OutDir = Val;
    } else {
      return usage((std::string("bad argument: ") + Flag).c_str());
    }
    ++I;
  }

  // The program's own instrumentation stays off in every run; the traced
  // run records the benchmark's spans into its own recorder.
  anosy::obs::setEnabled(false);

  RunResult R;
  if (A.Workload == "fig6-monitor")
    R = runFig6Monitor(A);
  else if (A.Workload == "anosyd-mix")
    R = runAnosydMix(A);
  else
    return usage("unknown workload");

  std::string Detail = renderDetail(R, A);
  std::string DetailPath = A.OutDir + "/detail-" + A.Workload +
                           (A.Trace ? "-traced" : "") + ".json";
  std::ofstream(DetailPath, std::ios::trunc) << Detail << "\n";
  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", P.c_str());
  std::printf("# detail %s\n%s\n", Detail.c_str(),
              renderResultLine(R).c_str());
  std::fflush(stdout);
  return R.Correct ? 0 : 1;
}
