//===- bench/table1_exact_indsets.cpp - Reproduces Table 1 ----------------===//
//
// Table 1: "Number of fields in the secret, and size of the precise ind.
// sets x/y for our benchmarks". The precise sizes are computed with the
// exact branch-and-bound model counter; the paper's reported values are
// printed alongside for comparison (B1/B3 are pinned exactly; B2/B4/B5
// use reconstructed bounds, see EXPERIMENTS.md).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Table.h"

using namespace anosy;

int main() {
  std::printf("Table 1: size of the precise ind. sets (True / False)\n\n");

  const char *PaperSizes[] = {
      "259 / 13246",        // B1
      "1.01e+06 / 2.43e+07", // B2
      "4 / 884",             // B3
      "1.37e+10 / 2.81e+13", // B4
      "2160 / 6.72e+06",     // B5
  };

  TextTable T;
  T.setHeader({"#", "Name", "No. of fields", "Size of ind. sets",
               "(paper)"});
  size_t Row = 0;
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    Stopwatch W;
    ExactSizes E = exactIndSetSizes(P);
    double Secs = W.seconds();
    T.addRow({P.Id, P.Name, std::to_string(P.M.schema().arity()),
              sizePair(E.TrueSize, E.FalseSize), PaperSizes[Row]});
    std::fprintf(stderr, "[%s counted exactly in %.3fs]\n", P.Id.c_str(),
                 Secs);
    ++Row;
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("B1 and B3 match the paper exactly (their encodings are "
              "pinned by Table 1);\nB2/B4/B5 use reconstructed secret "
              "bounds and match in order of magnitude.\n");
  return 0;
}
