//===- compile/CompiledEval.cpp - Which queries compile to tapes ----------===//

#include "compile/CompiledEval.h"

#include "obs/Instrument.h"

#include <chrono>

using namespace anosy;

TapeRef anosy::getOrCompileTape(const ExprRef &E) {
  if (!E || E->treeSize() < MinCompileTreeSize)
    return nullptr;
  const auto Start = std::chrono::steady_clock::now();
  ANOSY_OBS_SPAN(Span, "anosy.tape.compile");
  TapeRef T = Tape::compile(*E);
  if (!T)
    return nullptr;
  const double Us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
  ANOSY_OBS_SPAN_ARG(Span, "tape_len", static_cast<int64_t>(T->length()));
  ANOSY_OBS_SPAN_ARG(Span, "compile_us", Us);
  ANOSY_OBS_COUNT("anosy_tape_compiles_total",
                  "Queries compiled to interval-eval tapes", 1);
  ANOSY_OBS_OBSERVE_SECONDS("anosy_tape_compile_seconds",
                            "Wall time compiling queries to tapes", Us / 1e6);
  return T;
}
