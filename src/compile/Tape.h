//===- compile/Tape.h - Compiled query bytecode -----------------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled form of a query: a flat register bytecode ("tape") plus
/// the interpreter that executes it. Abstract interval evaluation of the
/// query AST is the inner loop of branch-and-bound, the exact model
/// counter, and the lint refiner; tree-walking `anosy/expr` nodes pays a
/// virtual-free but pointer-chasing, allocation-adjacent price per node.
/// Compiling once to a contiguous instruction array and dispatching in a
/// tight loop removes the pointer chasing.
///
/// The tape is a register machine with two register files — Interval
/// registers for integer-sorted subterms and Tribool registers for
/// boolean-sorted ones. The compiler allocates registers with stack
/// discipline (operand depth = register index), so register counts equal
/// the expression's operand-stack depth and stay tiny. `and`/`or`/
/// `implies`/`ite` compile with forward short-circuit jumps. A skipped
/// side leaves a stale register behind, which is sound because every op
/// is total and Kleene: once a connective's left-hand side decides the
/// result, the right-hand side's value — fresh or stale — cannot change
/// it, and `Sel` reads only the taken arm when the condition is decided.
///
/// The interpreter produces results bit-identical to the tree-walking
/// `evalRange`/`evalTribool` (they share the scalar kernel in
/// domains/IntervalArith.h); the tree walk stays the differential oracle
/// (tests/compile/TapeDifferentialTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_COMPILE_TAPE_H
#define ANOSY_COMPILE_TAPE_H

#include "domains/Box.h"
#include "domains/Interval.h"
#include "expr/Expr.h"
#include "support/Tribool.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace anosy {

/// Tape opcodes. Interval-register ops first, Tribool-register ops after.
enum class TapeOp : uint8_t {
  // Interval destination.
  LoadConst, ///< int[Dst] = point(pool[Imm])
  LoadField, ///< int[Dst] = box dimension Imm
  NegI,      ///< int[Dst] = -int[A]             (saturating)
  AddI,      ///< int[Dst] = int[A] + int[B]     (saturating)
  SubI,      ///< int[Dst] = int[A] - int[B]     (saturating)
  MulI,      ///< int[Dst] = int[A] * int[B]     (saturating)
  AbsI,      ///< int[Dst] = |int[A]|            (saturating)
  MinI,      ///< int[Dst] = min(int[A], int[B])
  MaxI,      ///< int[Dst] = max(int[A], int[B])
  Sel,       ///< int[Dst] = select(tri[Imm], int[A], int[B]): the taken
             ///< arm when decided, the hull of both when Unknown
  // Tribool destination.
  LoadBool, ///< tri[Dst] = Imm != 0
  CmpII,    ///< tri[Dst] = cmp(CmpOp(Imm), int[A], int[B]) three-valued
  NotB,     ///< tri[Dst] = ¬tri[A]
  AndB,     ///< tri[Dst] = tri[A] ∧ tri[B]      (Kleene)
  OrB,      ///< tri[Dst] = tri[A] ∨ tri[B]      (Kleene)
  // Control.
  JmpIfFalse, ///< if tri[A] == False: pc = Imm
  JmpIfTrue,  ///< if tri[A] == True:  pc = Imm
};

/// One fixed-width tape instruction. 12 bytes, no pointers: a compiled
/// query is a contiguous, cache-resident array of these.
struct TapeInsn {
  TapeOp Op;
  uint16_t Dst; ///< Destination register (file selected by the opcode).
  uint16_t A;   ///< First source register.
  uint16_t B;   ///< Second source register.
  int32_t Imm;  ///< Constant-pool index, field index, CmpOp, condition
                ///< register (Sel), boolean value, or jump target.
};

/// Reusable per-thread evaluation scratch: the interpreter's register
/// files. Grow-only, so steady-state runs allocate nothing.
struct TapeScratch {
  std::vector<Interval> IntRegs;
  std::vector<Tribool> BoolRegs;
};

class Tape;
using TapeRef = std::shared_ptr<const Tape>;

/// A compiled query. Immutable after compilation; safe to share across
/// threads (each thread brings its own TapeScratch).
class Tape {
public:
  /// Compiles \p E (either sort) to a tape. Returns nullptr when the
  /// expression is too deep for the 16-bit register file — callers fall
  /// back to the tree walk.
  static TapeRef compile(const Expr &E);

  /// Three-valued result over the non-empty box \p B. Requires a tape
  /// compiled from a boolean-sorted expression. Bit-identical to
  /// `evalTribool` on the source expression.
  Tribool run(const Box &B, TapeScratch &S) const;

  /// Interval result over the non-empty box \p B. Requires a tape
  /// compiled from an integer-sorted expression. Bit-identical to
  /// `evalRange` on the source expression.
  Interval runRange(const Box &B, TapeScratch &S) const;

  bool resultIsBool() const { return ResultIsBool; }
  size_t length() const { return Insns.size(); }
  size_t numIntRegs() const { return NumIntRegs; }
  size_t numBoolRegs() const { return NumBoolRegs; }
  size_t numConsts() const { return Pool.size(); }

  /// Disassembles the tape, one instruction per line (tests/debugging).
  std::string str() const;

private:
  friend class TapeCompiler;
  Tape() = default;

  std::vector<TapeInsn> Insns;
  std::vector<int64_t> Pool; ///< Constant pool (LoadConst immediates).
  uint32_t NumIntRegs = 0;
  uint32_t NumBoolRegs = 0;
  bool ResultIsBool = false;
};

} // namespace anosy

#endif // ANOSY_COMPILE_TAPE_H
