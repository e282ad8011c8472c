//===- Workloads.h - The benchmark's two workloads --------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// awfy_eval and service_fleet (see README.md for what one op
/// is and why each workload exists). Every workload drives the library
/// only through its public functions, one closed-loop caller thread, and
/// derives every input it hands the program from the workload seed.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PERFBENCH_WORKLOADS_H
#define NIMG_PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include <memory>
#include <string>

namespace perfbench {

/// State shared by a workload and the pass loop in main.cpp.
struct Context {
  uint64_t Seed = 1;
  /// Traced run: spans around every library call, plus the stage-by-stage
  /// decomposition of buildNativeImage / collectProfiles /
  /// collectProfileSet with its size checks.
  bool Traced = false;
  const Expectations *Expect = nullptr;
  Tracer Trace;
  PassRecord *Pass = nullptr;

  /// Inside a decomposition: traced, but not counted (counts describe the
  /// workload's own calls, identically in traced and untraced runs).
  bool Decomposing = false;

  /// Runs \p Fn inside a span named \p Name (traced runs only).
  template <typename Fn> auto layer(const char *Name, Fn &&F) -> decltype(F()) {
    struct Closer {
      Tracer *T;
      int32_t Idx;
      ~Closer() {
        if (T)
          T->end(Idx);
      }
    };
    Closer C{Traced ? &Trace : nullptr,
             Traced ? Trace.begin(Name, CurOp) : -1};
    return F();
  }

  void count(const char *Key, double V) {
    if (!Decomposing)
      Pass->Counts[Key] += V;
  }

  /// Starts a timed op; returns its index in Pass->Ops.
  size_t beginOp(const std::string &Label);
  void endOp(size_t Idx);
  /// Records a failure against op \p Idx (npos = a pass-level failure,
  /// which counts as one more attempted and failed op).
  void fail(size_t Idx, const std::string &Why);
  /// Failure against the op in progress (or pass level when none is).
  void fail(const std::string &Why) { fail(OpIdx, Why); }

  /// Op id stamped on spans: 0 outside ops.
  uint32_t CurOp = 0;
  size_t OpIdx = std::string::npos;

private:
  uint32_t NextOp = 1;
  double OpStart = 0;
  int32_t OpSpan = -1;
};

/// RAII scope for model-only side work; its time is excluded from the
/// pass wall time. Side work calls the library directly, not through the
/// layer helpers, so it is neither traced nor counted.
class SideWork {
public:
  explicit SideWork(Context &C);
  ~SideWork();
  SideWork(const SideWork &) = delete;
  SideWork &operator=(const SideWork &) = delete;

private:
  Context &C;
  double Start;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Generates the workload's program specs and runs one warm-up op
  /// (into a throwaway pass record).
  virtual void setup(Context &C) = 0;
  /// One timed pass over the workload's fixed, seed-derived op list.
  virtual void pass(Context &C) = 0;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

/// Prints the expected-output table line of every AWFY program and
/// microservice (baseline build, build seed 1).
int dumpOutputs();

} // namespace perfbench

#endif // NIMG_PERFBENCH_WORKLOADS_H
