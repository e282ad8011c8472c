//===- Harness.h - Timing, tracing and checks of the benchmark --*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement core shared by the workloads: a pass record
/// (op latencies, failures, deterministic counts and model numbers), an
/// in-memory span tracer for the traced run, and the expected-output
/// table every program run is checked against.
///
/// All timing uses std::chrono::steady_clock. Spans are recorded only in
/// the traced run, around the benchmark's own calls into the library's
/// public functions; the untraced runs only time ops and passes.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PERFBENCH_HARNESS_H
#define NIMG_PERFBENCH_HARNESS_H

#include "src/runtime/ExecEngine.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double nowSec();

/// Microseconds one shot of the host probe takes: a fixed mix of
/// switch-dispatched bytecode, sorting and hash-table lookups, written
/// here and independent of the library, so its time moves only with how
/// fast the host runs this kind of code at the moment.
double hostProbeUs();

/// One closed span: [Start, End) in seconds, its parent (-1 = none) and
/// the op it belongs to (0 = pass-level work outside any op).
struct Span {
  const char *Name = "";
  uint32_t Op = 0;
  int32_t Parent = -1;
  double Start = 0;
  double End = 0;
};

/// Keeps every span of the traced run in memory; written out at the end.
class Tracer {
public:
  int32_t begin(const char *Name, uint32_t Op);
  void end(int32_t Idx);
  const std::vector<Span> &spans() const { return Spans; }
  /// Self time (duration minus the part covered by child spans) summed
  /// per span name, plus the total duration per name.
  void selfTimes(std::map<std::string, double> &SelfSec,
                 std::map<std::string, double> &TotalSec) const;
  /// Writes the spans as a JSON array to \p Path; false on I/O error.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// Per-op outcome.
struct OpRecord {
  std::string Label;
  double Ms = 0;
  std::vector<std::string> Failures;
};

/// Everything one pass over a workload produced.
struct PassRecord {
  double WallSec = 0;    ///< Pass time minus side work.
  double SideSec = 0;    ///< Model-only side work and probe shots.
  double CpuSec = 0;     ///< Process CPU over the pass (incl. side work).
  std::vector<double> ProbeUs; ///< hostProbeUs() shots during the pass.
  double Slow = 1;       ///< Median shot ÷ the unloaded reference.
  std::vector<OpRecord> Ops;
  /// Deterministic per-pass counts (layer sizes, faults, quarantines,
  /// instructions run, fleet instances simulated).
  std::map<std::string, double> Counts;
  /// Per-program modeled startup rows; the model.* metrics derive from
  /// these and must repeat exactly for the same code and seed.
  struct ModelRow {
    std::string Program;
    double StartupNs = 0;    ///< Optimized image (first response: services).
    double BaselineNs = 0;   ///< Baseline layout, same build seed.
    uint64_t Majors = 0;     ///< Optimized image, .text + .svm_heap.
    uint64_t ImageBytes = 0; ///< Optimized image.
    double FleetP99Ns = 0;   ///< N=100, storm arrivals, unlimited cache.
  };
  std::vector<ModelRow> Model;
};

/// Expected program output: either a substring that must appear (known
/// results) or the whole output (recorded baseline output).
struct Expectation {
  bool Whole = false;
  std::string Text;
};

class Expectations {
public:
  /// Loads the tab-separated table; false (with \p Error) on a bad file.
  bool load(const std::string &Path, std::string &Error);
  /// Empty when \p Output is what \p Program must print; else why not.
  std::string check(const std::string &Program,
                    const std::string &Output) const;
  /// The table line recording \p Output as \p Program's whole output.
  static std::string recordLine(const std::string &Program,
                                const std::string &Output);

private:
  std::map<std::string, Expectation> Table;
};

/// Why a run of a program image is not a success (empty = success):
/// trap, fuel exhaustion, missing response, or unexpected output.
std::string runProblem(const Expectations &E, const std::string &Program,
                       bool Microservice, const nimg::RunStats &S);

/// Modeled startup: end-to-end time, or time to first response for a
/// microservice (the paper's Sec. 7.1 convention).
double startupNs(const nimg::RunStats &S, bool Microservice);

/// Empty when \p A and \p B describe the same run (faults, instructions,
/// modeled time, output); else the first difference.
std::string sameRun(const nimg::RunStats &A, const nimg::RunStats &B);

} // namespace perfbench

#endif // NIMG_PERFBENCH_HARNESS_H
