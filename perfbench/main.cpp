//===- main.cpp - Entry point of the repository benchmark -----------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Usage:
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --expected FILE [--spans-out FILE]
//   perfbench --dump-outputs
//
// Pins the library's thread pool to one job, sets the workload up nine
// times (setup_s is the median), then runs timed passes until the next one
// would overrun --seconds (at least one). Every time metric is adjusted
// for the host's speed at the moment it was measured (see ProbeRefUs).
// A traced run (--trace 1) first runs one untraced pass as its overhead
// reference, then traced passes. The last stdout line is one JSON record;
// run.py turns it into the benchmark's result line. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "src/support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

/// Host-speed adjustment. On a shared host the same pass ran up to twice
/// as slow from one minute to the next, in user time, and a slow spell
/// could last a whole run. hostProbeUs() slows down with it, so every set-up
/// and pass is followed by ProbeShotsPerPass probe shots (every op by one
/// more), and a time is divided by the median shot of its own set-up or
/// pass over ProbeRefUs, the median shot on the unloaded 4-core
/// development host. Reported times are thus seconds at that host's
/// unloaded speed. Both constants are part of the metric definitions:
/// changing them rescales every time metric.
constexpr int ProbeShotsPerPass = 10;
constexpr double ProbeRefUs = 850;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double geomean(const std::vector<double> &V) {
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return V.empty() ? 0 : std::exp(L / double(V.size()));
}

double cpuSec() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

/// The highest percentile with at least ten samples beyond it
/// (nearest rank), with the number of samples beyond it. With fewer than
/// eleven samples it is the maximum, with zero beyond.
struct Tail {
  double Value = 0;
  double Percentile = 100;
  size_t Beyond = 0;
};

Tail tailOf(std::vector<double> V) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  size_t K = N >= 11 ? N - 11 : N - 1;
  T.Value = V[K];
  T.Percentile = 100.0 * double(K + 1) / double(N);
  T.Beyond = N - 1 - K;
  return T;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\', Out += C;
    else if (C == '\n')
      Out += "\\n";
    else if (uint8_t(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

/// A non-finite value (only possible after a failed op, which already
/// makes the run incorrect) is written as 0 so the record stays numeric.
std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

struct Args {
  std::string Workload, Expected, SpansOut;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Dump = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--dump-outputs") {
      A.Dump = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--expected")
      A.Expected = V;
    else if (K == "--spans-out")
      A.SpansOut = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return A.Dump ||
         (!A.Workload.empty() && !A.Expected.empty() && A.Seconds > 0);
}

/// Seconds spent in the outermost decomposition spans of spans [From, To).
double decompositionSec(const std::vector<Span> &Spans, size_t From,
                        size_t To) {
  auto IsDecompose = [](const char *N) {
    return std::strncmp(N, "decompose.", 10) == 0;
  };
  double Sec = 0;
  for (size_t I = From; I < To; ++I)
    if (IsDecompose(Spans[I].Name) &&
        (Spans[I].Parent < 0 || !IsDecompose(Spans[Spans[I].Parent].Name)))
      Sec += Spans[I].End - Spans[I].Start;
  return Sec;
}

/// Seconds covered by the children of spans named \p Parent, skipping
/// children whose name is in \p Skip.
double childSec(const std::vector<Span> &Spans, const char *Parent,
                std::initializer_list<const char *> Skip = {}) {
  double Sec = 0;
  for (const Span &S : Spans) {
    if (S.Parent < 0 || std::strcmp(Spans[S.Parent].Name, Parent) != 0)
      continue;
    bool Skipped = false;
    for (const char *N : Skip)
      Skipped |= std::strcmp(S.Name, N) == 0;
    if (!Skipped)
      Sec += S.End - S.Start;
  }
  return Sec;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --expected FILE "
                 "[--spans-out FILE]\n       perfbench --dump-outputs\n");
    return 2;
  }
  if (A.Dump)
    return dumpOutputs();

  Expectations Expect;
  std::string Error;
  if (!Expect.load(A.Expected, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 2;
  }
  std::unique_ptr<Workload> WL = makeWorkload(A.Workload);
  if (!WL) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 A.Workload.c_str());
    return 2;
  }

  Context C;
  C.Seed = A.Seed;
  C.Expect = &Expect;

  // One job: on a shared host, pool workers wait on whichever core a
  // neighbour holds, which adds scheduler noise to every timing.
  nimg::setJobs(1);

  // The host's slowness right now: median probe shot over the reference.
  auto Slowness = [](std::vector<double> &Shots) {
    for (int I = 0; I < ProbeShotsPerPass; ++I)
      Shots.push_back(hostProbeUs());
    return median(Shots) / ProbeRefUs;
  };

  // Set-up: spec generation plus one warm-up op, nine times.
  PassRecord SetupPass;
  std::vector<double> SetupSec, SetupSlow;
  for (int R = 0; R < 9; ++R) {
    C.Pass = &SetupPass;
    double T = nowSec(), Side = SetupPass.SideSec;
    WL->setup(C);
    SetupSec.push_back(nowSec() - T - (SetupPass.SideSec - Side));
    std::vector<double> Shots;
    SetupSlow.push_back(Slowness(Shots));
  }

  // Timed passes.
  std::vector<PassRecord> Passes;
  std::vector<bool> PassTraced;
  std::vector<size_t> SpanMark;
  double Deadline = nowSec() + A.Seconds;
  double LastSec = 0;
  auto RunPass = [&](bool Traced) {
    Passes.emplace_back();
    PassTraced.push_back(Traced);
    SpanMark.push_back(C.Trace.spans().size());
    PassRecord &P = Passes.back();
    C.Pass = &P;
    C.Traced = Traced;
    double Cpu = cpuSec(), T = nowSec();
    WL->pass(C);
    LastSec = nowSec() - T;
    P.WallSec = LastSec - P.SideSec;
    P.CpuSec = cpuSec() - Cpu;
    P.Slow = Slowness(P.ProbeUs);
    std::fprintf(stderr, "perfbench: %s pass %zu%s: %.3f s (+%.3f s model)\n",
                 A.Workload.c_str(), Passes.size(), Traced ? " traced" : "",
                 P.WallSec, P.SideSec);
  };
  if (A.Trace)
    RunPass(false); // Overhead reference.
  do
    RunPass(A.Trace);
  while (nowSec() + LastSec <= Deadline);
  SpanMark.push_back(C.Trace.spans().size());

  // Failures and the in-run determinism self-check.
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  auto Tally = [&](const PassRecord &P) {
    for (const OpRecord &O : P.Ops) {
      ++Attempted;
      if (O.Failures.empty())
        continue;
      ++Failed;
      for (const std::string &F : O.Failures)
        Failures.push_back(O.Label + ": " + F);
    }
  };
  Tally(SetupPass);
  for (const PassRecord &P : Passes)
    Tally(P);
  const PassRecord &Last = Passes.back();
  for (size_t I = 0; I < Passes.size(); ++I) {
    const PassRecord &P = Passes[I];
    bool Same = P.Model.size() == Last.Model.size();
    for (size_t R = 0; Same && R < P.Model.size(); ++R) {
      const PassRecord::ModelRow &X = P.Model[R], &Y = Last.Model[R];
      Same = X.Program == Y.Program && X.StartupNs == Y.StartupNs &&
             X.BaselineNs == Y.BaselineNs && X.Majors == Y.Majors &&
             X.ImageBytes == Y.ImageBytes && X.FleetP99Ns == Y.FleetP99Ns;
    }
    if (PassTraced[I] == PassTraced.back())
      Same = Same && P.Counts == Last.Counts;
    if (!Same) {
      ++Attempted, ++Failed;
      Failures.push_back("pass " + std::to_string(I + 1) +
                         ": model numbers or layer counts differ from pass " +
                         std::to_string(Passes.size()) +
                         " (nondeterminism)");
    }
  }
  for (size_t I = 0; I < Failures.size() && I < 20; ++I)
    std::fprintf(stderr, "perfbench: FAIL %s\n", Failures[I].c_str());

  // Model numbers (deterministic for a given code and seed).
  std::vector<double> Startup, Speedup, Kb, P99;
  double Majors = 0;
  for (const PassRecord::ModelRow &R : Last.Model) {
    Startup.push_back(R.StartupNs);
    Speedup.push_back(R.BaselineNs / R.StartupNs);
    Kb.push_back(double(R.ImageBytes) / 1024);
    P99.push_back(R.FleetP99Ns);
    Majors += double(R.Majors);
  }

  std::vector<double> OpMs;
  for (size_t I = 0; I < Passes.size(); ++I)
    if (PassTraced[I] == A.Trace)
      for (const OpRecord &O : Passes[I].Ops)
        if (O.Ms >= 0)
          OpMs.push_back(O.Ms / Passes[I].Slow);
  Tail T = tailOf(OpMs);
  rusage U;
  getrusage(RUSAGE_SELF, &U);

  std::vector<Metric> Metrics;
  size_t Measured = 0;
  if (!A.Trace) {
    std::vector<double> Wall, Setup;
    for (const PassRecord &P : Passes)
      Wall.push_back(P.WallSec / P.Slow);
    for (size_t I = 0; I < SetupSec.size(); ++I)
      Setup.push_back(SetupSec[I] / SetupSlow[I]);
    Measured = Passes.size();
    Metrics = {
        {"setup_s", median(Setup), "s"},
        {"wall_s", median(Wall), "s"},
        {"op_ms_p50", median(OpMs), "ms"},
        {"op_ms_tail", T.Value, "ms"},
        {"peak_rss_mb", double(U.ru_maxrss) / 1024, "MB"},
        {"ok_share", double(Attempted - Failed) / double(Attempted), "ratio"},
        {"model.startup_ms", geomean(Startup) / 1e6, "ms"},
        {"model.speedup", geomean(Speedup), "x"},
        {"model.major_faults", Majors, "count"},
        {"model.image_kb", geomean(Kb), "KiB"},
        {"model.fleet_p99_ms", geomean(P99) / 1e6, "ms"},
    };
  } else {
    // Per-layer numbers, per traced pass.
    const std::vector<Span> &Spans = C.Trace.spans();
    std::map<std::string, double> Self, Total, Counts;
    C.Trace.selfTimes(Self, Total);
    std::vector<double> Overhead;
    const PassRecord &Ref = Passes.front();
    for (size_t I = 1; I < Passes.size(); ++I) {
      ++Measured;
      for (const auto &[K, V] : Passes[I].Counts)
        Counts[K] += V;
      Overhead.push_back(
          (Passes[I].WallSec -
           decompositionSec(Spans, SpanMark[I], SpanMark[I + 1])) /
          Ref.WallSec);
    }
    double N = double(Measured);
    auto Ms = [&](const char *Name) { return Self[Name] * 1e3 / N; };
    auto Cnt = [&](const char *Name) { return Counts[Name] / N; };
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
    double BuildUnattr = Total["core.build"] + Total["decompose.instr_build"] -
                         childSec(Spans, "decompose.build");
    double CollectUnattr =
        Total["core.collect"] -
        childSec(Spans, "decompose.collect",
                 {"profiling.salvage", "decompose.build"});
    Metrics = {
        {"lang.compile_ms", Ms("lang.compile"), "ms"},
        {"lang.compiles", Cnt("lang.compiles"), "count"},
        {"compiler.reachability_ms", Ms("compiler.reachability"), "ms"},
        {"compiler.cu_formation_ms", Ms("compiler.cu_formation"), "ms"},
        {"compiler.cus", Cnt("compiler.cus"), "count"},
        {"compiler.split_ms", Ms("compiler.split"), "ms"},
        {"compiler.split_cus", Cnt("compiler.split_cus"), "count"},
        {"heap.clinit_ms", Ms("heap.clinit"), "ms"},
        {"heap.snapshot_ms", Ms("heap.snapshot"), "ms"},
        {"heap.snapshot_objects", Cnt("heap.snapshot_objects"), "count"},
        {"ordering.id_table_ms", Ms("ordering.id_table"), "ms"},
        {"ordering.order_ms", Ms("ordering.order"), "ms"},
        {"ordering.cluster_ms", Ms("ordering.cluster"), "ms"},
        {"image.layout_ms", Ms("image.layout"), "ms"},
        {"image.serialize_ms", Ms("image.serialize"), "ms"},
        {"image.deserialize_ms", Ms("image.deserialize"), "ms"},
        {"image.kb", Cnt("image.bytes") / 1024, "KiB"},
        {"core.fingerprint_ms", Ms("core.fingerprint"), "ms"},
        {"core.fingerprint_calls", Cnt("core.fingerprint_calls"), "count"},
        {"core.build_ms", Ms("core.build"), "ms"},
        {"core.builds", Cnt("core.builds"), "count"},
        {"core.build_unattributed_ms", BuildUnattr * 1e3 / N, "ms"},
        {"core.collect_ms", Ms("core.collect"), "ms"},
        {"core.collect_unattributed_ms", CollectUnattr * 1e3 / N, "ms"},
        {"runtime.run_ms", Ms("runtime.run"), "ms"},
        {"runtime.runs", Cnt("runtime.runs"), "count"},
        {"runtime.minstr_per_s",
         Ratio(Counts["runtime.instructions"] / 1e6, Total["runtime.run"]),
         "Minstr/s"},
        {"runtime.traced_run_ms", Ms("runtime.traced_run"), "ms"},
        {"runtime.text_faults", Cnt("runtime.text_faults"), "count"},
        {"runtime.heap_faults", Cnt("runtime.heap_faults"), "count"},
        {"runtime.huge_faults", Cnt("runtime.huge_faults"), "count"},
        {"profiling.salvage_ms", Ms("profiling.salvage"), "ms"},
        {"profiling.trace_kb", Cnt("profiling.trace_bytes") / 1024, "KiB"},
        {"profiling.analyze_ms", Ms("profiling.analyze"), "ms"},
        {"profiling.csv_ms", Ms("profiling.csv"), "ms"},
        {"profiling.merge_ms", Ms("profiling.merge"), "ms"},
        {"profiling.members_usable_ratio",
         Ratio(Counts["profiling.members_usable"], Counts["profiling.members"]),
         "ratio"},
        {"profiling.quarantined", Cnt("profiling.quarantined"), "count"},
        {"fleet.replay_ms", Ms("fleet.replay"), "ms"},
        {"fleet.instances_per_s",
         Ratio(Counts["fleet.instances"], Total["fleet.replay"]), "1/s"},
        {"fleet.warm_hit_ratio",
         Ratio(Counts["fleet.warm_hits"], Counts["fleet.classified"]),
         "ratio"},
        {"fleet.evictions", Cnt("fleet.evictions"), "count"},
        {"process.cpu_s", Ref.CpuSec, "s"},
        {"process.cpu_util", Ratio(Ref.CpuSec, Ref.WallSec + Ref.SideSec),
         "ratio"},
        {"trace.overhead_ratio", median(Overhead), "ratio"},
    };
    if (!A.SpansOut.empty() && !C.Trace.write(A.SpansOut))
      std::fprintf(stderr, "perfbench: cannot write %s\n", A.SpansOut.c_str());
  }

  // The record: result fields, metrics, provenance, model rows.
  std::string Out = "{\"correct\": ";
  Out += Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Metrics[I].Name) + ": {\"value\": " +
           jsonNumber(Metrics[I].Value) +
           ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  Out += "}, \"provenance\": {";
  Out += "\"workload\": " + jsonString(A.Workload);
  Out += ", \"seed\": " + std::to_string(A.Seed);
  Out += ", \"traced\": " + std::string(A.Trace ? "true" : "false");
  Out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  Out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  Out += ", \"jobs\": " + std::to_string(nimg::currentJobs());
  Out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
  Out += ", \"compiler\": " + jsonString(PERFBENCH_COMPILER);
  Out += ", \"closed_loop_callers\": 1";
  Out += ", \"passes\": " + std::to_string(Measured);
  Out += ", \"ops_timed\": " + std::to_string(OpMs.size());
  Out += ", \"op_tail_percentile\": " + jsonNumber(T.Percentile);
  Out += ", \"op_tail_samples_beyond\": " + std::to_string(T.Beyond);
  Out += ", \"setup_s_samples\": [";
  for (size_t I = 0; I < SetupSec.size(); ++I)
    Out += (I ? ", " : "") + jsonNumber(SetupSec[I]);
  Out += "]}, \"model_rows\": [";
  for (size_t I = 0; I < Last.Model.size(); ++I) {
    const PassRecord::ModelRow &R = Last.Model[I];
    Out += (I ? ", " : "") + std::string("{\"program\": ") +
           jsonString(R.Program) +
           ", \"startup_ns\": " + jsonNumber(R.StartupNs) +
           ", \"baseline_ns\": " + jsonNumber(R.BaselineNs) +
           ", \"majors\": " + std::to_string(R.Majors) +
           ", \"image_bytes\": " + std::to_string(R.ImageBytes) +
           ", \"fleet_p99_ns\": " + jsonNumber(R.FleetP99Ns) + "}";
  }
  Out += "], \"counts\": {";
  size_t I = 0;
  for (const auto &[K, V] : Last.Counts)
    Out += (I++ ? ", " : "") + jsonString(K) + ": " + jsonNumber(V);
  Out += "}, \"probe_ref_us\": " + jsonNumber(ProbeRefUs);
  Out += ", \"setup_slowness\": [";
  for (size_t I = 0; I < SetupSlow.size(); ++I)
    Out += (I ? ", " : "") + jsonNumber(SetupSlow[I]);
  Out += "], \"pass_slowness\": [";
  for (size_t I = 0; I < Passes.size(); ++I)
    Out += (I ? ", " : "") + jsonNumber(Passes[I].Slow);
  Out += "], \"pass_wall_s\": [";
  for (size_t I = 0; I < Passes.size(); ++I)
    Out += (I ? ", " : "") + jsonNumber(Passes[I].WallSec);
  Out += "], \"failures\": [";
  for (size_t F = 0; F < Failures.size() && F < 20; ++F)
    Out += (F ? ", " : "") + jsonString(Failures[F]);
  Out += "]}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
