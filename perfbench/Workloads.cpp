//===- Workloads.cpp - The benchmark's two workloads ----------------------===//
//
// Every call into the library goes through a helper below that times it
// as one layer span (traced run), counts what it produced, and — in the
// traced run — re-runs the stages of a composite call on the same inputs
// and checks that they produce the same sizes.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "src/compiler/Inliner.h"
#include "src/compiler/Reachability.h"
#include "src/compiler/Splitter.h"
#include "src/core/Builder.h"
#include "src/fleet/FleetSim.h"
#include "src/heap/BuildHeap.h"
#include "src/heap/Snapshot.h"
#include "src/image/ImageFile.h"
#include "src/image/ImageLayout.h"
#include "src/ordering/ClusterLayout.h"
#include "src/ordering/IdStrategies.h"
#include "src/ordering/Orderers.h"
#include "src/profiling/Aggregate.h"
#include "src/profiling/TraceSalvage.h"
#include "src/support/SplitMix64.h"
#include "src/workloads/Workloads.h"

#include <cstdio>
#include <sstream>

using namespace nimg;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Context
//===----------------------------------------------------------------------===//

size_t Context::beginOp(const std::string &Label) {
  OpRecord R;
  R.Label = Label;
  Pass->Ops.push_back(std::move(R));
  OpIdx = Pass->Ops.size() - 1;
  CurOp = NextOp++;
  OpSpan = Traced ? Trace.begin("op", CurOp) : -1;
  OpStart = nowSec();
  return OpIdx;
}

void Context::endOp(size_t Idx) {
  Pass->Ops[Idx].Ms = (nowSec() - OpStart) * 1e3;
  if (OpSpan >= 0)
    Trace.end(OpSpan);
  OpSpan = -1;
  CurOp = 0;
  OpIdx = std::string::npos;
  double T = nowSec();
  Pass->ProbeUs.push_back(hostProbeUs());
  Pass->SideSec += nowSec() - T;
}

void Context::fail(size_t Idx, const std::string &Why) {
  if (Idx == std::string::npos) {
    OpRecord R;
    R.Label = "pass-level";
    R.Ms = -1; // Not an op latency.
    R.Failures.push_back(Why);
    Pass->Ops.push_back(std::move(R));
    return;
  }
  Pass->Ops[Idx].Failures.push_back(Why);
}

SideWork::SideWork(Context &C) : C(C), Start(nowSec()) {}

SideWork::~SideWork() { C.Pass->SideSec += nowSec() - Start; }

namespace {

//===----------------------------------------------------------------------===//
// Library calls, one layer each
//===----------------------------------------------------------------------===//

RunConfig runConfigFor(const BenchmarkSpec &Spec) {
  RunConfig RC;
  RC.StopAtFirstResponse = Spec.Microservice;
  return RC;
}

std::unique_ptr<Program> compile(Context &C, const BenchmarkSpec &Spec) {
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P =
      C.layer("lang.compile", [&] { return compileBenchmark(Spec, Errors); });
  C.count("lang.compiles", 1);
  if (!P)
    C.fail(Spec.Name + " failed to compile: " +
           (Errors.empty() ? std::string("?") : Errors.front()));
  return P;
}

uint64_t fingerprint(Context &C, const Program &P) {
  // Counted in decompositions too: they mirror real calls.
  C.Pass->Counts["core.fingerprint_calls"] += 1;
  return C.layer("core.fingerprint", [&] { return programFingerprint(P); });
}

/// Re-runs buildNativeImage's stages on the same inputs (traced run) and
/// checks that they reproduce the image's sizes. Mirrors the stage
/// sequence of src/core/Builder.cpp; profiles are offered exactly when
/// the build applied them.
void decomposeBuild(Context &C, Program &P, const BuildConfig &Cfg,
                    const NativeImage &Img) {
  bool Nested = C.Decomposing; // Inside a collect decomposition.
  C.Decomposing = true;
  C.layer("decompose.build", [&] {
    fingerprint(C, P);
    ReachabilityResult Reach = C.layer("compiler.reachability", [&] {
      return analyzeReachability(P, Cfg.Reach);
    });
    CompiledProgram Code = C.layer("compiler.cu_formation", [&] {
      return buildCompilationUnits(P, Reach, Cfg.Inliner, Cfg.Instrumented);
    });
    SplitResult Split;
    if (Cfg.Split == SplitMode::HotCold && !Cfg.Instrumented)
      Split = C.layer("compiler.split", [&] {
        return splitCompiledProgram(P, Code, Cfg.BlockProf, Cfg.SplitOpts);
      });
    std::vector<int32_t> CuOrder;
    if (Img.ProfileDiag.CodeProfileApplied && Cfg.CodeProf)
      CuOrder = C.layer("ordering.order", [&] {
        return orderCusWithProfile(P, Code, *Cfg.CodeProf, Cfg.CodeOrder);
      });
    BuildHeapResult Built = C.layer(
        "heap.clinit", [&] { return initializeBuildHeap(P, Reach, Cfg.Seed); });
    if (Built.Failed) {
      C.fail("decomposed build-time init failed: " + Built.FailureMessage);
      return;
    }
    SnapshotConfig SnapCfg;
    SnapCfg.EnablePea = Cfg.EnablePea;
    SnapCfg.PeaRate = Cfg.PeaRate;
    uint64_t InlineFp = Code.InlineFingerprint;
    if (Split.active())
      InlineFp = mix64(InlineFp, Split.DecisionFingerprint);
    SnapCfg.PeaFingerprint = mix64(InlineFp, Cfg.Seed);
    SnapCfg.CuOrder = CuOrder;
    HeapSnapshot Snap = C.layer("heap.snapshot", [&] {
      return buildSnapshot(P, *Built.BuildHeap, Built, Code, Reach, SnapCfg);
    });
    IdTable Ids = C.layer("ordering.id_table", [&] {
      return computeIdTable(P, *Built.BuildHeap, Snap, Cfg.StructuralMaxDepth);
    });
    std::vector<int32_t> ObjOrder;
    if (Img.ProfileDiag.HeapProfileApplied && Cfg.HeapProf)
      ObjOrder = C.layer("ordering.order", [&] {
        return orderObjectsWithProfile(Snap, Ids, Cfg.HeapOrder,
                                       *Cfg.HeapProf);
      });
    ImageLayout Layout = C.layer("image.layout", [&] {
      return computeImageLayout(P, Code, Snap, CuOrder, ObjOrder, Cfg.Image,
                                &Split);
    });
    std::ostringstream Why;
    if (Code.CUs.size() != Img.Code.CUs.size())
      Why << " cus " << Code.CUs.size() << "/" << Img.Code.CUs.size();
    if (Split.SplitCus != Img.Split.SplitCus)
      Why << " split " << Split.SplitCus << "/" << Img.Split.SplitCus;
    if (Snap.numStored() != Img.Snapshot.numStored())
      Why << " objects " << Snap.numStored() << "/"
          << Img.Snapshot.numStored();
    if (Layout.TextSize != Img.Layout.TextSize)
      Why << " text " << Layout.TextSize << "/" << Img.Layout.TextSize;
    if (Layout.HeapSize != Img.Layout.HeapSize)
      Why << " heap " << Layout.HeapSize << "/" << Img.Layout.HeapSize;
    if (!Why.str().empty())
      C.fail("decomposed build of " + P.method(P.MainMethod).Sig +
             " differs from buildNativeImage:" + Why.str());
  });
  C.Decomposing = Nested;
}

/// buildNativeImage as one layer span. \p Span is "core.build" for the
/// workload's own builds and "decompose.instr_build" for the profiling
/// build a collect decomposition repeats.
NativeImage build(Context &C, Program &P, const BuildConfig &Cfg,
                  const char *Span = "core.build") {
  NativeImage Img = C.layer(Span, [&] { return buildNativeImage(P, Cfg); });
  C.count("core.builds", 1);
  if (Img.Built.Failed) {
    C.fail("build failed: " + Img.Built.FailureMessage);
    return Img;
  }
  C.count("compiler.cus", double(Img.Code.CUs.size()));
  C.count("compiler.split_cus", Img.Split.SplitCus);
  C.count("heap.snapshot_objects", double(Img.Snapshot.numStored()));
  if (C.Traced)
    decomposeBuild(C, P, Cfg, Img);
  return Img;
}

RunStats run(Context &C, const NativeImage &Img, const RunConfig &RC) {
  RunStats S = C.layer("runtime.run", [&] { return runImage(Img, RC); });
  C.count("runtime.runs", 1);
  C.count("runtime.text_faults", double(S.TextFaults));
  C.count("runtime.heap_faults", double(S.HeapFaults));
  C.count("runtime.huge_faults", double(S.TextHugeFaults));
  C.count("runtime.instructions", double(S.Instructions));
  return S;
}

/// One traced capture run as collectProfiles/collectProfileSet make it,
/// followed by an explicit salvage scan of the capture.
TraceCapture tracedRun(Context &C, Program &P, const NativeImage &Img,
                       const RunConfig &RunCfg, TraceOptions TOpts,
                       PathGraphCache &Paths) {
  TOpts.Dump = RunCfg.StopAtFirstResponse ? DumpMode::MemoryMapped
                                          : DumpMode::FlushOnFull;
  TOpts.Encoding = TraceEncoding::VarintDelta;
  RunConfig RC = RunCfg;
  RC.Trace = &TOpts;
  TraceCapture Cap;
  C.layer("runtime.traced_run", [&] { return runImage(Img, RC, &Cap); });
  if (Cap.totalWords() == 0) {
    TOpts.Dump = DumpMode::MemoryMapped;
    C.layer("runtime.traced_run", [&] { return runImage(Img, RC, &Cap); });
  }
  // Only decompositions capture traces themselves: count here directly.
  C.Pass->Counts["profiling.trace_bytes"] += double(Cap.totalBytes());
  C.layer("profiling.salvage", [&] {
    SalvageStats Stats;
    return scanCapture(P, captureEncoded(Cap) ? decodeCapture(Cap) : Cap,
                       Paths, Stats);
  });
  return Cap;
}

/// Re-runs collectProfiles' instrumented-capture stages (traced run) and
/// checks the profile sizes. The ext-TSP edge analysis is left out on
/// purpose; it lands in core.collect_unattributed_ms.
void decomposeCollect(Context &C, Program &P, const BuildConfig &InstrCfg,
                      const RunConfig &RunCfg, const CollectedProfiles &Got) {
  C.Decomposing = true;
  C.layer("decompose.collect", [&] {
    BuildConfig Cfg = InstrCfg;
    Cfg.Instrumented = true;
    Cfg.CodeOrder = CodeStrategy::None;
    Cfg.UseHeapOrder = false;
    NativeImage Img = build(C, P, Cfg, "decompose.instr_build");
    if (Img.Built.Failed)
      return;
    PathGraphCache Paths(P);
    fingerprint(C, P);
    TraceOptions TOpts;
    TOpts.Mode = TraceMode::CuOrder;
    TraceCapture CuCap = tracedRun(C, P, Img, RunCfg, TOpts, Paths);
    CodeProfile Cu =
        C.layer("profiling.analyze", [&] { return analyzeCuOrder(P, CuCap); });
    CodeProfile Cluster = C.layer("ordering.cluster", [&] {
      ClusterOptions COpts;
      COpts.PageBudgetBytes = Cfg.ClusterPageBudget;
      COpts.HugePages = Cfg.Image.HugePages;
      return analyzeClusterOrder(P, CuCap, Img.Code, COpts);
    });
    TOpts.Mode = TraceMode::MethodOrder;
    TraceCapture MCap = tracedRun(C, P, Img, RunCfg, TOpts, Paths);
    CodeProfile Method = C.layer("profiling.analyze", [&] {
      return analyzeMethodOrder(P, MCap, Paths);
    });
    BlockProfile Blocks = C.layer("profiling.analyze", [&] {
      return analyzeBlockCounts(P, MCap, Paths);
    });
    TOpts.Mode = TraceMode::HeapOrder;
    TraceCapture HCap = tracedRun(C, P, Img, RunCfg, TOpts, Paths);
    HeapProfile HeapPath = C.layer("profiling.analyze", [&] {
      std::vector<int32_t> Order = analyzeHeapAccessOrder(P, HCap, Paths);
      heapProfileFor(Order, Img.Ids, HeapStrategy::IncrementalId);
      heapProfileFor(Order, Img.Ids, HeapStrategy::StructuralHash);
      return heapProfileFor(Order, Img.Ids, HeapStrategy::HeapPath);
    });
    std::ostringstream Why;
    if (Cu.Sigs.size() != Got.Cu.Sigs.size())
      Why << " cu rows " << Cu.Sigs.size() << "/" << Got.Cu.Sigs.size();
    if (Cluster.Sigs.size() != Got.Cluster.Sigs.size())
      Why << " cluster rows " << Cluster.Sigs.size() << "/"
          << Got.Cluster.Sigs.size();
    if (Method.Sigs.size() != Got.Method.Sigs.size())
      Why << " method rows " << Method.Sigs.size() << "/"
          << Got.Method.Sigs.size();
    if (Blocks.Rows.size() != Got.Blocks.Rows.size())
      Why << " block rows " << Blocks.Rows.size() << "/"
          << Got.Blocks.Rows.size();
    if (HeapPath.Ids.size() != Got.HeapPath.Ids.size())
      Why << " heap rows " << HeapPath.Ids.size() << "/"
          << Got.HeapPath.Ids.size();
    if (!Why.str().empty())
      C.fail("decomposed collectProfiles differs:" + Why.str());
  });
  C.Decomposing = false;
}

CollectedProfiles collect(Context &C, Program &P, const BuildConfig &InstrCfg,
                          const RunConfig &RC) {
  CollectedProfiles Prof = C.layer(
      "core.collect", [&] { return collectProfiles(P, InstrCfg, RC); });
  if (C.Traced)
    decomposeCollect(C, P, InstrCfg, RC, Prof);
  return Prof;
}

/// Re-runs collectProfileSet's per-member captures (traced run).
void decomposeCollectSet(Context &C, Program &P, const BuildConfig &SetCfg,
                         const RunConfig &RunCfg,
                         const std::vector<MemberProfile> &Got) {
  C.Decomposing = true;
  C.layer("decompose.collect", [&] {
    bool Sampled = SetCfg.ProfileCapture == CaptureKind::Sampled;
    BuildConfig Cfg = SetCfg;
    Cfg.Instrumented = !Sampled;
    Cfg.CodeOrder = CodeStrategy::None;
    Cfg.UseHeapOrder = false;
    NativeImage Img = build(C, P, Cfg, "decompose.instr_build");
    if (Img.Built.Failed)
      return;
    PathGraphCache Paths(P);
    fingerprint(C, P);
    std::ostringstream Why;
    for (size_t I = 0; I < Got.size(); ++I) {
      TraceOptions TOpts;
      TOpts.Mode = Sampled ? TraceMode::Sampled : TraceMode::CuOrder;
      if (Sampled) {
        TOpts.SamplePeriod = SetCfg.SamplePeriod;
        TOpts.SamplePhase = SetCfg.SamplePhase +
                            I * std::max<uint64_t>(1, TOpts.SamplePeriod) /
                                Got.size();
      }
      TraceCapture Cap = tracedRun(C, P, Img, RunCfg, TOpts, Paths);
      CodeProfile Prof = C.layer("profiling.analyze", [&] {
        return Sampled ? analyzeSampledCuOrder(P, Cap) : analyzeCuOrder(P, Cap);
      });
      if (Prof.Sigs.size() != Got[I].Profile.Sigs.size())
        Why << " " << Got[I].Name << " rows " << Prof.Sigs.size() << "/"
            << Got[I].Profile.Sigs.size();
    }
    if (!Why.str().empty())
      C.fail("decomposed collectProfileSet differs:" + Why.str());
  });
  C.Decomposing = false;
}

std::vector<MemberProfile>
collectSet(Context &C, Program &P, const BuildConfig &SetCfg,
           const RunConfig &RC, const std::vector<std::string> &Names) {
  std::vector<MemberProfile> Set = C.layer("core.collect", [&] {
    return collectProfileSet(P, SetCfg, RC, Names);
  });
  if (C.Traced)
    decomposeCollectSet(C, P, SetCfg, RC, Set);
  return Set;
}

FleetResult fleet(Context &C, const RunStats &Ref, const NativeImage &Img,
                  const RunConfig &RC, const FleetConfig &FC) {
  FleetResult R = C.layer("fleet.replay", [&] {
    return simulateFleet(Ref, Img.Layout.TextSize, Img.Layout.HeapSize,
                         RC.Paging, RC.Cost, FC);
  });
  C.count("fleet.instances", FC.Instances);
  C.count("fleet.evictions", double(R.Evictions));
  C.count("fleet.warm_hits", double(R.TotalWarmHits));
  C.count("fleet.classified", double(R.TotalMajors + R.TotalWarmHits));
  return R;
}

/// Fleet traffic: \p N instances arriving over a 20 ms window (storms in
/// four bursts) on a seeded schedule.
FleetConfig trafficOf(uint64_t Seed, uint32_t N, ArrivalKind A) {
  FleetConfig FC;
  FC.Instances = N;
  FC.Arrivals = A;
  FC.ArrivalWindowNs = 20e6;
  FC.StormBursts = 4;
  FC.Seed = Seed;
  return FC;
}

/// The single-run anchor: a 1-instance fleet reproduces its reference run.
void checkFleetAnchor(Context &C, size_t Op, const std::string &Name,
                      const FleetResult &R) {
  if (R.TotalMajors != R.ReferenceFaults)
    C.fail(Op, Name + ": N=1 fleet majors " + std::to_string(R.TotalMajors) +
                   " != reference run's " + std::to_string(R.ReferenceFaults));
  if (R.P50Ns != R.ReferenceTimeNs)
    C.fail(Op, Name + ": N=1 fleet p50 " + std::to_string(R.P50Ns) +
                   " ns != reference run's " +
                   std::to_string(R.ReferenceTimeNs) + " ns");
}

/// Model-only side work shared by the workloads: the N=100 storm p99 of
/// \p Img (reference run with first-touch recording). Also checks that the
/// recording run matches the op's run \p Timed.
double fleetP99(Context &C, size_t Op, const std::string &Name,
                const NativeImage &Img, const RunConfig &RC,
                const RunStats &Timed, uint64_t ArrivalSeed) {
  RunConfig Rec = RC;
  Rec.RecordTouches = true;
  RunStats Ref = runImage(Img, Rec);
  std::string Diff = sameRun(Ref, Timed);
  if (!Diff.empty())
    C.fail(Op, Name + ": recording run differs from the timed run: " + Diff);
  FleetConfig FC = trafficOf(ArrivalSeed, 100, ArrivalKind::Storm);
  return simulateFleet(Ref, Img.Layout.TextSize, Img.Layout.HeapSize,
                       RC.Paging, RC.Cost, FC)
      .P99Ns;
}

/// Seed-derived build seed (non-zero, 32-bit like the CLI's).
uint64_t buildSeedOf(uint64_t Seed, uint64_t Salt) {
  return 1 + (mix64(Seed, Salt) & 0x7fffffff);
}

//===----------------------------------------------------------------------===//
// awfy_eval
//===----------------------------------------------------------------------===//

/// The paper's Sec. 7.1 protocol over the 14 AWFY programs: per program
/// one collectProfiles, then nine layouts, each built and cold-run once
/// per build seed (one op each).
class AwfyEval : public Workload {
  struct Variant {
    const char *Name;
    CodeStrategy Code;
    bool UseHeap;
    HeapStrategy Heap;
    bool Split;
  };
  static constexpr Variant Variants[] = {
      {"baseline", CodeStrategy::None, false, HeapStrategy::HeapPath, false},
      {"cu", CodeStrategy::CuOrder, false, HeapStrategy::HeapPath, false},
      {"method", CodeStrategy::MethodOrder, false, HeapStrategy::HeapPath,
       false},
      {"cluster", CodeStrategy::Cluster, false, HeapStrategy::HeapPath, false},
      {"incremental id", CodeStrategy::None, true, HeapStrategy::IncrementalId,
       false},
      {"structural hash", CodeStrategy::None, true,
       HeapStrategy::StructuralHash, false},
      {"heap path", CodeStrategy::None, true, HeapStrategy::HeapPath, false},
      {"cu+heap path", CodeStrategy::CuOrder, true, HeapStrategy::HeapPath,
       false},
      {"cluster+split", CodeStrategy::Cluster, false, HeapStrategy::HeapPath,
       true},
  };
  static constexpr size_t Optimized = 7; // cu+heap path
  /// Build seeds per program and pass (the paper builds 10 images per
  /// strategy; one keeps a pass near 5 s, so a run holds enough passes
  /// for a steady median).
  static constexpr uint64_t SeedsPerPass = 1;

  std::vector<BenchmarkSpec> Specs;

  BuildConfig configFor(const Variant &V, const CollectedProfiles &Prof,
                        uint64_t Seed) const {
    BuildConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.CodeOrder = V.Code;
    if (V.Code == CodeStrategy::CuOrder)
      Cfg.CodeProf = &Prof.Cu;
    else if (V.Code == CodeStrategy::MethodOrder)
      Cfg.CodeProf = &Prof.Method;
    else if (V.Code == CodeStrategy::Cluster)
      Cfg.CodeProf = &Prof.Cluster;
    Cfg.UseHeapOrder = V.UseHeap;
    if (V.UseHeap) {
      Cfg.HeapOrder = V.Heap;
      Cfg.HeapProf = &Prof.forStrategy(V.Heap);
    }
    if (V.Split) {
      Cfg.Split = SplitMode::HotCold;
      Cfg.BlockProf = &Prof.Blocks;
    }
    return Cfg;
  }

  /// One program: compile, collect, then one op per variant and build
  /// seed. \p OnlyFirst runs the first op only (warm-up).
  void program(Context &C, const BenchmarkSpec &Spec, bool OnlyFirst) {
    std::unique_ptr<Program> P = compile(C, Spec);
    if (!P)
      return;
    RunConfig RC = runConfigFor(Spec);
    BuildConfig InstrCfg;
    InstrCfg.Seed = buildSeedOf(C.Seed, 1) + 1000;
    CollectedProfiles Prof = collect(C, *P, InstrCfg, RC);

    for (uint64_t K = 0; K < SeedsPerPass; ++K) {
      uint64_t Seed = buildSeedOf(C.Seed, 1 + K);
      RunStats Base, Opt;
      NativeImage OptImg;
      size_t OptOp = 0;
      for (size_t V = 0; V < std::size(Variants); ++V) {
        size_t Op = C.beginOp(Spec.Name + "/" + Variants[V].Name);
        NativeImage Img = build(C, *P, configFor(Variants[V], Prof, Seed));
        RunStats S;
        if (!Img.Built.Failed)
          S = run(C, Img, RC);
        C.endOp(Op);
        if (OnlyFirst)
          return;
        if (Img.Built.Failed)
          continue;
        std::string Why = runProblem(*C.Expect, Spec.Name, false, S);
        if (!Why.empty())
          C.fail(Op, Variants[V].Name + std::string(": ") + Why);
        if (V == 0)
          Base = S;
        else if (S.Output != Base.Output)
          C.fail(Op, Spec.Name + "/" + Variants[V].Name +
                         " prints other output than its baseline");
        if (V == Optimized) {
          Opt = S;
          OptImg = std::move(Img);
          OptOp = Op;
        }
      }
      if (!OptImg.P)
        continue;
      PassRecord::ModelRow Row;
      Row.Program = Spec.Name + "#" + std::to_string(K);
      Row.StartupNs = Opt.TimeNs;
      Row.BaselineNs = Base.TimeNs;
      Row.Majors = Opt.totalFaults();
      Row.ImageBytes = OptImg.imageBytes();
      {
        SideWork W(C);
        Row.FleetP99Ns = fleetP99(C, OptOp, Spec.Name, OptImg, RC, Opt,
                                  mix64(C.Seed, 7 + K));
      }
      C.Pass->Model.push_back(Row);
    }
  }

public:
  void setup(Context &C) override {
    Specs.clear();
    for (const std::string &Name : awfyBenchmarkNames())
      Specs.push_back(awfyBenchmark(Name));
    program(C, Specs.front(), /*OnlyFirst=*/true);
  }
  void pass(Context &C) override {
    for (const BenchmarkSpec &Spec : Specs)
      program(C, Spec, false);
  }
};

//===----------------------------------------------------------------------===//
// service_fleet
//===----------------------------------------------------------------------===//

enum class Damage { None, Truncate, BitFlip, Stale };

const char *damageName(Damage D) {
  switch (D) {
  case Damage::None:
    return "none";
  case Damage::Truncate:
    return "truncated";
  case Damage::BitFlip:
    return "bit-flipped";
  case Damage::Stale:
    return "stale generation";
  }
  return "?";
}

/// Damages a profile CSV's text: truncation inside the payload, one
/// flipped payload bit, or a generation stamp far behind the fleet's.
std::string damaged(const CodeProfile &Prof, Damage D, SplitMix64 &Rng) {
  if (D == Damage::Stale) {
    CodeProfile Old = Prof;
    Old.Header.Generation = 1;
    return Old.toCsv();
  }
  std::string Csv = Prof.toCsv();
  size_t Body = Csv.find('\n') + 1;
  size_t Len = Csv.size() - Body;
  if (D == Damage::Truncate)
    Csv.resize(Body + Len / 5 + size_t(Rng.nextBelow(Len * 3 / 5)));
  else if (D == Damage::BitFlip)
    Csv[Body + size_t(Rng.nextBelow(Len - 1))] ^=
        char(1u << Rng.nextBelow(7));
  return Csv;
}

/// One service rollout per op: capture a mixed instrumented + sampled
/// member set, damage a seeded share through the CSV text path, merge,
/// build merged + baseline, round-trip the image through its file format,
/// and replay a fleet sweep from one recorded reference run.
class ServiceFleet : public Workload {
  static constexpr size_t InstrumentedMembers = 2;
  static constexpr size_t SampledMembers = 14;
  static constexpr size_t DamagedMembers = 4;
  static constexpr uint64_t Generation = 100;
  static constexpr uint64_t CachePages = 32;

  std::vector<BenchmarkSpec> Specs;

  void rollout(Context &C, const BenchmarkSpec &Spec) {
    std::unique_ptr<Program> P = compile(C, Spec);
    if (!P)
      return;
    uint64_t Seed = buildSeedOf(C.Seed, 2);
    RunConfig RC = runConfigFor(Spec);
    size_t Op = C.beginOp(Spec.Name + "/rollout");

    // Capture: two instrumented canaries, then fourteen sampled members
    // (seeded sample period and phase). collectProfileSet stamps
    // consecutive generations, so the set spans generations 100-115; the
    // merge's default 8-generation window quarantines the oldest ones,
    // canaries included, as stale_generation — a typed, expected outcome.
    // The merged layout is therefore driven by the sampled fleet.
    SplitMix64 Rng(mix64(C.Seed, 3));
    std::vector<MemberProfile> Captured;
    for (bool Sampled : {false, true}) {
      BuildConfig SetCfg;
      SetCfg.Seed = Seed + 1000;
      SetCfg.ProfileGeneration = Sampled ? Generation + 2 : Generation;
      std::vector<std::string> Names;
      size_t Members = Sampled ? SampledMembers : InstrumentedMembers;
      for (size_t I = 0; I < Members; ++I)
        Names.push_back((Sampled ? "sampled-" : "instrumented-") +
                        std::to_string(I));
      if (Sampled) {
        SetCfg.ProfileCapture = CaptureKind::Sampled;
        SetCfg.SamplePeriod = 1024u << Rng.nextBelow(3);
        SetCfg.SamplePhase = Rng.nextBelow(SetCfg.SamplePeriod);
      }
      for (MemberProfile &M : collectSet(C, *P, SetCfg, RC, Names))
        Captured.push_back(std::move(M));
    }

    // Upload: every member goes through the CSV text path; a seeded share
    // is damaged on the way.
    std::vector<Damage> Plan(Captured.size(), Damage::None);
    for (size_t K = 0; K < DamagedMembers; ++K) {
      size_t I = size_t(Rng.nextBelow(Plan.size()));
      while (Plan[I] != Damage::None)
        I = (I + 1) % Plan.size();
      Plan[I] = Damage(1 + Rng.nextBelow(3));
    }
    std::vector<MemberProfile> Members;
    for (size_t I = 0; I < Captured.size(); ++I) {
      std::string Csv = C.layer("profiling.csv", [&] {
        return damaged(Captured[I].Profile, Plan[I], Rng);
      });
      Members.push_back(C.layer("profiling.csv", [&] {
        return loadMemberProfile(Captured[I].Name, Csv);
      }));
    }

    // Merge under the build's own fingerprint.
    MergeOptions MOpts;
    MOpts.ExpectedFingerprint = fingerprint(C, *P);
    MergeResult MR = C.layer("profiling.merge", [&] {
      return aggregateProfiles(Members, MOpts);
    });
    size_t Usable = 0;
    for (size_t I = 0; I < MR.Manifest.Members.size(); ++I) {
      const MergeMemberReport &R = MR.Manifest.Members[I];
      Usable += R.Status != MergeMemberStatus::Quarantined;
      if (Plan[I] != Damage::None &&
          (R.Status == MergeMemberStatus::Accepted ||
           R.Reason == ProfileError::None))
        C.fail(Op, Spec.Name + ": " + damageName(Plan[I]) + " member " +
                       R.Name + " was " + mergeMemberStatusName(R.Status) +
                       " without a typed reason");
    }
    C.count("profiling.members", double(MR.Manifest.Members.size()));
    C.count("profiling.members_usable", double(Usable));
    C.count("profiling.quarantined",
            double(MR.Manifest.Members.size() - Usable));

    // Build baseline + merged layout; round-trip the merged image.
    BuildConfig BaseCfg;
    BaseCfg.Seed = Seed;
    BuildConfig MergedCfg = BaseCfg;
    if (MR.usable()) {
      MergedCfg.CodeOrder = CodeStrategy::CuOrder;
      MergedCfg.CodeProf = &MR.Profile;
    }
    NativeImage BaseImg = build(C, *P, BaseCfg);
    NativeImage Img = build(C, *P, MergedCfg);
    if (BaseImg.Built.Failed || Img.Built.Failed) {
      C.endOp(Op);
      return;
    }
    std::vector<uint8_t> Bytes =
        C.layer("image.serialize", [&] { return serializeImage(*P, Img); });
    C.count("image.bytes", double(Bytes.size()));
    NativeImage Loaded;
    std::string Error;
    bool Ok = C.layer("image.deserialize", [&] {
      return deserializeImage(*P, Bytes, Loaded, Error);
    });
    if (!Ok) {
      C.endOp(Op);
      C.fail(Op, Spec.Name + ": image did not load back: " + Error);
      return;
    }

    // Runs: baseline, merged in memory, and the deserialized image as the
    // fleet's reference run.
    RunStats Base = run(C, BaseImg, RC);
    RunStats Opt = run(C, Img, RC);
    RunConfig RecCfg = RC;
    RecCfg.RecordTouches = true;
    RunStats Ref = run(C, Loaded, RecCfg);

    // Fleet sweep.
    double P99 = 0;
    std::vector<FleetResult> AtOne;
    for (uint32_t N : {1u, 100u, 10000u})
      for (ArrivalKind A : {ArrivalKind::Poisson, ArrivalKind::Storm})
        for (uint64_t Cap : {uint64_t(0), CachePages}) {
          FleetConfig FC = trafficOf(mix64(C.Seed, 4), N, A);
          FC.CachePages = Cap;
          FleetResult R = fleet(C, Ref, Loaded, RC, FC);
          if (N == 1)
            AtOne.push_back(std::move(R));
          else if (N == 100 && A == ArrivalKind::Storm && Cap == 0)
            P99 = R.P99Ns;
        }
    C.endOp(Op);

    for (const FleetResult &R : AtOne)
      checkFleetAnchor(C, Op, Spec.Name, R);
    for (const RunStats *S : {&Base, &Opt, &Ref}) {
      std::string Why = runProblem(*C.Expect, Spec.Name, true, *S);
      if (!Why.empty())
        C.fail(Op, Why);
    }
    if (Opt.Output != Base.Output)
      C.fail(Op, Spec.Name + ": merged image prints other output than "
                             "its baseline");
    std::string Diff = sameRun(Opt, Ref);
    if (!Diff.empty())
      C.fail(Op, Spec.Name + ": deserialized image runs differently: " + Diff);

    PassRecord::ModelRow Row;
    Row.Program = Spec.Name;
    Row.StartupNs = startupNs(Opt, true);
    Row.BaselineNs = startupNs(Base, true);
    Row.Majors = Opt.totalFaults();
    Row.ImageBytes = Img.imageBytes();
    Row.FleetP99Ns = P99;
    C.Pass->Model.push_back(Row);
  }

public:
  void setup(Context &C) override {
    Specs.clear();
    for (const std::string &Name : microserviceNames())
      Specs.push_back(microserviceBenchmark(Name));
    rollout(C, Specs.front());
  }
  void pass(Context &C) override {
    for (const BenchmarkSpec &Spec : Specs)
      rollout(C, Spec);
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name) {
  if (Name == "awfy_eval")
    return std::make_unique<AwfyEval>();
  if (Name == "service_fleet")
    return std::make_unique<ServiceFleet>();
  return nullptr;
}

int perfbench::dumpOutputs() {
  std::vector<BenchmarkSpec> Specs;
  for (const std::string &Name : awfyBenchmarkNames())
    Specs.push_back(awfyBenchmark(Name));
  for (const std::string &Name : microserviceNames())
    Specs.push_back(microserviceBenchmark(Name));
  for (const BenchmarkSpec &Spec : Specs) {
    std::vector<std::string> Errors;
    std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
    if (!P)
      return 1;
    BuildConfig Cfg;
    NativeImage Img = buildNativeImage(*P, Cfg);
    RunStats S = runImage(Img, runConfigFor(Spec));
    std::printf("%s\n", Expectations::recordLine(Spec.Name, S.Output).c_str());
  }
  return 0;
}
