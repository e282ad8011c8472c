//===- Harness.cpp - Timing, tracing and checks of the benchmark ----------===//

#include "Harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perfbench;

double perfbench::nowSec() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double perfbench::hostProbeUs() {
  static volatile uint64_t Sink;
  double T = nowSec();
  uint64_t Acc = 0;

  // A small stack machine: the dispatch pattern of an interpreter.
  enum Op : uint8_t { Push, Add, Mul, Xor, Dup, Pop, Jnz };
  static const uint8_t Code[] = {Push, Dup, Mul, Push, Xor, Dup, Add,
                                 Pop,  Push, Add, Dup,  Jnz};
  uint64_t Stack[64] = {1};
  unsigned Sp = 1, Pc = 0;
  for (unsigned Steps = 0; Steps < 60000; ++Steps) {
    switch (Code[Pc]) {
    case Push:
      Stack[Sp++ & 63] = Steps * 2654435761u;
      break;
    case Add:
      --Sp, Stack[(Sp - 1) & 63] += Stack[Sp & 63];
      break;
    case Mul:
      --Sp, Stack[(Sp - 1) & 63] *= Stack[Sp & 63] | 1;
      break;
    case Xor:
      --Sp, Stack[(Sp - 1) & 63] ^= Stack[Sp & 63] >> 7;
      break;
    case Dup:
      Stack[Sp & 63] = Stack[(Sp - 1) & 63], ++Sp;
      break;
    case Pop:
      --Sp;
      break;
    case Jnz:
      Acc += Stack[--Sp & 63];
      Pc = (Stack[Sp & 63] & 3) ? 0 : 6;
      Sp = 1;
      continue;
    }
    Pc = (Pc + 1) % sizeof(Code);
  }

  // Sorting: data-dependent branches over an L1/L2-sized array.
  static std::vector<uint32_t> Keys(8192);
  uint64_t X = 88172645463325252ull;
  for (uint32_t &K : Keys) {
    X ^= X << 13, X ^= X >> 7, X ^= X << 17;
    K = uint32_t(X);
  }
  std::sort(Keys.begin(), Keys.end());
  Acc += Keys[Keys.size() / 2];

  // Open-addressing lookups in a 1 MiB table.
  static const std::vector<uint64_t> Table = [] {
    std::vector<uint64_t> V(1u << 17);
    for (size_t I = 0; I < V.size(); ++I)
      V[I] = I * 0x9e3779b97f4a7c15ull;
    return V;
  }();
  for (int I = 0; I < 20000; ++I) {
    X ^= X << 13, X ^= X >> 7, X ^= X << 17;
    size_t Slot = X & (Table.size() - 1);
    while ((Table[Slot] & 7) == (X & 7) && Slot + 1 < Table.size())
      ++Slot;
    Acc += Table[Slot];
  }

  Sink = Acc;
  return (nowSec() - T) * 1e6;
}

int32_t Tracer::begin(const char *Name, uint32_t Op) {
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Start = nowSec();
  Spans.push_back(S);
  Open.push_back(int32_t(Spans.size() - 1));
  return Open.back();
}

void Tracer::end(int32_t Idx) {
  Spans[size_t(Idx)].End = nowSec();
  if (!Open.empty() && Open.back() == Idx)
    Open.pop_back();
}

void Tracer::selfTimes(std::map<std::string, double> &SelfSec,
                       std::map<std::string, double> &TotalSec) const {
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[size_t(S.Parent)] += S.End - S.Start;
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Dur = Spans[I].End - Spans[I].Start;
    SelfSec[Spans[I].Name] += Dur - Covered[I];
    TotalSec[Spans[I].Name] += Dur;
  }
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double T0 = Spans.empty() ? 0 : Spans.front().Start;
  std::fputs("[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%u,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 I, S.Name, S.Op, S.Parent, (S.Start - T0) * 1e6,
                 (S.End - T0) * 1e6, I + 1 < Spans.size() ? "," : "");
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

namespace {

std::string unescape(const std::string &S) {
  std::string Out;
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    char C = S[++I];
    Out += C == 'n' ? '\n' : C == 't' ? '\t' : C;
  }
  return Out;
}

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S)
    Out += C == '\n' ? std::string("\\n")
           : C == '\t' ? std::string("\\t")
           : C == '\\' ? std::string("\\\\")
                       : std::string(1, C);
  return Out;
}

} // namespace

bool Expectations::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return false;
  }
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t A = Line.find('\t');
    size_t B = A == std::string::npos ? A : Line.find('\t', A + 1);
    if (B == std::string::npos) {
      Error = Path + ":" + std::to_string(LineNo) + ": expected 3 fields";
      return false;
    }
    std::string Kind = Line.substr(A + 1, B - A - 1);
    if (Kind != "contains" && Kind != "output") {
      Error = Path + ":" + std::to_string(LineNo) + ": bad kind " + Kind;
      return false;
    }
    Table[Line.substr(0, A)] = {Kind == "output", unescape(Line.substr(B + 1))};
  }
  return true;
}

std::string Expectations::check(const std::string &Program,
                                const std::string &Output) const {
  auto It = Table.find(Program);
  if (It == Table.end())
    return "no expected output recorded for " + Program;
  const Expectation &E = It->second;
  if (E.Whole ? Output == E.Text : Output.find(E.Text) != std::string::npos)
    return "";
  return Program + " printed \"" + escape(Output) + "\", expected " +
         (E.Whole ? "" : "it to contain ") + "\"" + escape(E.Text) + "\"";
}

std::string Expectations::recordLine(const std::string &Program,
                                     const std::string &Output) {
  return Program + "\toutput\t" + escape(Output);
}

std::string perfbench::runProblem(const Expectations &E,
                                  const std::string &Program,
                                  bool Microservice, const nimg::RunStats &S) {
  if (S.Trapped)
    return Program + " trapped: " + S.TrapMessage;
  if (S.FuelExhausted)
    return Program + " ran out of fuel";
  if (Microservice && !S.Responded)
    return Program + " never responded";
  return E.check(Program, S.Output);
}

double perfbench::startupNs(const nimg::RunStats &S, bool Microservice) {
  return Microservice && S.Responded ? S.TimeToFirstResponseNs : S.TimeNs;
}

std::string perfbench::sameRun(const nimg::RunStats &A,
                               const nimg::RunStats &B) {
  auto Diff = [](const char *What, auto X, auto Y) {
    std::ostringstream OS;
    OS << What << " " << X << " != " << Y;
    return OS.str();
  };
  if (A.TextFaults != B.TextFaults)
    return Diff("text faults", A.TextFaults, B.TextFaults);
  if (A.HeapFaults != B.HeapFaults)
    return Diff("heap faults", A.HeapFaults, B.HeapFaults);
  if (A.TextHugeFaults != B.TextHugeFaults)
    return Diff("huge faults", A.TextHugeFaults, B.TextHugeFaults);
  if (A.Instructions != B.Instructions)
    return Diff("instructions", A.Instructions, B.Instructions);
  if (A.TimeNs != B.TimeNs)
    return Diff("time ns", A.TimeNs, B.TimeNs);
  if (A.TimeToFirstResponseNs != B.TimeToFirstResponseNs)
    return Diff("first-response ns", A.TimeToFirstResponseNs,
                B.TimeToFirstResponseNs);
  if (A.Output != B.Output)
    return "outputs differ";
  return "";
}
