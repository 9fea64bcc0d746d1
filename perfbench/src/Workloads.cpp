//===--- Workloads.cpp ----------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Trace.h"

#include "ast/ASTPrinter.h"
#include "datasets/Generators.h"
#include "parse/Parser.h"
#include "service/CompileService.h"
#include "sim/GpuModel.h"
#include "transform/Pipeline.h"
#include "tuner/Empirical.h"
#include "tuner/TunedTable.h"
#include "vm/BytecodeIO.h"
#include "vm/Compiler.h"
#include "vm/Peephole.h"
#include "workloads/Differential.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <optional>
#include <random>

#include <unistd.h>

using namespace dpo;
using namespace dpobench;

namespace {

/// Device memory per case: twice what the largest case (BT/t2048, ~3 MiB
/// staged) needs. The Device zero-fills all of it on construction, so a
/// larger size only adds fill time to every case.
constexpr uint64_t DeviceBytes = 8ull << 20;

constexpr BenchmarkId AllBenches[] = {
    BenchmarkId::BFS, BenchmarkId::SSSP, BenchmarkId::MSTF, BenchmarkId::MSTV,
    BenchmarkId::TC,  BenchmarkId::SP,   BenchmarkId::BT};

/// Each source's committed tuned table (bench/tuned/): the Table I
/// dataset the tuner ran on for that benchmark.
const char *tunedSpecFor(BenchmarkId B) {
  switch (B) {
  case BenchmarkId::BFS: return "bfs:kron";
  case BenchmarkId::SSSP: return "sssp:kron";
  case BenchmarkId::MSTF: return "mstf:kron";
  case BenchmarkId::MSTV: return "mstv:kron";
  case BenchmarkId::TC: return "tc:kron";
  case BenchmarkId::SP: return "sp:sat5";
  case BenchmarkId::BT: return "bt:t2048_c64";
  }
  return "";
}

/// Each source's committed tuned pipeline, in AllBenches order.
bool loadTunedPipelines(const std::string &RepoRoot,
                        std::array<std::string, 7> &Out, std::string &Error) {
  for (size_t I = 0; I < Out.size(); ++I) {
    TunedEntry E;
    std::string Path = RepoRoot + "/bench/tuned/" +
                       tunedTableFileName(tunedSpecFor(AllBenches[I]));
    if (!loadTunedEntryFile(Path, E, Error)) {
      Error = Path + ": " + Error;
      return false;
    }
    Out[I] = E.Pipeline;
  }
  return true;
}

double msSince(int64_t StartNs) { return (nowNs() - StartNs) / 1e6; }

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

template <typename T> uint64_t digestOf(const std::vector<T> &V, uint64_t H) {
  return fnv1a64(std::string_view((const char *)V.data(), V.size() * sizeof(T)),
                 H);
}

//===----------------------------------------------------------------------===//
// Compile: the path CompileService's miss and the differential harness
// take (parse, passes, print, re-parse, bytecode compile, peephole),
// made call by call so each layer gets its own span.
//===----------------------------------------------------------------------===//

struct Compiled {
  std::string Source; ///< What the bytecode compiler parsed.
  VmProgram Program;
};

bool compileSource(const std::string &Source, const std::string &Pipeline,
                   Compiled &Out, std::string &Error) {
  DiagnosticEngine Diags;
  if (Pipeline.empty()) {
    Out.Source = Source;
  } else {
    PassManager PM;
    ASTContext Ctx;
    TranslationUnit *TU = nullptr;
    {
      Span S("parse");
      TU = parseSource(Source, Ctx, Diags);
    }
    count("parse.bytes", (double)Source.size());
    if (!TU) {
      Error = "parse failed: " + Diags.str();
      return false;
    }
    {
      Span S("transform");
      if (!parsePassPipeline(PM, Pipeline, literalKnobConfig(), Error))
        return false;
      AnalysisManager AM(Ctx, TU);
      if (!PM.run(Ctx, TU, AM, Diags)) {
        Error = "pipeline '" + Pipeline + "' failed: " + Diags.str();
        return false;
      }
      Out.Source = printTranslationUnit(TU);
    }
    count("transform.emitted_bytes", (double)Out.Source.size());
  }

  ASTContext Ctx;
  TranslationUnit *TU = nullptr;
  {
    Span S(Pipeline.empty() ? "parse" : "parse.reparse");
    TU = parseSource(Out.Source, Ctx, Diags);
  }
  count("parse.bytes", (double)Out.Source.size());
  if (!TU) {
    Error = "parse failed: " + Diags.str();
    return false;
  }
  {
    Span S("vm.compile");
    VmCompileOptions Opts;
    Opts.OptimizeBytecode = false;
    Out.Program = compileProgram(TU, Diags, Opts);
  }
  if (Diags.hasErrors()) {
    Error = "bytecode compile failed: " + Diags.str();
    return false;
  }
  PeepholeStats PS;
  {
    Span S("vm.peephole");
    PS = optimizeProgram(Out.Program);
  }
  count("vm.compile.instrs", PS.InstrsBefore);
  count("vm.peephole.instrs_before", PS.InstrsBefore);
  count("vm.peephole.instrs_after", PS.InstrsAfter);
  return true;
}

//===----------------------------------------------------------------------===//
// The Table I case set: the differential corpus' 14 pairs at about twice
// its size, generated from the workload seed. Twice, not four times: at
// 4x a table1-tuned sweep took ~1.2 s, too long for a run to hold enough
// sweeps for a tail percentile well above the median.
//===----------------------------------------------------------------------===//

std::vector<KernelCase> makeCaseSet(uint64_t Seed) {
  auto S = [&](uint64_t Stream) { return splitmix64(Seed * 16 + Stream); };
  CsrGraph Kron = makeKronGraph(/*ScaleLog2=*/9, /*EdgeFactor=*/6.0, S(1));
  CsrGraph Road = makeRoadGraph(/*Side=*/26, S(2));
  CsrGraph Web = makeWebGraph(/*NumVertices=*/800, /*AvgDegree=*/6.0, S(3));
  SatFormula Rand3 = makeRandomKSat(300, 1260, 3, S(4));
  SatFormula Sat5 = makeRandomKSat(160, 1500, 5, S(5));
  BezierDataset T32 = makeBezierLines(600, 32, 16.0, S(6));
  BezierDataset T2048 = makeBezierLines(192, 2048, 64.0, S(7));

  std::vector<KernelCase> Cases;
  auto Graph = [&](BenchmarkId B, const char *Data, const CsrGraph &G) {
    Cases.push_back(makeGraphKernelCase(
        B, std::string(benchmarkName(B)) + "/" + Data, G));
  };
  Graph(BenchmarkId::BFS, "kron", Kron);
  Graph(BenchmarkId::BFS, "road", Road);
  Graph(BenchmarkId::SSSP, "kron", Kron);
  Graph(BenchmarkId::SSSP, "road", Road);
  Graph(BenchmarkId::MSTF, "kron", Kron);
  Graph(BenchmarkId::MSTF, "road", Road);
  Graph(BenchmarkId::MSTV, "kron", Kron);
  Graph(BenchmarkId::MSTV, "web", Web);
  Graph(BenchmarkId::TC, "kron", Kron);
  Graph(BenchmarkId::TC, "web", Web);
  Cases.push_back(makeSatKernelCase("SP/rand3", std::move(Rand3)));
  Cases.push_back(makeSatKernelCase("SP/sat5", std::move(Sat5)));
  Cases.push_back(makeBezierKernelCase("BT/t32", std::move(T32)));
  Cases.push_back(makeBezierKernelCase("BT/t2048", std::move(T2048)));
  return Cases;
}

uint64_t datasetDigest(const std::vector<KernelCase> &Cases) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const KernelCase &C : Cases) {
    H = digestOf(C.Graph.RowPtr, H);
    H = digestOf(C.Graph.Col, H);
    H = digestOf(C.Graph.Weight, H);
    H = digestOf(C.Formula.ClauseLits, H);
    H = digestOf(C.Bezier.Lines, H);
  }
  return H;
}

/// "BFS/kron" -> "bfs-kron" (metric names allow no '/').
std::string caseKey(const std::string &Name) {
  std::string K = Name;
  for (char &C : K)
    C = C == '/' ? '-' : (char)std::tolower((unsigned char)C);
  return K;
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / V.size());
}

bool checkCase(const KernelCase &Case, const WorkloadOutput &Ref,
               const DifferentialRun &R, uint64_t Steps, uint64_t Launches,
               std::string &Why) {
  if (!R.Ok) {
    Why = Case.Name + ": " + R.Error;
    return false;
  }
  std::string Diff;
  if (!payloadsMatch(Case.Bench, Ref, R.Payload, Diff)) {
    Why = Case.Name + ": payload differs from the native reference: " + Diff;
    return false;
  }
  if (R.Stats.Steps != Steps || R.Stats.DeviceLaunches != Launches) {
    Why = Case.Name + ": steps/launches " + std::to_string(R.Stats.Steps) +
          "/" + std::to_string(R.Stats.DeviceLaunches) + ", set-up recorded " +
          std::to_string(Steps) + "/" + std::to_string(Launches);
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// table1-cdp / table1-tuned
//===----------------------------------------------------------------------===//

class Table1 final : public Workload {
public:
  Table1(const BenchOptions &Opts, bool Tuned) : Opts(Opts), Tuned(Tuned) {}

  bool setup(std::string &Error) override {
    Cases = makeCaseSet(Opts.Seed);
    DataDigest = datasetDigest(Cases);
    int64_t T0 = nowNs();
    for (const KernelCase &C : Cases)
      Refs.push_back(C.reference());
    ReferenceMs = msSince(T0);

    if (Tuned && !loadTunedPipelines(Opts.RepoRoot, Pipelines, Error))
      return false;
    // Warm-up request through the library path; it records the counters
    // every later request must reproduce.
    Compiled P;
    for (size_t I = 0; I < Cases.size(); ++I) {
      const KernelCase &C = Cases[I];
      if (I == 0 || Cases[I - 1].Bench != C.Bench) {
        if (!compileSource(C.source(), Pipelines[benchIndex(C.Bench)], P,
                           Error))
          return false;
        BytecodeBytes += serializeVmProgram(P.Program).size();
      }
      DifferentialRun R =
          runKernelCaseOnVmProgram(C, P.Program, DeviceBytes, /*Workers=*/1);
      Steps.push_back(R.Stats.Steps);
      Launches.push_back(R.Stats.DeviceLaunches);
      if (!checkCase(C, Refs[I], R, R.Stats.Steps, R.Stats.DeviceLaunches,
                     Error))
        return false;
    }
    return true;
  }

  bool otherSeedDiffers(std::string &Error) override {
    if (datasetDigest(makeCaseSet(Opts.Seed + 1)) != DataDigest)
      return true;
    Error = "seeds " + std::to_string(Opts.Seed) + " and " +
            std::to_string(Opts.Seed + 1) + " generate identical datasets";
    return false;
  }

  RequestResult request(bool Traced) override {
    RequestResult Out;
    int64_t T0 = nowNs(), ProbeNs = 0;
    Span Request("request");
    Compiled P;
    for (size_t I = 0; I < Cases.size(); ++I) {
      const KernelCase &C = Cases[I];
      if (I == 0 || Cases[I - 1].Bench != C.Bench) {
        if (!compileSource(C.source(), Pipelines[benchIndex(C.Bench)], P,
                           Out.Why)) {
          Out.Ok = false;
          break;
        }
      }
      int64_t C0 = nowNs();
      DifferentialRun R;
      {
        Span S("workloads.run_case");
        R = runKernelCaseOnVmProgram(C, P.Program, DeviceBytes, 1);
      }
      if (Traced) {
        count("case." + caseKey(C.Name) + ".exec_ms", msSince(C0));
        countStats(R.Stats);
        int64_t P0 = nowNs();
        probeLoadAndStage(C, P.Program);
        ProbeNs += nowNs() - P0;
      }
      Span S("workloads.check");
      if (!checkCase(C, Refs[I], R, Steps[I], Launches[I], Out.Why)) {
        Out.Ok = false;
        break;
      }
    }
    Out.Ms = (nowNs() - T0 - ProbeNs) / 1e6;
    return Out;
  }

  std::map<std::string, uint64_t> exactCounters() const override {
    uint64_t S = 0, L = 0;
    for (size_t I = 0; I < Steps.size(); ++I) {
      S += Steps[I];
      L += Launches[I];
    }
    return {{"vm_steps", S},
            {"device_launches", L},
            {"bytecode_bytes", BytecodeBytes},
            {"dataset_digest", DataDigest}};
  }

  MetricMap afterWindow(std::string &Error) override {
    MetricMap M;
    M["workloads.reference_ms"] = ReferenceMs;
    const std::array<std::string, 7> Cdp; // every source untransformed
    std::vector<double> Us, Speedup;
    double PriceMs = 0;
    for (size_t I = 0; I < Cases.size(); ++I) {
      const KernelCase &C = Cases[I];
      double CaseUs = 0;
      if (!priceCase(I, Pipelines, CaseUs, PriceMs, Error))
        return M;
      double CdpUs = CaseUs;
      if (Tuned && !priceCase(I, Cdp, CdpUs, PriceMs, Error))
        return M;
      M["case." + caseKey(C.Name) + ".model_us"] = CaseUs;
      Us.push_back(CaseUs);
      Speedup.push_back(CdpUs / CaseUs);
    }
    M["tuner.price_ms"] = PriceMs;
    M["model_us_geomean"] = geomean(Us);
    M["model_speedup_geomean"] = geomean(Speedup);
    return M;
  }

private:
  static size_t benchIndex(BenchmarkId B) {
    return std::find(std::begin(AllBenches), std::end(AllBenches), B) -
           std::begin(AllBenches);
  }

  /// Runs case \p I through \p Pipes with the grid log on and prices the
  /// log on the default GpuModel. The payload is checked again.
  bool priceCase(size_t I, const std::array<std::string, 7> &Pipes,
                 double &Us, double &PriceMs, std::string &Error) const {
    const KernelCase &C = Cases[I];
    Compiled P;
    if (!compileSource(C.source(), Pipes[benchIndex(C.Bench)], P, Error))
      return false;
    DifferentialRun R = runKernelCaseOnVmProgram(
        C, std::move(P.Program), DeviceBytes, 1, ExecMode::Auto,
        /*CaptureGridLog=*/true);
    std::string Diff;
    if (!R.Ok || !payloadsMatch(C.Bench, Refs[I], R.Payload, Diff)) {
      Error = C.Name + ": verification pass failed: " + R.Error + Diff;
      return false;
    }
    GpuModel Gpu;
    int64_t T0 = nowNs();
    Us = Gpu.cyclesToUs(measuredMakespanCycles(R.GridLog, R.Stats, Gpu));
    PriceMs += msSince(T0);
    return true;
  }

  /// runKernelCaseOnVmProgram builds the Device, stages the case and runs
  /// the host round loop in one call. The traced run times the first two
  /// of those layers with a probe, off the clock: a throwaway Device built
  /// from the same program (memory zero-fill, decode, trace formation)
  /// and the case staged onto it.
  static void probeLoadAndStage(const KernelCase &C, const VmProgram &Prog) {
    VmProgram Copy = Prog;
    std::unique_ptr<Device> Dev;
    {
      Span S("vm.device.load");
      Dev = std::make_unique<Device>(std::move(Copy), DeviceBytes,
                                     ExecMode::Auto);
    }
    Dev->setWorkers(1);
    count("vm.device.traces_formed", (double)Dev->decodeStats().TracesFormed);
    count("vm.device.trace_instrs", (double)Dev->decodeStats().TraceInstrs);
    Span S("workloads.stage");
    stageKernelCase(*Dev, C);
  }

  static void countStats(const VmStats &S) {
    count("vm_steps", (double)S.Steps);
    count("device_launches", (double)S.DeviceLaunches);
    count("vm.exec.grids", (double)S.GridsLaunched);
    count("vm.exec.blocks", (double)S.BlocksExecuted);
    count("vm.exec.threads", (double)S.ThreadsExecuted);
    count("vm.exec.trace_entries", (double)S.TraceEntries);
    count("vm.exec.trace_side_exits", (double)S.TraceSideExits);
    count("vm.exec.spec_guard_pass", (double)S.SpecGuardPass);
    count("vm.exec.spec_guard_fail", (double)S.SpecGuardFail);
  }

  BenchOptions Opts;
  bool Tuned;
  std::vector<KernelCase> Cases;
  std::vector<WorkloadOutput> Refs;
  std::array<std::string, 7> Pipelines;
  std::vector<uint64_t> Steps, Launches;
  uint64_t BytecodeBytes = 0;
  uint64_t DataDigest = 0;
  double ReferenceMs = 0;
};

//===----------------------------------------------------------------------===//
// The build matrix shared by compile-cold and serve-warm
//===----------------------------------------------------------------------===//

/// The 7 sources x (the differential pipelines + the source's tuned
/// pipeline), one request per distinct cache key (a tuned pipeline that
/// is also a matrix entry would otherwise be a MemoryHit), in an order
/// shuffled by the seed.
bool buildMatrix(const BenchOptions &Opts, std::vector<CompileRequest> &Out,
                 std::string &Error) {
  std::array<std::string, 7> Tuned;
  if (!loadTunedPipelines(Opts.RepoRoot, Tuned, Error))
    return false;
  std::vector<std::string> Keys;
  for (size_t BI = 0; BI < Tuned.size(); ++BI) {
    BenchmarkId B = AllBenches[BI];
    std::vector<std::string> Pipes = differentialPipelines();
    Pipes.push_back(Tuned[BI]);
    for (const std::string &P : Pipes) {
      CompileRequest Req;
      Req.Name = std::string(benchmarkName(B)) + " " + P;
      Req.Source = kernelSourceFor(B);
      Req.Pipeline = P;
      Req.Knobs = literalKnobConfig();
      Req.WantBytecode = true;
      std::string Key = CompileService::cacheKeyFor(Req, Error);
      if (Key.empty())
        return false;
      if (std::find(Keys.begin(), Keys.end(), Key) != Keys.end())
        continue;
      Keys.push_back(Key);
      Out.push_back(std::move(Req));
    }
  }
  std::mt19937_64 Rng(splitmix64(Opts.Seed));
  std::shuffle(Out.begin(), Out.end(), Rng);
  return true;
}

uint64_t artifactDigest(const std::string &Image, const std::string &Source) {
  return fnv1a64(Image, fnv1a64(Source));
}

uint64_t artifactDigest(const CompileResponse &R) {
  return artifactDigest(serializeVmProgram(*R.Program), R.TransformedSource);
}

/// The artifacts of the matrix compiled call by call (compileSource, then
/// serializeVmProgram), as the service's miss path does. Set-up builds it
/// as the reference every served artifact must equal; the traced
/// compile-cold request repeats it as its per-layer probe.
struct MatrixReference {
  std::vector<uint64_t> Digests;
  uint64_t BytecodeBytes = 0, EmittedBytes = 0;

  bool build(const std::vector<CompileRequest> &Matrix, std::string &Error) {
    for (const CompileRequest &Req : Matrix) {
      uint64_t Digest = 0;
      size_t ImageBytes = 0, SourceBytes = 0;
      if (!compileArtifact(Req, Digest, ImageBytes, SourceBytes, Error))
        return false;
      Digests.push_back(Digest);
      BytecodeBytes += ImageBytes;
      EmittedBytes += SourceBytes;
    }
    return true;
  }

  static bool compileArtifact(const CompileRequest &Req, uint64_t &Digest,
                              size_t &ImageBytes, size_t &SourceBytes,
                              std::string &Error) {
    Compiled P;
    if (!compileSource(Req.Source, Req.Pipeline, P, Error)) {
      Error = Req.Name + ": " + Error;
      return false;
    }
    std::string Image;
    {
      Span S("vm.bytecodeio.serialize");
      Image = serializeVmProgram(P.Program);
    }
    Digest = artifactDigest(Image, P.Source);
    ImageBytes = Image.size();
    SourceBytes = P.Source.size();
    return true;
  }
};

ServiceConfig serviceConfig(std::string CacheDir) {
  ServiceConfig C;
  C.CacheDir = std::move(CacheDir);
  C.Workers = 1;
  return C;
}

/// One CompileService::compile call per request in a traced run, in a span
/// named after the call's outcome; untraced runs make one compileBatch.
std::vector<CompileResponse> serve(CompileService &Svc,
                                   const std::vector<CompileRequest> &Reqs,
                                   bool Traced) {
  if (!Traced)
    return Svc.compileBatch(Reqs);
  std::vector<CompileResponse> Resps;
  for (const CompileRequest &Req : Reqs) {
    Span S("service.compile");
    Resps.push_back(Svc.compile(Req));
    switch (Resps.back().Outcome) {
    case CacheOutcome::Miss: S.rename("service.miss"); break;
    case CacheOutcome::DiskHit: S.rename("service.disk_hit"); break;
    case CacheOutcome::MemoryHit: S.rename("service.mem_hit"); break;
    }
  }
  return Resps;
}

/// The traced run's service.* counts, as the service reports them.
void countServiceStats(const ServiceStats &St) {
  count("service.misses", (double)St.Misses);
  count("service.disk_hits", (double)St.DiskHits);
  count("service.mem_hits", (double)St.MemoryHits);
  count("service.corrupt", (double)St.CorruptArtifacts);
}

//===----------------------------------------------------------------------===//
// compile-cold
//===----------------------------------------------------------------------===//

class CompileCold final : public Workload {
public:
  explicit CompileCold(const BenchOptions &Opts) : Opts(Opts) {}

  bool setup(std::string &Error) override {
    if (!buildMatrix(Opts, Matrix, Error) || !Ref.build(Matrix, Error))
      return false;
    RequestResult Warm = request(false);
    if (!Warm.Ok)
      Error = "warm-up request failed: " + Warm.Why;
    return Warm.Ok;
  }

  RequestResult request(bool Traced) override {
    RequestResult Out;
    int64_t T0 = nowNs();
    std::optional<CompileService> Svc;
    std::vector<CompileResponse> Resps;
    {
      Span Request("request");
      Svc.emplace(serviceConfig(""));
      Resps = serve(*Svc, Matrix, Traced);
    }
    Out.Ms = msSince(T0);
    ServiceStats St = Svc->stats();
    if (Traced) {
      countServiceStats(St);
      // Off the clock: the same matrix call by call, so each layer of the
      // miss path gets a span. Its artifacts must equal the reference.
      for (size_t I = 0; I < Matrix.size() && Out.Ok; ++I) {
        uint64_t Digest = 0;
        size_t ImageBytes = 0, SourceBytes = 0;
        if (!MatrixReference::compileArtifact(Matrix[I], Digest, ImageBytes,
                                              SourceBytes, Out.Why) ||
            Digest != Ref.Digests[I]) {
          Out.Ok = false;
          Out.Why = Matrix[I].Name + ": probe compile differs " + Out.Why;
        }
      }
    }
    if (St.Misses != Matrix.size() || St.MemoryHits || St.DiskHits) {
      Out.Ok = false;
      Out.Why = "expected " + std::to_string(Matrix.size()) + " misses, got " +
                std::to_string(St.Misses);
      return Out;
    }
    for (size_t I = 0; I < Resps.size(); ++I)
      if (!Resps[I].Ok || Resps[I].Outcome != CacheOutcome::Miss ||
          !Resps[I].Program || artifactDigest(Resps[I]) != Ref.Digests[I]) {
        Out.Ok = false;
        Out.Why = Matrix[I].Name + ": artifact differs from the reference " +
                  Resps[I].Error;
        return Out;
      }
    return Out;
  }

  std::map<std::string, uint64_t> exactCounters() const override {
    uint64_t D = 0;
    for (uint64_t X : Ref.Digests)
      D = splitmix64(D ^ X);
    return {{"programs", Matrix.size()},
            {"bytecode_bytes", Ref.BytecodeBytes},
            {"emitted_source_bytes", Ref.EmittedBytes},
            {"artifact_digest", D}};
  }

private:
  BenchOptions Opts;
  std::vector<CompileRequest> Matrix;
  MatrixReference Ref;
};

//===----------------------------------------------------------------------===//
// serve-warm
//===----------------------------------------------------------------------===//

class ServeWarm final : public Workload {
public:
  explicit ServeWarm(const BenchOptions &Opts) : Opts(Opts) {}
  ~ServeWarm() override {
    std::error_code EC;
    if (!Dir.empty())
      std::filesystem::remove_all(Dir, EC);
  }

  bool setup(std::string &Error) override {
    std::vector<CompileRequest> Matrix;
    if (!buildMatrix(Opts, Matrix, Error) || !Ref.build(Matrix, Error))
      return false;
    // One cache directory per process: set-ups run in processes of their
    // own while the measuring process holds its cache.
    Dir = Opts.WorkDir + "/serve-cache-" + std::to_string(getpid());
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    std::filesystem::create_directories(Dir, EC);
    if (EC) {
      Error = "cannot create " + Dir + ": " + EC.message();
      return false;
    }
    // Fill the disk cache; every artifact must equal the reference.
    {
      CompileService Svc(serviceConfig(Dir));
      std::vector<CompileResponse> Resps = Svc.compileBatch(Matrix);
      for (size_t I = 0; I < Resps.size(); ++I) {
        const CompileResponse &R = Resps[I];
        if (!R.Ok || !R.Program || R.Outcome != CacheOutcome::Miss ||
            artifactDigest(R) != Ref.Digests[I]) {
          Error = Matrix[I].Name + ": cache fill differs from the reference " +
                  R.Error;
          return false;
        }
        Images.push_back(serializeVmProgram(*R.Program));
      }
    }
    // Every key twice, in a seeded order: DiskHit, then MemoryHit.
    std::vector<size_t> Order;
    for (size_t I = 0; I < Matrix.size(); ++I)
      Order.insert(Order.end(), {I, I});
    std::mt19937_64 Rng(splitmix64(Opts.Seed ^ 0x5e7e));
    std::shuffle(Order.begin(), Order.end(), Rng);
    std::vector<bool> Seen(Matrix.size(), false);
    for (size_t K : Order) {
      Reqs.push_back(Matrix[K]);
      KeyOf.push_back(K);
      FirstUse.push_back(!Seen[K]);
      Seen[K] = true;
    }
    RequestResult Warm = request(false);
    if (!Warm.Ok)
      Error = "warm-up request failed: " + Warm.Why;
    return Warm.Ok;
  }

  RequestResult request(bool Traced) override {
    RequestResult Out;
    int64_t T0 = nowNs();
    std::optional<CompileService> Svc;
    std::vector<CompileResponse> Resps;
    {
      Span Request("request");
      Svc.emplace(serviceConfig(Dir));
      Resps = serve(*Svc, Reqs, Traced);
    }
    Out.Ms = msSince(T0);
    ServiceStats St = Svc->stats();
    if (Traced) {
      countServiceStats(St);
      // The service decodes inside compile(). Off the clock, re-decoding
      // each disk hit's image gives the deserialize layer a span.
      for (size_t I = 0; I < Reqs.size(); ++I)
        if (Resps[I].Outcome == CacheOutcome::DiskHit) {
          Span S("vm.bytecodeio.deserialize");
          VmProgram P;
          std::string Error;
          deserializeVmProgram(Images[KeyOf[I]], P, Error);
        }
    }

    size_t Unique = Images.size();
    if (St.DiskHits != Unique || St.MemoryHits != Unique || St.Misses ||
        St.CorruptArtifacts) {
      Out.Ok = false;
      Out.Why = "cache outcomes differ from set-up: " + std::to_string(St.DiskHits) +
                " disk, " + std::to_string(St.MemoryHits) + " memory, " +
                std::to_string(St.Misses) + " misses";
      return Out;
    }
    std::vector<const VmProgram *> Served(Unique, nullptr);
    for (size_t I = 0; I < Resps.size(); ++I) {
      const CompileResponse &R = Resps[I];
      CacheOutcome Want =
          FirstUse[I] ? CacheOutcome::DiskHit : CacheOutcome::MemoryHit;
      bool Same = R.Ok && R.Program && R.Outcome == Want &&
                  (FirstUse[I] ? artifactDigest(R) == Ref.Digests[KeyOf[I]]
                               : R.Program.get() == Served[KeyOf[I]]);
      if (!Same) {
        Out.Ok = false;
        Out.Why = Reqs[I].Name + ": outcome or artifact differs from set-up " +
                  R.Error;
        return Out;
      }
      Served[KeyOf[I]] = R.Program.get();
    }
    return Out;
  }

  std::map<std::string, uint64_t> exactCounters() const override {
    uint64_t D = 0;
    for (uint64_t X : Ref.Digests)
      D = splitmix64(D ^ X);
    uint64_t Order = 0;
    for (size_t K : KeyOf)
      Order = splitmix64(Order ^ K);
    return {{"requests_per_batch", Reqs.size()},
            {"bytecode_bytes", Ref.BytecodeBytes},
            {"artifact_digest", D},
            {"order_digest", Order}};
  }

private:
  BenchOptions Opts;
  std::string Dir;
  MatrixReference Ref;
  std::vector<CompileRequest> Reqs;
  std::vector<size_t> KeyOf;
  std::vector<bool> FirstUse;
  std::vector<std::string> Images;
};

} // namespace

std::unique_ptr<Workload> dpobench::makeWorkload(const BenchOptions &Opts) {
  if (Opts.Workload == "table1-cdp")
    return std::make_unique<Table1>(Opts, false);
  if (Opts.Workload == "table1-tuned")
    return std::make_unique<Table1>(Opts, true);
  if (Opts.Workload == "compile-cold")
    return std::make_unique<CompileCold>(Opts);
  if (Opts.Workload == "serve-warm")
    return std::make_unique<ServeWarm>(Opts);
  return nullptr;
}

const std::vector<std::string> &dpobench::caseMetricNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Out;
    for (const char *C :
         {"bfs-kron", "bfs-road", "sssp-kron", "sssp-road", "mstf-kron",
          "mstf-road", "mstv-kron", "mstv-web", "tc-kron", "tc-web",
          "sp-rand3", "sp-sat5", "bt-t32", "bt-t2048"}) {
      Out.push_back(std::string("case.") + C + ".exec_ms");
      Out.push_back(std::string("case.") + C + ".model_us");
    }
    return Out;
  }();
  return Names;
}
