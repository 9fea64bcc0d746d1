//===--- Main.cpp - dpobench: the end-to-end benchmark ---------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dpobench --workload NAME --seed N --seconds S --trace 0|1
///          --repo-root DIR --work-dir DIR
///
/// Sets the workload up, then runs a closed loop with one client for S
/// seconds. Eight more set-ups run in fresh processes of this program
/// (--setup-only 1), spread evenly over the window so that they sample the
/// same host conditions as the requests; setup_s is the median of all
/// nine, and every set-up must record identical exact counters. The
/// set-ups' time counts against the window. With --trace 0 every request
/// is untraced and the
/// last stdout line carries the end-to-end metrics. With --trace 1
/// requests alternate untraced and traced; the last line carries the
/// per-layer metrics (medians over traced requests) and the tracing
/// overhead, and the spans are written to WORK_DIR at exit.
///
/// Each request's outputs are checked; a failed check counts against
/// ok_frac and never aborts the run.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace dpobench;

namespace {

struct Metric {
  const char *Name;
  const char *Unit;
};

// Must match BENCHMARK.json's end_to_end list.
const Metric EndToEnd[] = {
    {"throughput_rps", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"}, {"ok_frac", "fraction"},
    {"setup_s", "s"},          {"bytecode_bytes", "bytes"},
};

// Must match BENCHMARK.json's per_layer list (the per-case rows follow).
const Metric PerLayer[] = {
    {"parse.ms", "ms"},
    {"parse.reparse_ms", "ms"},
    {"parse.bytes", "bytes"},
    {"transform.self_ms", "ms"},
    {"transform.emitted_bytes", "bytes"},
    {"vm.compile.ms", "ms"},
    {"vm.compile.instrs", "count"},
    {"vm.peephole.ms", "ms"},
    {"vm.peephole.instrs_before", "count"},
    {"vm.peephole.instrs_after", "count"},
    {"vm.bytecodeio.serialize_ms", "ms"},
    {"vm.bytecodeio.deserialize_ms", "ms"},
    {"service.miss_ms", "ms"},
    {"service.disk_hit_ms", "ms"},
    {"service.mem_hit_ms", "ms"},
    {"service.misses", "count"},
    {"service.disk_hits", "count"},
    {"service.mem_hits", "count"},
    {"service.corrupt", "count"},
    {"vm.device.load_ms", "ms"},
    {"vm.device.traces_formed", "count"},
    {"vm.device.trace_instrs", "count"},
    {"vm.exec.ms", "ms"},
    {"vm.exec.steps_per_us", "steps/us"},
    {"vm.exec.grids", "count"},
    {"vm.exec.blocks", "count"},
    {"vm.exec.threads", "count"},
    {"vm.exec.us_per_grid", "us"},
    {"vm.exec.trace_entries", "count"},
    {"vm.exec.trace_side_exit_ratio", "ratio"},
    {"vm.exec.spec_guard_pass", "count"},
    {"vm.exec.spec_guard_fail", "count"},
    {"vm_steps", "count"},
    {"device_launches", "count"},
    {"workloads.stage_ms", "ms"},
    {"workloads.run_case_ms", "ms"},
    {"workloads.check_ms", "ms"},
    {"workloads.reference_ms", "ms"},
    {"tuner.price_ms", "ms"},
    {"model_us_geomean", "us"},
    {"model_speedup_geomean", "x"},
    {"request.self_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"trace.latency_untraced_ms", "ms"},
    {"trace.latency_traced_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Span name -> per-layer metric, and whether the metric is the span's
/// self time (layers) or whole time (service outcomes, which wrap layers).
struct SpanMetric {
  const char *Span;
  const char *Metric;
  bool Inclusive;
};
const SpanMetric SpanMetrics[] = {
    {"parse", "parse.ms", false},
    {"parse.reparse", "parse.reparse_ms", false},
    {"transform", "transform.self_ms", false},
    {"vm.compile", "vm.compile.ms", false},
    {"vm.peephole", "vm.peephole.ms", false},
    {"vm.bytecodeio.serialize", "vm.bytecodeio.serialize_ms", false},
    {"vm.bytecodeio.deserialize", "vm.bytecodeio.deserialize_ms", false},
    {"service.miss", "service.miss_ms", true},
    {"service.disk_hit", "service.disk_hit_ms", true},
    {"service.mem_hit", "service.mem_hit_ms", true},
    {"vm.device.load", "vm.device.load_ms", false},
    {"workloads.stage", "workloads.stage_ms", false},
    {"workloads.run_case", "workloads.run_case_ms", false},
    {"workloads.check", "workloads.check_ms", false},
    {"request", "request.self_ms", false},
};

/// Set-ups per run; setup_s is their median.
constexpr unsigned Setups = 9;

struct Args {
  BenchOptions Bench;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false; ///< Run one set-up, print its result, exit.
};

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Error) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      Error = "missing value for " + Flag;
      return false;
    }
    std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Bench.Workload = V;
    } else if (Flag == "--seed") {
      A.Bench.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1") {
        Error = "--trace takes 0 or 1";
        return false;
      }
      A.Trace = V == "1";
    } else if (Flag == "--setup-only") {
      A.SetupOnly = V == "1";
    } else if (Flag == "--repo-root") {
      A.Bench.RepoRoot = V;
    } else if (Flag == "--work-dir") {
      A.Bench.WorkDir = V;
    } else {
      Error = "unknown flag " + Flag;
      return false;
    }
    if ((Flag == "--seed" || Flag == "--seconds") &&
        (!End || *End || V.empty())) {
      Error = "bad value for " + Flag + ": " + V;
      return false;
    }
  }
  if (A.Bench.Workload.empty() || A.Bench.RepoRoot.empty() ||
      A.Bench.WorkDir.empty() || A.Seconds <= 0) {
    Error = "need --workload, --repo-root, --work-dir and --seconds > 0";
    return false;
  }
  return true;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string jsonCounters(const std::map<std::string, uint64_t> &C) {
  std::string S = "{";
  for (const auto &[K, V] : C)
    S += (S.size() > 1 ? ", \"" : "\"") + K + "\": " + std::to_string(V);
  return S + "}";
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<std::pair<Metric, double>> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].first.Name, Metrics[I].second,
                Metrics[I].first.Unit);
  std::printf("}}\n");
}

/// Runs one set-up in a fresh process of this program (\p Self), so that
/// every sample times the same work from the same start. Reports its
/// duration and its exact counters (as JSON).
bool setupInChild(const char *Self, const BenchOptions &Opts, double &Seconds,
                  std::string &Exact, std::string &Error) {
  int Fd[2];
  if (pipe(Fd) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, Fd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&FA, Fd[0]);
  posix_spawn_file_actions_addclose(&FA, Fd[1]);
  std::string Seed = std::to_string(Opts.Seed);
  const char *Argv[] = {Self,           "--setup-only", "1",
                        "--workload",   Opts.Workload.c_str(),
                        "--seed",       Seed.c_str(),
                        "--repo-root",  Opts.RepoRoot.c_str(),
                        "--work-dir",   Opts.WorkDir.c_str(),
                        nullptr};
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, Self, &FA, nullptr, const_cast<char **>(Argv),
                       environ);
  posix_spawn_file_actions_destroy(&FA);
  close(Fd[1]);
  if (Rc != 0) {
    close(Fd[0]);
    Error = std::string("posix_spawn: ") + std::strerror(Rc);
    return false;
  }
  std::string Msg;
  char Buf[4096];
  ssize_t N;
  while ((N = read(Fd[0], Buf, sizeof(Buf))) > 0)
    Msg.append(Buf, (size_t)N);
  close(Fd[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      Msg.compare(0, 3, "ok ") != 0) {
    Error = Msg.empty() ? "set-up process died" : Msg;
    return false;
  }
  char *End = nullptr;
  Seconds = std::strtod(Msg.c_str() + 3, &End);
  Exact = End && *End == ' ' ? std::string(End + 1) : std::string();
  return true;
}

/// Median over traced requests of each per-layer metric, with the derived
/// ratios computed per request first.
MetricMap perLayerMedians(const std::vector<uint32_t> &Traced) {
  const Tracer &T = tracer();
  auto Self = T.timesMs(false), Whole = T.timesMs(true);
  std::map<std::string, std::vector<double>> Samples;
  for (uint32_t Id : Traced) {
    MetricMap Row;
    for (const SpanMetric &SM : SpanMetrics) {
      auto &Times = SM.Inclusive ? Whole : Self;
      auto It = Times[Id].find(SM.Span);
      Row[SM.Metric] = It == Times[Id].end() ? 0 : It->second;
    }
    auto CIt = T.counts().find(Id);
    if (CIt != T.counts().end())
      for (const auto &[K, V] : CIt->second)
        Row[K] = V;
    // The host round loop and its launches: the library call minus what
    // the probe timed for device load and staging.
    Row["vm.exec.ms"] = std::max(0.0, Row["workloads.run_case_ms"] -
                                          Row["vm.device.load_ms"] -
                                          Row["workloads.stage_ms"]);
    double ExecUs = Row["vm.exec.ms"] * 1e3;
    Row["vm.exec.steps_per_us"] = ExecUs > 0 ? Row["vm_steps"] / ExecUs : 0;
    Row["vm.exec.us_per_grid"] =
        Row["vm.exec.grids"] > 0 ? ExecUs / Row["vm.exec.grids"] : 0;
    Row["vm.exec.trace_side_exit_ratio"] =
        Row["vm.exec.trace_entries"] > 0
            ? Row["vm.exec.trace_side_exits"] / Row["vm.exec.trace_entries"]
            : 0;
    for (const auto &[K, V] : Row)
      Samples[K].push_back(V);
  }
  MetricMap Out;
  for (const auto &[K, V] : Samples)
    Out[K] = median(V);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Error;
  if (!parseArgs(Argc, Argv, A, Error)) {
    std::fprintf(stderr, "dpobench: %s\n", Error.c_str());
    return 2;
  }
  if (!makeWorkload(A.Bench)) {
    std::fprintf(stderr, "dpobench: unknown workload '%s'\n",
                 A.Bench.Workload.c_str());
    return 2;
  }
  // Worker counts are pinned in code (Device::setWorkers(1), service
  // Workers = 1); the engine is the default one. Drop every environment
  // override so the run does not depend on the caller's shell.
  for (const char *Var : {"DPO_VM_EXEC", "DPO_VM_WORKERS", "DPO_SERVICE_WORKERS",
                          "DPO_TUNER_WORKERS", "DPO_CACHE_DIR",
                          "DPO_CACHE_MAX_BYTES", "DPO_TRACE_DUMP"})
    unsetenv(Var);
  std::error_code EC;
  std::filesystem::create_directories(A.Bench.WorkDir, EC);

  if (A.SetupOnly) {
    int64_t T0 = nowNs();
    std::unique_ptr<Workload> W = makeWorkload(A.Bench);
    if (!W->setup(Error)) {
      std::printf("error %s", Error.c_str());
      return 1;
    }
    std::printf("ok %.17g %s", (nowNs() - T0) / 1e9,
                jsonCounters(W->exactCounters()).c_str());
    return 0;
  }

  // The set-up the window runs on, in this process.
  std::vector<double> SetupS;
  int64_t T0 = nowNs();
  std::unique_ptr<Workload> W = makeWorkload(A.Bench);
  if (!W->setup(Error)) {
    std::fprintf(stderr, "dpobench: set-up failed: %s\n", Error.c_str());
    return 1;
  }
  SetupS.push_back((nowNs() - T0) / 1e9);
  std::map<std::string, uint64_t> Counters = W->exactCounters();
  const std::string Exact = jsonCounters(Counters);
  std::string SeedError;
  bool SeedsDiffer = W->otherSeedDiffers(SeedError);

  // The other set-ups, each in a fresh process, at evenly spaced marks of
  // the window; each must record this process's exact counters.
  bool SetupsAgree = true;
  unsigned Spawned = 0;
  auto spawnSetup = [&] {
    double Seconds = 0;
    std::string ChildExact;
    if (!setupInChild(Argv[0], A.Bench, Seconds, ChildExact, Error))
      return false;
    SetupS.push_back(Seconds);
    SetupsAgree &= ChildExact == Exact;
    ++Spawned;
    return true;
  };

  // The timed window: a closed loop, one client.
  std::vector<double> Untraced, TracedMs;
  std::vector<uint32_t> TracedIds;
  size_t Attempted = 0, Failed = 0;
  std::string FirstFailure;
  const int64_t Start = nowNs(), WindowNs = (int64_t)(A.Seconds * 1e9);
  const int64_t Deadline = Start + WindowNs;
  bool SetupFailed = false;
  do {
    while (!SetupFailed && Spawned + 1 < Setups &&
           nowNs() >= Start + (int64_t)((Spawned + 0.5) * WindowNs /
                                        (Setups - 1)))
      SetupFailed = !spawnSetup();
    if (SetupFailed)
      break;
    bool Traced = A.Trace && Attempted % 2 == 1;
    uint32_t Id = (uint32_t)Attempted;
    RequestResult R;
    if (Traced) {
      tracer().setRequest(Id);
      tracer().setEnabled(true);
      R = W->request(true);
      tracer().setEnabled(false);
      TracedIds.push_back(Id);
      TracedMs.push_back(R.Ms);
    } else {
      R = W->request(false);
      Untraced.push_back(R.Ms);
    }
    ++Attempted;
    if (!R.Ok) {
      ++Failed;
      if (FirstFailure.empty())
        FirstFailure = R.Why;
    }
  } while (nowNs() < Deadline);
  while (!SetupFailed && Spawned + 1 < Setups)
    SetupFailed = !spawnSetup();
  if (SetupFailed) {
    std::fprintf(stderr, "dpobench: set-up failed: %s\n", Error.c_str());
    return 1;
  }

  std::printf("# workload %s seed %llu: %zu requests (%zu traced), %zu failed\n",
              A.Bench.Workload.c_str(), (unsigned long long)A.Bench.Seed,
              Attempted, TracedIds.size(), Failed);
  if (!FirstFailure.empty())
    std::printf("# first failure: %s\n", FirstFailure.c_str());
  if (!SetupsAgree)
    std::printf("# exact counters differ between set-ups of one seed\n");
  if (!SeedsDiffer)
    std::printf("# %s\n", SeedError.c_str());
  std::printf("# exact %s\n", Exact.c_str());
  bool Correct = Failed == 0 && SetupsAgree && SeedsDiffer;

  std::vector<std::pair<Metric, double>> Out;
  if (!A.Trace) {
    std::vector<double> L = Untraced;
    std::sort(L.begin(), L.end());
    size_t N = L.size();
    // The highest percentile with at least ten samples beyond it.
    size_t TailIdx = N > 10 ? N - 11 : N - 1;
    double TotalS = 0;
    for (double Ms : L)
      TotalS += Ms / 1e3;
    std::printf("# latency_tail_ms is p%.1f of %zu samples (%zu beyond it)\n",
                100.0 * (TailIdx + 1) / N, N, N - 1 - TailIdx);
    MetricMap M = {
        {"throughput_rps", N / TotalS},
        {"latency_p50_ms", median(L)},
        {"latency_tail_ms", L[TailIdx]},
        {"ok_frac", (double)(Attempted - Failed) / Attempted},
        {"setup_s", median(SetupS)},
        {"bytecode_bytes", (double)Counters["bytecode_bytes"]},
    };
    for (const Metric &Mt : EndToEnd)
      Out.push_back({Mt, M[Mt.Name]});
  } else {
    MetricMap M = perLayerMedians(TracedIds);
    MetricMap After = W->afterWindow(Error);
    if (!Error.empty()) {
      std::printf("# verification pass failed: %s\n", Error.c_str());
      Correct = false;
    }
    M.insert(After.begin(), After.end());
    double U = median(Untraced), T = median(TracedMs);
    M["peak_rss_mb"] = peakRssMb();
    M["trace.latency_untraced_ms"] = U;
    M["trace.latency_traced_ms"] = T;
    M["trace.overhead_pct"] = U > 0 ? (T / U - 1) * 100 : 0;
    std::vector<Metric> All(std::begin(PerLayer), std::end(PerLayer));
    for (const std::string &C : caseMetricNames())
      All.push_back({C.c_str(), C.ends_with("_ms") ? "ms" : "us"});
    for (const Metric &Mt : All)
      Out.push_back({Mt, M.count(Mt.Name) ? M[Mt.Name] : 0.0});
    std::string Path = A.Bench.WorkDir + "/spans-" + A.Bench.Workload + "-" +
                       std::to_string(A.Bench.Seed) + ".tsv";
    if (tracer().write(Path))
      std::printf("# %zu spans written to %s\n", tracer().spans().size(),
                  Path.c_str());
    for (const auto &[Mt, V] : Out)
      std::printf("# %-34s %14.4f %s\n", Mt.Name, V, Mt.Unit);
  }
  if (!A.Trace)
    for (const auto &[Mt, V] : Out)
      std::printf("# %-18s %14.4f %s\n", Mt.Name, V, Mt.Unit);
  W.reset(); // removes the workload's scratch files
  printResult(Correct, Attempted, Failed, Out);
  return 0;
}
