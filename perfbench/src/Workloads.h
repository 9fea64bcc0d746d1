//===--- Workloads.h - The benchmark's four workloads ----------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload is a closed loop with one client. One request is one
/// fixed, identical unit of work — a sweep over the whole Table I case set
/// or the whole build matrix — so a run's latency percentiles describe the
/// program, not a mix of request sizes.
///
///  - table1-cdp:   compile the 7 Table I sources untransformed, run the
///                  14 cases on the VM, check every payload (launch-heavy).
///  - table1-tuned: the same through each source's committed tuned
///                  threshold/coarsen/aggregate pipeline (dispatch-heavy).
///  - compile-cold: compile the whole build matrix on a fresh
///                  CompileService without a disk layer (every key a Miss).
///  - serve-warm:   one compileBatch on a fresh CompileService over a disk
///                  cache filled at set-up; every key twice, so each is a
///                  DiskHit and then a MemoryHit.
///
//===----------------------------------------------------------------------===//

#ifndef DPOBENCH_WORKLOADS_H
#define DPOBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dpobench {

struct BenchOptions {
  std::string Workload;
  uint64_t Seed = 1;
  std::string RepoRoot; ///< Checkout root: reads bench/tuned/.
  std::string WorkDir;  ///< Scratch space inside the checkout.
};

struct RequestResult {
  double Ms = 0; ///< Timed part of the request.
  bool Ok = true;
  std::string Why; ///< First failed check, when !Ok.
};

/// Metrics a workload adds after the timed window (trace runs only).
using MetricMap = std::map<std::string, double>;

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed, computes every expected output, and
  /// runs one warm-up request that records the exact counters later
  /// requests must reproduce. Returns false with \p Error on failure.
  virtual bool setup(std::string &Error) = 0;

  /// After set-up, off the clock: where the seed generates the datasets,
  /// checks that seed N+1 generates different ones.
  virtual bool otherSeedDiffers(std::string & /*Error*/) { return true; }

  /// One request. \p Traced requests record spans around each layer call.
  virtual RequestResult request(bool Traced) = 0;

  /// Exact, seed-determined counters of one request (vm_steps,
  /// bytecode_bytes, ...), plus dataset digests. Two set-ups with one seed
  /// must agree on all of them.
  virtual std::map<std::string, uint64_t> exactCounters() const = 0;

  /// Untimed verification pass after the window (trace runs): model
  /// pricing of the grid logs and set-up layer timings.
  virtual MetricMap afterWindow(std::string & /*Error*/) { return {}; }
};

/// Returns null for an unknown workload name.
std::unique_ptr<Workload> makeWorkload(const BenchOptions &Opts);

/// Per-layer metric names of the traced run that are per-case rows.
const std::vector<std::string> &caseMetricNames();

} // namespace dpobench

#endif // DPOBENCH_WORKLOADS_H
