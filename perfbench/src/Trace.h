//===--- Trace.h - In-memory spans for the benchmark's traced run ----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark records a span around each call it makes into a layer's
/// public functions (parse, passes, bytecode compile, peephole, device
/// load, kernel launches, ...). Spans carry a name, start, end, parent and
/// request id; they stay in memory and are written out when the run
/// ends. A layer's self time is its span's duration minus the time its
/// child spans cover.
///
/// When tracing is off, Span is a no-op: the untraced measurement pays one
/// predictable branch per boundary.
///
//===----------------------------------------------------------------------===//

#ifndef DPOBENCH_TRACE_H
#define DPOBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpobench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char *Name = nullptr; ///< Static string: the layer's span name.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index into Tracer::spans(), -1 for a root.
  uint32_t Request = 0;
};

class Tracer {
public:
  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }
  /// Spans opened from now on belong to request \p Id.
  void setRequest(uint32_t Id) { Request = Id; }

  int32_t open(const char *Name);
  void close(int32_t Id);
  void rename(int32_t Id, const char *Name) { Spans[Id].Name = Name; }

  /// Adds \p N to the counter \p Name of the current request. Counters
  /// are kept per request so the report can take per-request medians.
  void count(const std::string &Name, double N);

  const std::vector<SpanRecord> &spans() const { return Spans; }
  /// request id -> counter name -> value.
  const std::map<uint32_t, std::map<std::string, double>> &counts() const {
    return Counts;
  }

  /// request id -> span name -> summed self time (ms), or summed whole
  /// span time when \p Inclusive.
  std::map<uint32_t, std::map<std::string, double>>
  timesMs(bool Inclusive) const;

  /// Writes every span as one tab-separated line
  /// (name, start_us, end_us, parent, request). Returns false on I/O
  /// failure.
  bool write(const std::string &Path) const;

private:
  bool Enabled = false;
  uint32_t Request = 0;
  std::vector<SpanRecord> Spans;
  std::vector<int32_t> Stack;
  std::map<uint32_t, std::map<std::string, double>> Counts;
};

/// The process-wide tracer the benchmark's spans report to.
Tracer &tracer();

/// RAII span: opens on construction when tracing is on, closes on scope
/// exit.
class Span {
public:
  explicit Span(const char *Name)
      : Id(tracer().enabled() ? tracer().open(Name) : -1) {}
  ~Span() {
    if (Id >= 0)
      tracer().close(Id);
  }
  /// Names the span after the fact, e.g. by the outcome of the call it
  /// timed.
  void rename(const char *Name) {
    if (Id >= 0)
      tracer().rename(Id, Name);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int32_t Id;
};

inline void count(const std::string &Name, double N) {
  if (tracer().enabled())
    tracer().count(Name, N);
}

} // namespace dpobench

#endif // DPOBENCH_TRACE_H
