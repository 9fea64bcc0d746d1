//===--- Trace.cpp --------------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>

using namespace dpobench;

Tracer &dpobench::tracer() {
  static Tracer T;
  return T;
}

int32_t Tracer::open(const char *Name) {
  SpanRecord S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request = Request;
  S.StartNs = nowNs();
  Spans.push_back(S);
  int32_t Id = (int32_t)Spans.size() - 1;
  Stack.push_back(Id);
  return Id;
}

void Tracer::close(int32_t Id) {
  Spans[Id].EndNs = nowNs();
  // Spans are RAII-scoped, so they close in stack order.
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

void Tracer::count(const std::string &Name, double N) {
  Counts[Request][Name] += N;
}

std::map<uint32_t, std::map<std::string, double>>
Tracer::timesMs(bool Inclusive) const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0 && !Inclusive)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<uint32_t, std::map<std::string, double>> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    Out[S.Request][S.Name] += (S.EndNs - S.StartNs - ChildNs[I]) / 1e6;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "# name\tstart_us\tend_us\tparent\trequest\n");
  int64_t T0 = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const SpanRecord &S : Spans)
    std::fprintf(F, "%s\t%.3f\t%.3f\t%d\t%u\n", S.Name,
                 (S.StartNs - T0) / 1e3, (S.EndNs - T0) / 1e3, S.Parent,
                 S.Request);
  return std::fclose(F) == 0;
}
