// In-memory span recorder for traced runs.
//
// A span is a named interval with a parent and a request id; spans are
// kept in a vector and written out once, when the run ends. Span names
// are "<layer>.<what>", and the layer prefix is one of the repo's module
// names (graph, triangle, truss, engine, io, serve, ...) or "driver" for
// the benchmark's own request envelope. When tracing is disabled every
// call is a no-op, so measure loops can call it unconditionally.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds, steady clock
  double end = 0.0;
  double cpu = 0.0;  // process CPU seconds spent inside the span
  int32_t parent = -1;
  uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when disabled.
  int32_t Begin(const std::string& name, uint64_t request);
  /// Closes span `id` (no-op for -1). Spans close in LIFO order.
  void End(int32_t id);
  /// Records a finished span measured elsewhere (e.g. a request whose
  /// interval is only known once its response arrives).
  int32_t Add(const std::string& name, double start, double end,
              int32_t parent, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the part covered by
  /// its children, summed by the name's layer prefix.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes every span as JSON; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
