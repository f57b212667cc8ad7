// Span recorder of the traced run. The benchmark's own code opens a span
// around each call into a layer's public entry point; spans stay in memory
// (one recorder per client thread, no locking) and are written as JSON
// lines when the run ends. With tracing off, Begin/End are no-ops.
#ifndef RCBENCH_TRACE_H_
#define RCBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace rcbench {

class Tracer {
 public:
  struct Span {
    int name = 0;         ///< index into names()
    uint64_t op = 0;      ///< operation the span belongs to
    int64_t parent = -1;  ///< index of the causing span, -1 for a root
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  /// Interned id of a span name ("db.query", "engine.execute.grid", ...).
  int Name(const std::string& name);

  /// Opens a span and returns its index (-1 when tracing is off).
  int64_t Begin(int name, uint64_t op, int64_t parent = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, op, parent, NowNs(), 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Durations in nanoseconds of every span called `name`.
  std::vector<double> DurationsNs(const std::string& name) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, int name, uint64_t op, int64_t parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// Writes the spans of `tracers` (thread index = position) as JSON lines:
/// {"thread":..,"name":..,"op":..,"parent":..,"start_ns":..,"end_ns":..}.
/// Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

}  // namespace rcbench

#endif  // RCBENCH_TRACE_H_
