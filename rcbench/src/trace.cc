#include "trace.h"

#include <cstdio>

namespace rcbench {

int Tracer::Name(const std::string& name) {
  auto [it, inserted] = ids_.emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::vector<double> Tracer::DurationsNs(const std::string& name) const {
  std::vector<double> out;
  auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    const Tracer& tracer = *tracers[t];
    for (const Tracer::Span& s : tracer.spans()) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"name\":\"%s\",\"op\":%llu,"
                   "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, tracer.names()[static_cast<size_t>(s.name)].c_str(),
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace rcbench
