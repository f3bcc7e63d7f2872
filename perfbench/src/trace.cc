#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

int32_t Tracer::Begin(const std::string& name, uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.cpu = ProcessCpu();  // start value until End() turns it into a delta
  s.start = Now();
  spans_.push_back(std::move(s));
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<size_t>(id)];
  s.end = Now();
  s.cpu = ProcessCpu() - s.cpu;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int32_t Tracer::Add(const std::string& name, double start, double end,
                    int32_t parent, uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] += std::max(0.0, (s.end - s.start) - child_time[i]);
  }
  return by_layer;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"cpu_us\": %.3f}\n",
                 i == 0 ? "" : ",", i, JsonEscape(s.name).c_str(), s.parent,
                 static_cast<unsigned long long>(s.request),
                 (s.start - origin) * 1e6, (s.end - origin) * 1e6, s.cpu * 1e6);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
