#include "spans.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::int64_t SpanLog::begin(const char* layer, std::string name,
                            std::uint64_t id, std::int64_t parent) {
  if (!enabled_) return kNoParent;
  const double now = us(Clock::now());
  const std::lock_guard lock(mutex_);
  spans_.push_back({layer, std::move(name), id, parent, now, now});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t handle) {
  if (!enabled_ || handle < 0) return;
  const double now = us(Clock::now());
  const std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(handle)].end_us = now;
}

void SpanLog::add(const char* layer, std::string name, std::uint64_t id,
                  std::int64_t parent, Clock::time_point start,
                  Clock::time_point end) {
  if (!enabled_) return;
  const std::lock_guard lock(mutex_);
  spans_.push_back({layer, std::move(name), id, parent, us(start), us(end)});
}

std::map<std::string, double> SpanLog::self_ms() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  std::map<std::string, double> out;
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    cover.clear();
    for (std::size_t c : children[i])
      cover.emplace_back(std::max(spans_[c].start_us, s.start_us),
                         std::min(spans_[c].end_us, s.end_us));
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, reach = s.start_us;
    for (const auto& [a, b] : cover) {
      const double lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    out[s.layer] += std::max(0.0, (s.end_us - s.start_us) - covered) / 1000.0;
  }
  return out;
}

std::size_t SpanLog::roots() const {
  const std::lock_guard lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [](const Span& s) { return s.parent < 0; }));
}

std::size_t SpanLog::size() const {
  const std::lock_guard lock(mutex_);
  return spans_.size();
}

bool SpanLog::write_json(const std::string& path,
                         std::size_t max_spans) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::lock_guard lock(mutex_);
  const std::size_t n = std::min(max_spans, spans_.size());
  os << "{\"recordedSpans\": " << spans_.size() << ", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\": " << json_string(s.name)
       << ", \"cat\": " << json_string(s.layer)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.id % 64
       << ", \"ts\": " << json_number(s.start_us)
       << ", \"dur\": " << json_number(s.end_us - s.start_us)
       << ", \"args\": {\"id\": " << s.id << ", \"span\": " << i
       << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
