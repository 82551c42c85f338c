// In-memory span log for the traced run.  The benchmark records a span
// around each call it makes into a module's public functions; spans of one
// job or request share its id and nest under it, so a layer's self time is
// its spans' duration minus what their children cover.  Nothing is
// written until the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

class SpanLog {
 public:
  static constexpr std::int64_t kNoParent = -1;

  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its handle (kNoParent when disabled).
  std::int64_t begin(const char* layer, std::string name, std::uint64_t id,
                     std::int64_t parent = kNoParent);
  void end(std::int64_t handle);
  /// Records an already-measured interval, e.g. the queue and service
  /// times the service reports for a request, placed inside its parent.
  void add(const char* layer, std::string name, std::uint64_t id,
           std::int64_t parent, Clock::time_point start,
           Clock::time_point end);

  /// Per layer: summed self time (duration minus the union of its
  /// children's intervals), in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Number of root spans (one per job or request).
  [[nodiscard]] std::size_t roots() const;
  [[nodiscard]] std::size_t size() const;

  /// Chrome trace-event JSON of the first `max_spans` spans (`id` and
  /// `parent` in args); a long serve window records far more.
  bool write_json(const std::string& path,
                  std::size_t max_spans = 20000) const;

  /// RAII helper: a span over a scope.
  class Scope {
   public:
    Scope(SpanLog& log, const char* layer, std::string name, std::uint64_t id,
          std::int64_t parent = kNoParent)
        : log_(log), handle_(log.begin(layer, std::move(name), id, parent)) {}
    ~Scope() { log_.end(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int64_t handle() const { return handle_; }

   private:
    SpanLog& log_;
    std::int64_t handle_;
  };

 private:
  struct Span {
    const char* layer;
    std::string name;
    std::uint64_t id;
    std::int64_t parent;
    double start_us;
    double end_us;
  };

  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
