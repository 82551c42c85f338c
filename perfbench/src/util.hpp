// Small helpers shared by every part of the benchmark: clocks, order
// statistics, deterministic seeding and the metric sink that prints the
// final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time the whole process (every thread) has used, in milliseconds.
/// Unlike wall time it does not grow while a virtual CPU waits for its
/// host, so it is the steadier measure of the work a call does.
[[nodiscard]] inline double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolation percentile (q in [0, 100]) of `v`, the same rule
/// as numpy's default; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}
/// Geometric mean of positive values; 0 for an empty sample.
[[nodiscard]] double geomean(const std::vector<double>& v);

/// SplitMix64 step: the benchmark derives every per-input seed from the
/// workload seed through this, so one `--seed` fixes all inputs.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t x);
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t a,
                                               std::uint64_t b = 0) {
  return mix_seed(mix_seed(seed ^ mix_seed(a + 0x51ull)) ^ (b * 0x9e37ull));
}

/// Time samples grouped by (spec, instance key): the shape behind every
/// `*_geomean_ms` metric — the geometric mean over instances of each
/// instance's median time to a verified result.
class TimeTable {
 public:
  void add(const std::string& spec, const std::string& instance, double ms) {
    cells_[spec][instance].push_back(ms);
    all_.push_back(ms);
  }
  /// Geomean over the instances of `spec` of their median time; 0 when the
  /// spec never completed.
  [[nodiscard]] double spec_geomean(const std::string& spec) const;
  /// The same over every (spec, instance) pair.
  [[nodiscard]] double mix_geomean() const;
  [[nodiscard]] const std::vector<double>& all() const { return all_; }
  /// Geomean over the pairs both tables hold of this table's median over
  /// `base`'s; the ratio of mix geomeans when they share no pair.
  [[nodiscard]] double ratio_to(const TimeTable& base) const;
  /// The median of every (spec, instance) pair, so each pair counts once
  /// however many repetitions the window gave it.
  [[nodiscard]] std::vector<double> pair_medians() const;

 private:
  std::map<std::string, std::map<std::string, std::vector<double>>> cells_;
  std::vector<double> all_;
};

/// Metric name → (value, unit), printed in insertion-independent sorted
/// order inside the final result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// `value` formatted with all the digits a double carries.
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& s);

/// The last stdout line the benchmark contract asks for.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const Metrics& metrics);

}  // namespace perfbench
