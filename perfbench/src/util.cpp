#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = (q / 100.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double TimeTable::spec_geomean(const std::string& spec) const {
  const auto it = cells_.find(spec);
  if (it == cells_.end()) return 0.0;
  std::vector<double> meds;
  for (const auto& [instance, samples] : it->second)
    meds.push_back(median(samples));
  return geomean(meds);
}

double TimeTable::mix_geomean() const { return geomean(pair_medians()); }

double TimeTable::ratio_to(const TimeTable& base) const {
  std::vector<double> ratios;
  for (const auto& [spec, by_instance] : cells_) {
    const auto b = base.cells_.find(spec);
    if (b == base.cells_.end()) continue;
    for (const auto& [instance, samples] : by_instance)
      if (const auto bi = b->second.find(instance); bi != b->second.end())
        ratios.push_back(median(samples) / median(bi->second));
  }
  return ratios.empty() ? mix_geomean() / base.mix_geomean() : geomean(ratios);
}

std::vector<double> TimeTable::pair_medians() const {
  std::vector<double> meds;
  for (const auto& [spec, by_instance] : cells_)
    for (const auto& [instance, samples] : by_instance)
      meds.push_back(median(samples));
  return meds;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    os << json_string(name) << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
