#include "verdict.hpp"

#include <charconv>
#include <cstdlib>

namespace perfbench {

namespace {

constexpr std::size_t kMaxNotes = 8;

/// The value of the first ` key=` token in `line`, up to the next space;
/// nullopt when absent.
std::optional<std::string_view> field(std::string_view line,
                                      std::string_view key) {
  std::string pattern(1, ' ');
  pattern.append(key).push_back('=');
  const std::size_t pos = line.find(pattern);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::size_t value = pos + pattern.size();
  const std::size_t end = line.find(' ', value);
  return line.substr(value, end == std::string_view::npos
                                ? std::string_view::npos
                                : end - value);
}

template <typename T>
std::optional<T> number(std::optional<std::string_view> token) {
  if (!token || token->empty()) return std::nullopt;
  T out{};
  if constexpr (std::is_floating_point_v<T>) {
    // from_chars for double is available in the toolchain, but strtod keeps
    // exponent forms like 1e-05 that the service's ostream may print.
    std::string copy(*token);
    char* end = nullptr;
    out = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) return std::nullopt;
  } else {
    const auto [ptr, ec] =
        std::from_chars(token->data(), token->data() + token->size(), out);
    if (ec != std::errc() || ptr != token->data() + token->size())
      return std::nullopt;
  }
  return out;
}

}  // namespace

void Verdict::note(std::string s) {
  if (notes_.size() < kMaxNotes) notes_.push_back(std::move(s));
}

bool Verdict::judge(bool program_ok, const std::string& check,
                    const std::string& what) {
  ++attempted_;
  if (!program_ok) {
    ++failed_;
    note("failed (reported by the program): " + what);
    return false;
  }
  if (!check.empty()) {
    ++wrong_;
    note("WRONG (reported ok): " + what + ": " + check);
    return false;
  }
  return true;
}

void Verdict::failed_op(const std::string& what) {
  ++attempted_;
  ++failed_;
  note("failed: " + what);
}

void Verdict::wrong(const std::string& what) {
  ++wrong_;
  note("WRONG: " + what);
}

std::optional<ResultLine> parse_result_line(std::string_view line) {
  if (!line.starts_with("result ")) return std::nullopt;
  ResultLine r;
  const auto ticket = number<std::uint64_t>(field(line, "ticket"));
  const auto ok = number<int>(field(line, "ok"));
  const auto cached = number<int>(field(line, "cached"));
  const auto card = number<std::int64_t>(field(line, "cardinality"));
  const auto queue = number<double>(field(line, "queue_ms"));
  const auto service = number<double>(field(line, "service_ms"));
  const auto total = number<double>(field(line, "total_ms"));
  if (!ticket || !ok || !cached || !card || !queue || !service || !total)
    return std::nullopt;
  r.ticket = *ticket;
  r.ok = *ok == 1;
  r.cached = *cached == 1;
  r.cardinality = *card;
  r.queue_ms = *queue;
  r.service_ms = *service;
  r.total_ms = *total;
  if (const auto inst = field(line, "instance")) r.instance = *inst;
  if (const auto solver = field(line, "solver")) r.solver = *solver;
  if (const std::size_t e = line.find(" error="); e != std::string_view::npos)
    r.error = line.substr(e + 7);
  return r;
}

std::optional<std::int64_t> parse_instance_max(std::string_view line) {
  if (!line.starts_with("instance ")) return std::nullopt;
  return number<std::int64_t>(field(line, "max"));
}

bool judge_result_line(Verdict& verdict, const std::optional<ResultLine>& r,
                       std::int64_t reference, const std::string& what) {
  if (!r) {
    verdict.failed_op(what + ": no parsable result line");
    return false;
  }
  std::string check;
  if (r->cardinality != reference)
    check = "cardinality " + std::to_string(r->cardinality) +
            " differs from reference " + std::to_string(reference);
  return verdict.judge(r->ok, check,
                       what + (r->error.empty() ? "" : " " + r->error));
}

}  // namespace perfbench
