// The correctness verdict.  It fails only on a *silent* wrong output: a
// result the program reports ok whose matching is invalid, or whose
// cardinality differs from the benchmark's own reference.  A result the
// program itself marks failed (ok=0, rejected, error, timeout) is counted
// as a failed operation and leaves the verdict passing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Verdict {
 public:
  /// One attempted operation whose outcome the program reported:
  /// `program_ok` is its own verdict, `cardinality` what it claimed, and
  /// `check` the benchmark's finding on the output (empty = matches the
  /// reference).  Returns whether the operation succeeded.
  bool judge(bool program_ok, const std::string& check,
             const std::string& what);
  /// An operation the program refused or never answered.
  void failed_op(const std::string& what);
  /// A wrong output outside any single operation (e.g. a cache hit on a
  /// graph the service cannot have seen).
  void wrong(const std::string& what);

  [[nodiscard]] bool correct() const { return wrong_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// The first few failure and wrong-output descriptions, for stderr.
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }

 private:
  void note(std::string s);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wrong_ = 0;
  std::vector<std::string> notes_;
};

/// The fields of a service `result ticket=... ok=... cardinality=...` line.
struct ResultLine {
  std::uint64_t ticket = 0;
  std::string instance;
  std::string solver;
  bool ok = false;
  bool cached = false;
  std::int64_t cardinality = -1;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  double total_ms = 0.0;
  std::string error;
};

/// Parses a `result ...` line; nullopt for any other line or a result
/// line missing a field the verdict needs.
[[nodiscard]] std::optional<ResultLine> parse_result_line(
    std::string_view line);

/// The `max=` field of an `instance ...` line answering `gen`/`load`.
[[nodiscard]] std::optional<std::int64_t> parse_instance_max(
    std::string_view line);

/// Judges one service result line against the benchmark's reference.
bool judge_result_line(Verdict& verdict, const std::optional<ResultLine>& r,
                       std::int64_t reference, const std::string& what);

}  // namespace perfbench
