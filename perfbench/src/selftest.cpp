// Self-tests of the benchmark's own machinery: the verdict, the reference,
// the order statistics, the result-line parser, span self time, and the
// determinism of the seeded inputs.  `perfbench --selftest` runs them, and
// `run.py` does so after every build.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "reference.hpp"
#include "serve/proto.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "verdict.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9 * (1 + std::fabs(b)); }

void test_statistics() {
  expect(near(geomean({1, 4, 16}), 4.0), "geomean of 1,4,16 is 4");
  expect(near(percentile({1, 2, 3, 4}, 50), 2.5), "median of 1..4 is 2.5");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  expect(near(percentile(v, 99), 100.0), "p99 of 1..101 is 100");
  expect(near(percentile(v, 0), 1.0) && near(percentile(v, 100), 101.0),
         "p0/p100 are the extremes");
  expect(percentile({}, 50) == 0.0 && geomean({}) == 0.0, "empty samples read 0");
  TimeTable t;
  for (double x : {1.0, 3.0, 100.0}) t.add("g-pr-shr", "a", x);
  t.add("g-pr-shr", "b", 12.0);
  t.add("seq-pr", "a", 2.0);
  expect(near(t.spec_geomean("g-pr-shr"), 6.0), "geomean of per-instance medians");
  expect(near(t.mix_geomean(), std::cbrt(3.0 * 12.0 * 2.0)), "mix geomean");
  expect(t.spec_geomean("hk") == 0.0, "absent spec reads 0");
}

void test_reference_and_matching_check() {
  namespace gen = bpm::graph::gen;
  const std::vector<bpm::graph::BipartiteGraph> graphs = {
      gen::planted_perfect(300, 2.0, 5), gen::random_uniform(400, 350, 700, 6),
      gen::chung_lu(500, 500, 4.0, 2.3, 7)};
  for (const auto& g : graphs) {
    const bpm::matching::Matching m =
        bpm::matching::hopcroft_karp(g, bpm::matching::cheap_matching(g));
    const std::int64_t ref = reference_cardinality(g);
    expect(ref == m.cardinality(), "own reference agrees with the library HK");
    expect(check_matching(g, m, ref).empty(), "a maximum matching passes");

    Verdict v;
    bpm::matching::Matching smaller = m;
    for (bpm::graph::index_t u = 0; u < g.num_rows(); ++u)
      if (smaller.row_match[u] >= 0) {
        smaller.col_match[smaller.row_match[u]] = -1;
        smaller.row_match[u] = -1;
        break;
      }
    v.judge(true, check_matching(g, smaller, ref), "one pair short");
    expect(!v.correct(), "a short matching reported ok fails the verdict");

    Verdict v2;
    bpm::matching::Matching corrupt = m;
    // Point a matched column at a row it has no edge to (stealing that
    // row from its mate, so both sides stay consistent).
    for (bpm::graph::index_t c = 0; c < g.num_cols(); ++c) {
      const auto nbrs = g.col_neighbors(c);
      if (corrupt.col_match[c] < 0) continue;
      bpm::graph::index_t r = 0;
      while (std::find(nbrs.begin(), nbrs.end(), r) != nbrs.end()) ++r;
      if (corrupt.row_match[r] >= 0) corrupt.col_match[corrupt.row_match[r]] = -1;
      corrupt.row_match[corrupt.col_match[c]] = -1;
      corrupt.col_match[c] = r;
      corrupt.row_match[r] = c;
      break;
    }
    v2.judge(true, check_matching(g, corrupt, ref), "corrupted");
    expect(!v2.correct(), "a corrupted matching reported ok fails the verdict");
  }
}

void test_result_lines() {
  bpm::serve::Response r;
  r.ticket = 42;
  r.instance_name = "x";
  r.solver = "seq-pr";
  r.ok = true;
  r.stats.cardinality = 2999;
  r.queue_ms = 0.25;
  r.service_ms = 1.5;
  r.total_ms = 1.75;
  const std::string ok_line = bpm::serve::proto::response_line(r);
  const auto parsed = parse_result_line(ok_line);
  expect(parsed && parsed->ticket == 42 && parsed->ok && !parsed->cached &&
             parsed->cardinality == 2999 && near(parsed->total_ms, 1.75),
         "parses the service's own result line: " + ok_line);

  Verdict wrong;
  judge_result_line(wrong, parsed, 3000, "ok=1 with 2999 of 3000");
  expect(!wrong.correct() && wrong.failed() == 0,
         "a wrong-cardinality ok=1 line fails the verdict");

  r.ok = false;
  r.error = "not maximum: got 2999, want 3000";
  Verdict failed;
  judge_result_line(failed, parse_result_line(bpm::serve::proto::response_line(r)),
                    3000, "ok=0");
  expect(failed.correct() && failed.failed() == 1 && failed.attempted() == 1,
         "an ok=0 line counts as failed and keeps the verdict passing");

  Verdict missing;
  judge_result_line(missing, parse_result_line("error code=internal msg=\"x\""),
                    3000, "error");
  expect(missing.correct() && missing.failed() == 1,
         "an error line counts as failed");
  expect(parse_instance_max("instance f1 handle=3 3000x3000 max=2999") == 2999,
         "parses max= of an instance line");
}

void test_spans() {
  SpanLog log(true);
  const auto t = Clock::now();
  const auto at = [&](int ms) { return t + std::chrono::milliseconds(ms); };
  log.add("bench", "root", 1, SpanLog::kNoParent, at(0), at(10));
  log.add("transport", "child", 1, 0, at(2), at(5));
  log.add("transport", "child", 1, 0, at(4), at(6));
  const auto self = log.self_ms();
  expect(near(self.at("bench"), 6.0), "parent self time excludes the union of children");
  expect(near(self.at("transport"), 5.0), "children keep their own time");
  expect(log.roots() == 1, "one root span");
}

void test_determinism() {
  const auto ra = repeat_instances(1), rb = repeat_instances(1), rc = repeat_instances(2);
  bool same = ra.size() == rb.size() && !ra.empty(), differs = false;
  for (std::size_t i = 0; i < ra.size() && i < rc.size(); ++i) {
    same = same && ra[i].second.gen_line(ra[i].first) == rb[i].second.gen_line(rb[i].first);
    differs = differs || ra[i].second.gen_line(ra[i].first) !=
                             rc[i].second.gen_line(rc[i].first);
  }
  expect(same, "the same seed gives identical request lists");
  expect(differs, "another seed gives different requests");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::int64_t r1 = reference_cardinality(ra[i].second.build());
    const std::int64_t r2 = reference_cardinality(rb[i].second.build());
    expect(r1 == r2 && r1 > 0, "the same seed gives identical references");
  }
  // Every kind of generated input decodes as a protocol line.
  for (const auto& [name, params] : ra)
    expect(bpm::serve::proto::parse_command(params.gen_line(name)).command.has_value(),
           "gen line decodes: " + params.gen_line(name));
}

}  // namespace

int run_selftests() {
  failures = 0;
  test_statistics();
  test_reference_and_matching_check();
  test_result_lines();
  test_spans();
  test_determinism();
  std::cout << "perfbench selftest: " << (failures == 0 ? "ok" : "FAILED")
            << " (" << failures << " failures)\n";
  return failures;
}

}  // namespace perfbench
