#include "policy/auto_solver.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace bpm::policy {

namespace {

constexpr double kOnlineAlpha = 0.3;

}  // namespace

PolicyEngine::PolicyEngine() {
  if (const char* path = std::getenv("BPM_POLICY_MODEL");
      path != nullptr && *path != '\0')
    model_ = CostModel::load(path);
  else
    model_ = CostModel::embedded_default();
}

PolicyEngine::PolicyEngine(CostModel model) : model_(std::move(model)) {}

PolicyEngine& PolicyEngine::global() {
  static PolicyEngine engine;
  return engine;
}

void PolicyEngine::set_model(CostModel model) {
  const std::lock_guard lock(mutex_);
  model_ = std::move(model);
}

CostModel PolicyEngine::model_snapshot() const {
  const std::lock_guard lock(mutex_);
  return model_;
}

const std::vector<std::string>& PolicyEngine::fallback_pool() {
  // Exact solvers only — an `auto` resolution must always pass the same
  // verification an explicit request would.  Covers every family: the
  // device push-relabel pair, the CPU augmenting-path codes, the
  // sequential push-relabel, and the multicore searcher.
  static const std::vector<std::string> pool = {
      "g-pr-wb", "g-pr-shr", "hk", "hkdw", "pf", "p-dbfs", "seq-pr"};
  return pool;
}

void PolicyEngine::bump_counter(const char* name, std::uint64_t n) {
  obs::Registry::global().counter(name).add(n);
}

PolicyEngine::Choice PolicyEngine::choose(const InstanceFeatures& f,
                                          double explore,
                                          const CostModel* model_override) {
  Choice out;
  const BucketId bucket = bucket_of(f);
  out.bucket = bucket.key();

  // Candidate pool: the calibrated (nearest) bucket's specs, else the
  // fixed exact pool.
  std::vector<std::pair<std::string, double>> candidates;  // spec, table us/e
  {
    const std::lock_guard lock(mutex_);
    const CostModel& model = model_override ? *model_override : model_;
    if (const CostModel::SpecTable* table = model.lookup(bucket)) {
      for (const auto& [spec, entry] : *table)
        candidates.emplace_back(spec, entry.us_per_edge);
    }
    if (candidates.empty()) {
      out.fallback = true;
      for (const std::string& spec : fallback_pool())
        candidates.emplace_back(spec, 0.0);
    }

    // Epsilon-greedy: with probability `explore`, re-measure a uniformly
    // random candidate instead of exploiting the estimate.
    if (explore > 0.0 && candidates.size() > 1) {
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      if (coin(rng_) < explore) {
        std::uniform_int_distribution<std::size_t> pick(0,
                                                        candidates.size() - 1);
        const auto& [spec, us] = candidates[pick(rng_)];
        out.spec = SolverSpec::parse(spec);
        out.explored = true;
      }
    }

    if (!out.explored) {
      // Exploit: cheapest by online estimate (when sampled) or the table.
      std::size_t best = 0;
      double best_cost = 0.0;
      bool best_online = false;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        double cost = candidates[c].second;
        bool online = false;
        const auto it = online_.find({out.bucket, candidates[c].first});
        if (it != online_.end() && it->second.samples > 0) {
          cost = it->second.us_per_edge;
          online = true;
        }
        if (c == 0 || cost < best_cost) {
          best = c;
          best_cost = cost;
          best_online = online;
        }
      }
      out.spec = SolverSpec::parse(candidates[best].first);
      out.from_online = best_online;
    }
  }

  out.spec.resolved_from = "auto";
  bump_counter("policy.resolves");
  if (out.explored) bump_counter("policy.explores");
  if (out.fallback)
    bump_counter("policy.fallbacks");
  else
    bump_counter("policy.model_hits");
  return out;
}

void PolicyEngine::observe(const InstanceFeatures& f, const std::string& spec,
                           double wall_ms) {
  if (f.edges <= 0 || wall_ms < 0.0) return;
  const double us_per_edge = wall_ms * 1e3 / static_cast<double>(f.edges);
  const std::string bucket = bucket_of(f).key();
  std::size_t buckets = 0;
  {
    const std::lock_guard lock(mutex_);
    Online& o = online_[{bucket, spec}];
    o.us_per_edge = o.samples == 0
                        ? us_per_edge
                        : o.us_per_edge * (1.0 - kOnlineAlpha) +
                              us_per_edge * kOnlineAlpha;
    ++o.samples;
    buckets = online_.size();
  }
  bump_counter("policy.observations");
  obs::Registry::global()
      .gauge("policy.online_cells")
      .set(static_cast<double>(buckets));
}

std::vector<PolicyEngine::OnlineEstimate> PolicyEngine::online_snapshot()
    const {
  const std::lock_guard lock(mutex_);
  std::vector<OnlineEstimate> out;
  out.reserve(online_.size());
  for (const auto& [key, o] : online_)  // map: sorted by (bucket, spec)
    out.push_back({key.first, key.second, o.us_per_edge, o.samples});
  return out;
}

void PolicyEngine::reset_online() {
  const std::lock_guard lock(mutex_);
  online_.clear();
}

// ---- AutoSolver ------------------------------------------------------------

bool AutoSolver::set_option(std::string_view key, std::string_view value) {
  if (key == "model") {
    model_override_ = CostModel::load(std::string(value));
  } else if (key == "explore") {
    char* end = nullptr;
    const std::string v(value);
    explore_ = std::strtod(v.c_str(), &end);
    if (v.empty() || end != v.c_str() + v.size() ||
        !(explore_ >= 0.0 && explore_ <= 1.0))
      throw std::invalid_argument(
          "option 'explore' wants a probability in [0, 1], got '" + v + "'");
  } else {
    return false;
  }
  return true;
}

AutoSolver::Resolved AutoSolver::resolve(const InstanceFeatures& f) const {
  PolicyEngine::Choice choice = engine_->choose(
      f, explore_, model_override_ ? &*model_override_ : nullptr);
  Resolved out;
  out.solver = choice.spec.instantiate();
  out.spec = std::move(choice.spec);
  out.bucket = std::move(choice.bucket);
  out.explored = choice.explored;
  out.from_online = choice.from_online;
  out.fallback = choice.fallback;
  return out;
}

SolveResult AutoSolver::run(const SolveContext& ctx,
                            const graph::BipartiteGraph& g,
                            const matching::Matching& init) const {
  Timer t;
  const InstanceFeatures features = compute_features(g, init.cardinality());
  const Resolved resolved = resolve(features);
  SolveResult result = resolved.solver->run(ctx, g, init);
  // The resolution provenance, ahead of the inner solver's own detail —
  // this is how pipeline reports and ticket stats carry the chosen spec.
  std::ostringstream d;
  d << "auto -> " << resolved.spec.canonical() << " [bucket="
    << resolved.bucket << ", "
    << (resolved.explored     ? "explored"
        : resolved.from_online ? "online"
        : resolved.fallback    ? "fallback"
                               : "model")
    << "]";
  if (!result.stats.detail.empty()) d << "; " << result.stats.detail;
  result.stats.detail = d.str();
  // Charge the full wall (features + resolution + solve) and feed it
  // back: what the caller waited for is what the estimate must predict.
  result.stats.wall_ms = t.elapsed_ms();
  engine_->observe(features, resolved.spec.canonical(), result.stats.wall_ms);
  return result;
}

}  // namespace bpm::policy
