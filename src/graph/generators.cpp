#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "util/rng.hpp"

namespace bpm::graph::gen {

namespace {

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

/// `per * n` as an edge count.  The cast of an out-of-range double to
/// offset_t is undefined behaviour, not a saturated big number — so a
/// request like planted_perfect(1000, 1e18, ...) must be rejected here,
/// before the cast, with a usable message.
offset_t checked_count(double per, double n, const char* what) {
  const double product = per * n;
  if (!(product >= 0.0) ||
      product >= static_cast<double>(std::numeric_limits<offset_t>::max()))
    throw std::invalid_argument(std::string(what) +
                                ": implied edge count overflows");
  return static_cast<offset_t>(product);
}

/// Emit both (i,j) and (j,i) — generators that model symmetric adjacency
/// matrices of undirected graphs use this.
void push_symmetric(std::vector<Edge>& edges, index_t i, index_t j) {
  edges.push_back({i, j});
  edges.push_back({j, i});
}

/// Inverse-CDF lookup `upper_bound(cdf, target)` with a guide table
/// (Chen–Asau) in front: bucket j of K = |cdf| equal slices of
/// [0, cdf.back()) stores the first index whose cdf value falls in bucket
/// j or later, so a lookup binary-searches only between two adjacent
/// guides.  `bucket` is monotone in its argument, which is all the
/// narrowing needs: every index before guide[bucket(t)] has cdf < t and
/// guide[bucket(t) + 1] has cdf > t, so the result is the full-range
/// `upper_bound`'s, index for index.
class GuidedCdf {
 public:
  explicit GuidedCdf(const std::vector<double>& cdf)
      : cdf_(cdf),
        scale_(static_cast<double>(cdf.size()) / cdf.back()),
        guide_(cdf.size() + 1) {
    std::size_t i = 0;
    for (std::size_t j = 0; j < guide_.size(); ++j) {
      while (i < cdf_.size() && bucket(cdf_[i]) < j) ++i;
      guide_[j] = i;
    }
  }

  [[nodiscard]] index_t operator()(double target) const {
    const std::size_t j = bucket(target);
    const auto first = cdf_.begin() + static_cast<std::ptrdiff_t>(guide_[j]);
    const auto last = cdf_.begin() + static_cast<std::ptrdiff_t>(guide_[j + 1]);
    return static_cast<index_t>(
        std::distance(cdf_.begin(), std::upper_bound(first, last, target)));
  }

 private:
  [[nodiscard]] std::size_t bucket(double t) const {
    return std::min(static_cast<std::size_t>(t * scale_), cdf_.size() - 1);
  }

  const std::vector<double>& cdf_;
  double scale_;
  std::vector<std::size_t> guide_;
};

}  // namespace

BipartiteGraph random_uniform(index_t num_rows, index_t num_cols,
                              offset_t target_edges, std::uint64_t seed) {
  require(num_rows > 0 && num_cols > 0, "random_uniform: empty side");
  require(target_edges >= 0, "random_uniform: negative edge count");
  const offset_t capacity =
      static_cast<offset_t>(num_rows) * static_cast<offset_t>(num_cols);
  require(target_edges <= capacity, "random_uniform: more edges than pairs");
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(target_edges));
  for (offset_t e = 0; e < target_edges; ++e)
    edges.push_back(
        {static_cast<index_t>(rng.below(static_cast<std::uint64_t>(num_rows))),
         static_cast<index_t>(
             rng.below(static_cast<std::uint64_t>(num_cols)))});
  return build_from_edges(num_rows, num_cols, edges);
}

BipartiteGraph planted_perfect(index_t n, double extra_degree,
                               std::uint64_t seed) {
  require(n > 0, "planted_perfect: empty side");
  require(extra_degree >= 0.0, "planted_perfect: negative degree");
  Rng rng(seed);
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);

  std::vector<Edge> edges;
  const offset_t extra =
      checked_count(extra_degree, static_cast<double>(n), "planted_perfect");
  edges.reserve(static_cast<std::size_t>(n + extra));
  for (index_t u = 0; u < n; ++u)
    edges.push_back({u, perm[static_cast<std::size_t>(u)]});
  for (offset_t e = 0; e < extra; ++e)
    edges.push_back(
        {static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n))),
         static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)))});
  return build_from_edges(n, n, edges);
}

BipartiteGraph rmat(int scale, double edge_factor, std::uint64_t seed,
                    double a, double b, double c) {
  require(scale >= 1 && scale <= 30, "rmat: scale out of range");
  require(edge_factor > 0.0, "rmat: non-positive edge factor");
  const double d = 1.0 - a - b - c;
  require(a > 0 && b > 0 && c > 0 && d > 0, "rmat: bad quadrant probabilities");

  const index_t n = static_cast<index_t>(1) << scale;
  const offset_t num_edges =
      checked_count(edge_factor, static_cast<double>(n), "rmat");
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges));
  for (offset_t e = 0; e < num_edges; ++e) {
    index_t row = 0, col = 0;
    for (int level = 0; level < scale; ++level) {
      const double p = rng.uniform();
      row <<= 1;
      col <<= 1;
      if (p < a) {
        // top-left quadrant: nothing to add.
      } else if (p < a + b) {
        col |= 1;
      } else if (p < a + b + c) {
        row |= 1;
      } else {
        row |= 1;
        col |= 1;
      }
    }
    edges.push_back({row, col});
  }
  return build_from_edges(n, n, edges);
}

BipartiteGraph chung_lu(index_t num_rows, index_t num_cols, double avg_degree,
                        double gamma, std::uint64_t seed) {
  require(num_rows > 0 && num_cols > 0, "chung_lu: empty side");
  require(avg_degree > 0.0, "chung_lu: non-positive degree");
  require(gamma > 2.0, "chung_lu: exponent must exceed 2 for finite mean");
  Rng rng(seed);

  // Zipf-like weights w_i = (i+1)^{-1/(gamma-1)}; inverse-CDF sampling over
  // the cumulative weights gives endpoint picks proportional to w.
  auto make_cdf = [&](index_t n) {
    std::vector<double> cdf(static_cast<std::size_t>(n));
    double acc = 0.0;
    const double exponent = -1.0 / (gamma - 1.0);
    for (index_t i = 0; i < n; ++i) {
      acc += std::pow(static_cast<double>(i + 1), exponent);
      cdf[static_cast<std::size_t>(i)] = acc;
    }
    return cdf;
  };
  const auto row_cdf = make_cdf(num_rows);
  const auto col_cdf = make_cdf(num_cols);

  const GuidedCdf row_pick(row_cdf);
  const GuidedCdf col_pick(col_cdf);

  const offset_t num_edges = checked_count(
      avg_degree, static_cast<double>(std::min(num_rows, num_cols)),
      "chung_lu");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges));
  for (offset_t e = 0; e < num_edges; ++e) {
    index_t u = row_pick(rng.uniform() * row_cdf.back());
    index_t v = col_pick(rng.uniform() * col_cdf.back());
    if (u >= num_rows) u = num_rows - 1;  // guard FP edge of upper_bound
    if (v >= num_cols) v = num_cols - 1;
    edges.push_back({u, v});
  }
  auto g = build_from_edges(num_rows, num_cols, edges);
  // Weights are index-sorted; permute so that degree is uncorrelated with
  // vertex id, as in real collections.
  return permute_vertices(g, seed ^ 0x9e3779b97f4a7c15ULL);
}

BipartiteGraph skewed_hubs(index_t num_rows, index_t num_cols,
                           index_t num_hubs, double hub_fraction,
                           double background_degree, std::uint64_t seed,
                           bool scatter) {
  require(num_rows > 0 && num_cols > 0, "skewed_hubs: empty side");
  require(num_hubs >= 0 && num_hubs <= num_cols,
          "skewed_hubs: more hubs than columns");
  require(hub_fraction > 0.0 && hub_fraction <= 1.0,
          "skewed_hubs: hub_fraction must be in (0, 1]");
  require(background_degree >= 0.0, "skewed_hubs: negative degree");
  Rng rng(seed);

  const offset_t hub_degree = checked_count(
      hub_fraction, static_cast<double>(num_rows), "skewed_hubs");
  const offset_t background = checked_count(
      background_degree, static_cast<double>(num_cols), "skewed_hubs");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(
      static_cast<offset_t>(num_hubs) * hub_degree + background));
  // Hubs take the first column ids; with `scatter` the trailing
  // permutation spreads them over the id space, otherwise they stay a
  // contiguous crawl-ordered block.  Duplicate samples are deduplicated
  // by the builder, so the realised hub degree lands slightly below the
  // target.
  for (index_t h = 0; h < num_hubs; ++h)
    for (offset_t e = 0; e < hub_degree; ++e)
      edges.push_back(
          {static_cast<index_t>(rng.below(static_cast<std::uint64_t>(num_rows))),
           h});
  for (offset_t e = 0; e < background; ++e)
    edges.push_back(
        {static_cast<index_t>(rng.below(static_cast<std::uint64_t>(num_rows))),
         static_cast<index_t>(rng.below(static_cast<std::uint64_t>(num_cols)))});
  auto g = build_from_edges(num_rows, num_cols, edges);
  if (!scatter) return g;
  return permute_vertices(g, seed ^ 0xda3e39cb94b95bdbULL);
}

BipartiteGraph road_network(index_t nx, index_t ny, double keep_prob,
                            std::uint64_t seed) {
  require(nx > 0 && ny > 0, "road_network: empty lattice");
  require(keep_prob > 0.0 && keep_prob <= 1.0, "road_network: bad keep_prob");
  const offset_t n64 = static_cast<offset_t>(nx) * static_cast<offset_t>(ny);
  require(n64 <= std::numeric_limits<index_t>::max(),
          "road_network: lattice too large");
  const auto n = static_cast<index_t>(n64);
  Rng rng(seed);

  auto id = [&](index_t x, index_t y) { return x * ny + y; };
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(4 * n));
  for (index_t x = 0; x < nx; ++x) {
    for (index_t y = 0; y < ny; ++y) {
      if (x + 1 < nx && rng.chance(keep_prob))
        push_symmetric(edges, id(x, y), id(x + 1, y));
      if (y + 1 < ny && rng.chance(keep_prob))
        push_symmetric(edges, id(x, y), id(x, y + 1));
    }
  }
  // Shortcuts: highways / bridges, ~0.2% of vertices.
  const auto shortcuts = static_cast<offset_t>(static_cast<double>(n) * 0.002);
  for (offset_t s = 0; s < shortcuts; ++s) {
    const auto i =
        static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    const auto j =
        static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    if (i != j) push_symmetric(edges, i, j);
  }
  return build_from_edges(n, n, edges);
}

BipartiteGraph delaunay_mesh(index_t nx, index_t ny, std::uint64_t seed) {
  require(nx > 0 && ny > 0, "delaunay_mesh: empty lattice");
  const offset_t n64 = static_cast<offset_t>(nx) * static_cast<offset_t>(ny);
  require(n64 <= std::numeric_limits<index_t>::max(),
          "delaunay_mesh: lattice too large");
  const auto n = static_cast<index_t>(n64);
  Rng rng(seed);

  auto id = [&](index_t x, index_t y) { return x * ny + y; };
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(6 * n));
  for (index_t x = 0; x < nx; ++x) {
    for (index_t y = 0; y < ny; ++y) {
      if (x + 1 < nx) push_symmetric(edges, id(x, y), id(x + 1, y));
      if (y + 1 < ny) push_symmetric(edges, id(x, y), id(x, y + 1));
      if (x + 1 < nx && y + 1 < ny) {
        // One diagonal per cell, at random — triangulates the lattice.
        if (rng.chance(0.5))
          push_symmetric(edges, id(x, y), id(x + 1, y + 1));
        else
          push_symmetric(edges, id(x + 1, y), id(x, y + 1));
      }
    }
  }
  return build_from_edges(n, n, edges);
}

BipartiteGraph trace_mesh(index_t length, index_t width, double hole_prob,
                          std::uint64_t seed) {
  require(length > 0 && width > 0, "trace_mesh: empty strip");
  require(hole_prob >= 0.0 && hole_prob < 1.0, "trace_mesh: bad hole_prob");
  const offset_t n64 =
      static_cast<offset_t>(length) * static_cast<offset_t>(width);
  require(n64 <= std::numeric_limits<index_t>::max(),
          "trace_mesh: strip too large");
  const auto n = static_cast<index_t>(n64);
  Rng rng(seed);

  // Punch holes first so that both endpoints of an edge can be checked.
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  for (index_t v = 0; v < n; ++v)
    if (rng.chance(hole_prob)) alive[static_cast<std::size_t>(v)] = 0;

  auto id = [&](index_t x, index_t y) { return x * width + y; };
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(3 * n));
  for (index_t x = 0; x < length; ++x) {
    for (index_t y = 0; y < width; ++y) {
      if (!alive[static_cast<std::size_t>(id(x, y))]) continue;
      if (x + 1 < length && alive[static_cast<std::size_t>(id(x + 1, y))])
        push_symmetric(edges, id(x, y), id(x + 1, y));
      if (y + 1 < width && alive[static_cast<std::size_t>(id(x, y + 1))])
        push_symmetric(edges, id(x, y), id(x, y + 1));
      // Triangulate the strip like the huge* FEM meshes.
      if (x + 1 < length && y + 1 < width &&
          alive[static_cast<std::size_t>(id(x + 1, y + 1))])
        push_symmetric(edges, id(x, y), id(x + 1, y + 1));
    }
  }
  return build_from_edges(n, n, edges);
}

BipartiteGraph copaper(index_t num_vertices, index_t num_communities,
                       double avg_community, std::uint64_t seed) {
  require(num_vertices > 0, "copaper: no vertices");
  require(num_communities > 0, "copaper: no communities");
  require(avg_community >= 2.0, "copaper: communities need >= 2 members");
  // Sizes are capped at kMaxCommunity below; the sampling width is cast
  // to an integer first, so it must be bounded before the cast, not after.
  require(avg_community <= 1e6, "copaper: average community size too large");
  Rng rng(seed);

  constexpr index_t kMaxCommunity = 64;  // keeps |E| = O(sum s^2) bounded
  std::vector<Edge> edges;
  for (index_t comm = 0; comm < num_communities; ++comm) {
    // Community size: geometric-ish around the mean, capped.
    auto size = static_cast<index_t>(
        2 + rng.below(static_cast<std::uint64_t>(2.0 * (avg_community - 2.0) + 1.0)));
    size = std::min(size, kMaxCommunity);
    // Members live in a local window (papers cluster by field/venue).
    const auto window = static_cast<std::uint64_t>(
        std::min<offset_t>(num_vertices, 8 * static_cast<offset_t>(size)));
    const auto base = static_cast<index_t>(rng.below(
        static_cast<std::uint64_t>(num_vertices) - window + 1));
    std::vector<index_t> members(static_cast<std::size_t>(size));
    for (auto& m : members)
      m = base + static_cast<index_t>(rng.below(window));
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    for (std::size_t i = 0; i < members.size(); ++i)
      for (std::size_t j = i + 1; j < members.size(); ++j)
        push_symmetric(edges, members[i], members[j]);
  }
  return build_from_edges(num_vertices, num_vertices, edges);
}

BipartiteGraph huge_bipartite(index_t num_rows, index_t num_cols,
                              double avg_degree, double hub_fraction,
                              index_t hub_every, std::uint64_t seed) {
  require(num_rows > 0 && num_cols > 0, "huge_bipartite: empty side");
  require(avg_degree >= 0.0, "huge_bipartite: negative degree");
  require(hub_fraction >= 0.0 && hub_fraction <= 1.0,
          "huge_bipartite: hub_fraction must be in [0, 1]");
  require(hub_every >= 0, "huge_bipartite: negative hub_every");
  Rng rng(seed);

  const offset_t base = checked_count(avg_degree, 1.0, "huge_bipartite");
  const offset_t hub_degree = checked_count(
      hub_fraction, static_cast<double>(num_rows), "huge_bipartite");

  // Column pass: sample each column's neighbours straight into the column
  // CSR.  `scratch` (one column's samples) is the only transient — no
  // global edge list ever exists.
  std::vector<offset_t> col_ptr;
  col_ptr.reserve(static_cast<std::size_t>(num_cols) + 1);
  col_ptr.push_back(0);
  std::vector<index_t> col_adj;
  col_adj.reserve(static_cast<std::size_t>(
      static_cast<offset_t>(num_cols) * base +
      (hub_every > 0 ? (static_cast<offset_t>(num_cols) / hub_every + 1) *
                           hub_degree
                     : 0)));
  std::vector<index_t> scratch;
  for (index_t v = 0; v < num_cols; ++v) {
    const bool hub = hub_every > 0 && v % hub_every == 0;
    const offset_t want = base + (hub ? hub_degree : 0);
    scratch.clear();
    scratch.reserve(static_cast<std::size_t>(want));
    for (offset_t e = 0; e < want; ++e)
      scratch.push_back(static_cast<index_t>(
          rng.below(static_cast<std::uint64_t>(num_rows))));
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    col_adj.insert(col_adj.end(), scratch.begin(), scratch.end());
    col_ptr.push_back(static_cast<offset_t>(col_adj.size()));
  }
  col_adj.shrink_to_fit();

  // Row pass: counting sort of the column CSR.  Walking columns in
  // ascending order writes each row's neighbours already sorted.
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(num_rows) + 1, 0);
  for (const index_t u : col_adj) ++row_ptr[static_cast<std::size_t>(u) + 1];
  for (std::size_t u = 0; u < static_cast<std::size_t>(num_rows); ++u)
    row_ptr[u + 1] += row_ptr[u];
  std::vector<index_t> row_adj(col_adj.size());
  std::vector<offset_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (index_t v = 0; v < num_cols; ++v)
    for (offset_t e = col_ptr[static_cast<std::size_t>(v)];
         e < col_ptr[static_cast<std::size_t>(v) + 1]; ++e) {
      const auto u = static_cast<std::size_t>(col_adj[static_cast<std::size_t>(e)]);
      row_adj[static_cast<std::size_t>(cursor[u]++)] = v;
    }
  return {num_rows, num_cols, std::move(row_ptr), std::move(row_adj),
          std::move(col_ptr), std::move(col_adj)};
}

BipartiteGraph complete_bipartite(index_t m, index_t n) {
  require(m >= 0 && n >= 0, "complete_bipartite: negative dimension");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
  for (index_t u = 0; u < m; ++u)
    for (index_t v = 0; v < n; ++v) edges.push_back({u, v});
  return build_from_edges(m, n, edges);
}

BipartiteGraph empty_graph(index_t m, index_t n) {
  return build_from_edges(m, n, std::span<const Edge>{});
}

BipartiteGraph star(index_t leaves) {
  require(leaves >= 1, "star: need at least one leaf");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(leaves));
  for (index_t v = 0; v < leaves; ++v) edges.push_back({0, v});
  return build_from_edges(1, leaves, edges);
}

BipartiteGraph chain(index_t k) {
  require(k >= 1, "chain: need at least one link");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(2 * k - 1));
  // r_i — c_i for all i, and c_i — r_{i+1} linking consecutive pairs.
  for (index_t i = 0; i < k; ++i) {
    edges.push_back({i, i});
    if (i + 1 < k) edges.push_back({i + 1, i});
  }
  return build_from_edges(k, k, edges);
}

}  // namespace bpm::graph::gen
