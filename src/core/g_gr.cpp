#include "core/g_gr.hpp"

namespace bpm::gpu {

namespace {

/// G-GR-KRNL's body for one row u at level cLevel (Alg. 5): claims every
/// unvisited column neighbour v at cLevel+1 and, when µ(v) is consistently
/// matched (µ(µ(v)) = v), labels µ(v) at cLevel+2 and hands it to
/// `on_row`.  The load before the claim keeps visited columns off the RMW.
/// `kExclusive` is for a launch that runs as one chunk: no other thread
/// can claim v, so a plain store claims it.  The locked RMW is not free on
/// one core: it made the relabel-bound delaunay_n24 analogue's solve ~1.4x
/// slower on a 4-vCPU x86 VM.
template <bool kExclusive, typename OnRow>
void expand_row(const BipartiteGraph& g, const RelabelArrays& a, index_t u,
                index_t c_level, index_t psi_inf, OnRow&& on_row) {
  for (index_t v : g.row_neighbors(u)) {
    const auto vz = static_cast<std::size_t>(v);
    if (a.psi_col.load(vz) != psi_inf) continue;
    if constexpr (kExclusive)
      a.psi_col.store(vz, c_level + 1);
    else if (a.psi_col.store_min(vz, c_level + 1) != psi_inf)
      continue;
    const index_t w = a.mu_col.load(vz);
    if (w > -1 && a.mu_row.load(static_cast<std::size_t>(w)) == v) {
      a.psi_row.store(static_cast<std::size_t>(w), c_level + 2);
      on_row(w);
    }
  }
}

[[nodiscard]] bool queued_grid(const device::Device& dev) {
  return dev.backend() == device::Backend::kHost;
}

}  // namespace

void LevelBfs::start(device::Device& dev, const BipartiteGraph& g,
                     const RelabelArrays& a, const DeviceState* snapshot) {
  const index_t psi_inf = g.psi_infinity();
  c_level_ = 0;
  queued_rows_ = 0;
  queue_.clear();
  next_.resize(dev.num_workers());
  for (auto& slot : next_) slot.rows.clear();

  // Returns whether row u is a BFS source (unmatched, level 0).
  auto init_row = [&](std::size_t u) {
    index_t mu = 0;
    if (snapshot != nullptr) {
      mu = snapshot->mu_row.load(u);
      a.mu_row.store(u, mu);
    } else {
      mu = a.mu_row.load(u);
    }
    a.psi_row.store(u, mu == -1 ? 0 : psi_inf);
    return mu == -1;
  };
  if (queued_grid(dev)) {
    dev.launch_chunked(g.num_rows(), [&](unsigned w, std::int64_t begin,
                                         std::int64_t end) {
      auto& out = next_[w].rows;
      for (std::int64_t i = begin; i < end; ++i)
        if (init_row(static_cast<std::size_t>(i)))
          out.push_back(static_cast<index_t>(i));
    });
    gather();
  } else {
    dev.launch(g.num_rows(), [&](std::int64_t i) {
      (void)init_row(static_cast<std::size_t>(i));
    });
  }
  dev.launch(g.num_cols(), [&](std::int64_t i) {
    const auto v = static_cast<std::size_t>(i);
    if (snapshot != nullptr) a.mu_col.store(v, snapshot->mu_col.load(v));
    a.psi_col.store(v, psi_inf);
  });
}

bool LevelBfs::step(device::Device& dev, const BipartiteGraph& g,
                    const RelabelArrays& a) {
  const index_t psi_inf = g.psi_infinity();
  const index_t c_level = c_level_;
  c_level_ += 2;
  if (queued_grid(dev)) {
    if (next_.size() < dev.num_workers()) next_.resize(dev.num_workers());
    const auto n = static_cast<std::int64_t>(queue_.size());
    dev.launch_chunked(n, [&](unsigned w, std::int64_t begin,
                              std::int64_t end) {
      auto& out = next_[w].rows;
      auto enqueue = [&](index_t r) { out.push_back(r); };
      const bool exclusive = begin == 0 && end == n;
      for (std::int64_t i = begin; i < end; ++i) {
        const index_t u = queue_[static_cast<std::size_t>(i)];
        if (exclusive)
          expand_row<true>(g, a, u, c_level, psi_inf, enqueue);
        else
          expand_row<false>(g, a, u, c_level, psi_inf, enqueue);
      }
    });
    gather();
    return queue_.empty();
  }
  // The paper's grid: one logical thread per row; the returned work units
  // (frontier adjacency entries) feed the device time model.
  device::device_flag u_added;
  dev.launch_accounted(g.num_rows(), [&](std::int64_t i) -> std::int64_t {
    const auto u = static_cast<index_t>(i);
    if (a.psi_row.load(static_cast<std::size_t>(i)) != c_level) return 0;
    expand_row<false>(g, a, u, c_level, psi_inf,
                      [&](index_t) { u_added.raise(); });
    return g.row_degree(u);
  });
  return !u_added.is_raised();
}

void LevelBfs::gather() {
  queue_.clear();
  std::size_t filled = 0, total = 0;
  for (const auto& slot : next_) {
    if (!slot.rows.empty()) ++filled;
    total += slot.rows.size();
  }
  if (filled == 1) {
    for (auto& slot : next_)
      if (!slot.rows.empty()) queue_.swap(slot.rows);
  } else if (filled > 1) {
    queue_.reserve(total);
    for (auto& slot : next_) {
      queue_.insert(queue_.end(), slot.rows.begin(), slot.rows.end());
      slot.rows.clear();
    }
  }
  queued_rows_ += static_cast<std::int64_t>(total);
}

GrResult g_gr(device::Device& dev, const BipartiteGraph& g, DeviceState& st) {
  const RelabelArrays a{st.mu_row, st.mu_col, st.psi_row, st.psi_col};
  LevelBfs bfs;
  bfs.start(dev, g, a);
  GrResult result;
  do {
    ++result.level_kernels;
  } while (!bfs.step(dev, g, a));
  result.max_level = bfs.level();
  result.queued_rows = bfs.queued_rows();
  return result;
}

AsyncGlobalRelabel::AsyncGlobalRelabel(index_t num_rows, index_t num_cols)
    : mu_row_snap_(static_cast<std::size_t>(num_rows), -1),
      mu_col_snap_(static_cast<std::size_t>(num_cols), -1),
      psi_row_shadow_(static_cast<std::size_t>(num_rows), 0),
      psi_col_shadow_(static_cast<std::size_t>(num_cols), 0) {}

void AsyncGlobalRelabel::start(device::Device& dev, const BipartiteGraph& g,
                               const DeviceState& st) {
  // Snapshot µ and run INITRELABEL against the snapshot in one pass.
  bfs_.start(dev, g, arrays(), &st);
  running_ = true;
}

bool AsyncGlobalRelabel::step(device::Device& dev, const BipartiteGraph& g) {
  if (!bfs_.step(dev, g, arrays())) return false;
  running_ = false;
  return true;
}

void AsyncGlobalRelabel::apply(device::Device& dev, const BipartiteGraph& g,
                               DeviceState& st) {
  dev.launch(g.num_rows(), [&](std::int64_t i) {
    const auto u = static_cast<std::size_t>(i);
    st.psi_row.store(u, psi_row_shadow_.load(u));
  });
  dev.launch(g.num_cols(), [&](std::int64_t i) {
    const auto v = static_cast<std::size_t>(i);
    st.psi_col.store(v, psi_col_shadow_.load(v));
  });
}

}  // namespace bpm::gpu
