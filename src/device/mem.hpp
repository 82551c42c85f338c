#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "device/device.hpp"

namespace bpm::device {

/// A memory cell that many device threads may read and write concurrently
/// without synchronisation — the C++ embodiment of the paper's *benign
/// races* on the µ, ψ and iA arrays.
///
/// The paper's kernels deliberately race: concurrent pushes overwrite µ(u),
/// the last writer wins, and losers are detected afterwards via
/// `µ(µ(v)) ≠ v`.  A plain C++ data race is undefined behaviour, so the
/// cell uses `std::atomic` with `memory_order_relaxed`: on mainstream ISAs
/// relaxed 32-bit load/store compiles to an ordinary `mov` — no lock
/// prefixes, no read-modify-write — exactly matching the paper's claim of
/// an "atomic- and lock-free" implementation (they avoid atomic *RMW*
/// instructions, not loads/stores).  `bench/ablation_race` measures what
/// promoting these to seq_cst would cost.
///
/// Copy operations exist so that containers of cells are usable; they are
/// *not* atomic as a pair and must only run while no kernel is in flight
/// (i.e. host-side, between launches).
template <typename T>
class relaxed_cell {
 public:
  relaxed_cell() noexcept : value_(T{}) {}
  explicit relaxed_cell(T v) noexcept : value_(v) {}
  relaxed_cell(const relaxed_cell& other) noexcept
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  relaxed_cell& operator=(const relaxed_cell& other) noexcept {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] T load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void store(T v) noexcept { value_.store(v, std::memory_order_relaxed); }

  /// Atomically lowers the cell to `min(current, v)`; returns the value
  /// observed before the update (relaxed CAS loop, lock-free).  The only
  /// RMW in the codebase, with two users: the sharded solver's
  /// deterministic boundary min-combine, and the host global relabel's
  /// column claim, where the one thread that sees the old value m+n owns
  /// the column and enqueues its mate exactly once.  The paper's push path
  /// stays free of RMW instructions.
  T store_min(T v) noexcept {
    T cur = value_.load(std::memory_order_relaxed);
    while (v < cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
    return cur;
  }

  /// Sequentially-consistent accessors for the race-cost ablation.
  [[nodiscard]] T load_seq_cst() const noexcept { return value_.load(); }
  void store_seq_cst(T v) noexcept { value_.store(v); }

 private:
  std::atomic<T> value_;
};

/// Tag selecting the *uninitialized* `relaxed_vector` constructor: storage
/// is allocated but no cell is constructed, so the pages are not yet
/// touched.  `construct_range` then places cells — on whatever thread runs
/// it, which is how `EngineArena` performs NUMA first-touch on an engine's
/// (possibly pinned) worker pool.
struct uninitialized_t {
  explicit uninitialized_t() = default;
};
inline constexpr uninitialized_t uninitialized{};

/// Fixed-capacity array of racy cells — "device memory".  The interface is
/// deliberately narrow: size, element access, bulk fill, host snapshot.
///
/// Storage is raw aligned memory rather than `std::vector`, so that cell
/// construction (the first write to each page) can be deferred and placed
/// on specific threads: on a first-touch NUMA policy, the thread that
/// constructs a page decides which node backs it.  The cell type must be
/// trivially destructible (it is, for the trivially-copyable `T`s device
/// state uses), which keeps destruction allocation-shaped: no per-cell
/// destructor walk over gigabytes of state.
///
/// Copying/moving and the bulk operations are host-side only (no kernel in
/// flight), like every non-atomic operation on device memory here; copying
/// an incompletely-constructed vector (uninitialized ctor without a full
/// `construct_range`) is undefined.
template <typename T>
class relaxed_vector {
  static_assert(std::is_trivially_destructible_v<relaxed_cell<T>>,
                "relaxed_vector storage relies on skipping destructors");

 public:
  relaxed_vector() = default;
  explicit relaxed_vector(std::size_t n, T init = T{})
      : relaxed_vector(uninitialized, n) {
    construct_range(0, n, init);
  }
  /// Allocates without constructing — see `uninitialized_t`.
  relaxed_vector(uninitialized_t, std::size_t n)
      : cells_(allocate(n)), size_(n) {}

  relaxed_vector(const relaxed_vector& other)
      : cells_(allocate(other.size_)), size_(other.size_) {
    for (std::size_t i = 0; i < size_; ++i)
      new (cells_ + i) relaxed_cell<T>(other.cells_[i].load());
  }
  relaxed_vector& operator=(const relaxed_vector& other) {
    if (this != &other) {
      relaxed_vector copy(other);
      swap(copy);
    }
    return *this;
  }
  relaxed_vector(relaxed_vector&& other) noexcept
      : cells_(std::exchange(other.cells_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  relaxed_vector& operator=(relaxed_vector&& other) noexcept {
    if (this != &other) {
      deallocate(cells_);
      cells_ = std::exchange(other.cells_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~relaxed_vector() { deallocate(cells_); }

  /// Constructs (first-touches) cells `[begin, end)` with `init`.  Safe to
  /// call concurrently on disjoint ranges — this is the parallel
  /// first-touch entry point `EngineArena` fans out over a pool.
  void construct_range(std::size_t begin, std::size_t end, T init) {
    for (std::size_t i = begin; i < end; ++i)
      new (cells_ + i) relaxed_cell<T>(init);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// O(1) buffer exchange — the Ac/Ap double-buffer swap of Algorithm 7.
  /// Host-side only (no kernel in flight).
  void swap(relaxed_vector& other) noexcept {
    std::swap(cells_, other.cells_);
    std::swap(size_, other.size_);
  }

  [[nodiscard]] T load(std::size_t i) const noexcept {
    return cells_[i].load();
  }
  void store(std::size_t i, T v) noexcept { cells_[i].store(v); }
  /// See `relaxed_cell::store_min`.
  T store_min(std::size_t i, T v) noexcept { return cells_[i].store_min(v); }

  /// Host-side bulk operations (no kernel may be in flight).
  void fill(T v) {
    for (std::size_t i = 0; i < size_; ++i) cells_[i].store(v);
  }
  void assign_from(const std::vector<T>& host) {
    relaxed_vector fresh(uninitialized, host.size());
    for (std::size_t i = 0; i < host.size(); ++i)
      new (fresh.cells_ + i) relaxed_cell<T>(host[i]);
    swap(fresh);
  }
  [[nodiscard]] std::vector<T> to_host() const {
    std::vector<T> out(size_);
    for (std::size_t i = 0; i < size_; ++i) out[i] = cells_[i].load();
    return out;
  }

 private:
  static relaxed_cell<T>* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<relaxed_cell<T>*>(::operator new(
        n * sizeof(relaxed_cell<T>), std::align_val_t{kAlignment}));
  }
  static void deallocate(relaxed_cell<T>* p) noexcept {
    if (p != nullptr) ::operator delete(p, std::align_val_t{kAlignment});
  }

  /// Cache-line alignment: the arrays are sliced across shards, and a
  /// shared line at a slice boundary is tolerable (benign races), but the
  /// *start* of each array staying line-aligned keeps false sharing with
  /// unrelated allocations out of the picture.
  static constexpr std::size_t kAlignment =
      alignof(relaxed_cell<T>) > 64 ? alignof(relaxed_cell<T>) : 64;

  relaxed_cell<T>* cells_ = nullptr;
  std::size_t size_ = 0;
};

/// Kernel-wide flag (the paper's `actExists` / `uAdded`): any thread may
/// raise it during a launch; the host reads it after the launch barrier.
/// Multiple concurrent `raise()` calls are the benign same-value race the
/// paper describes for these variables.
class device_flag {
 public:
  device_flag() = default;
  /// Copying reads the current value; host-side only, like relaxed_cell.
  device_flag(const device_flag& other) noexcept
      : flag_(other.flag_.load(std::memory_order_relaxed)) {}
  device_flag& operator=(const device_flag& other) noexcept {
    flag_.store(other.flag_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }
  void raise() noexcept { flag_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool is_raised() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// Engine-pinned allocation arena: constructs `relaxed_vector` ranges on a
/// specific engine's worker pool so that, under Linux's default
/// first-touch policy, the backing pages land on that engine's NUMA node
/// (the engine's workers are CPU-pinned when its descriptor carries a
/// `numa_node` hint).  This is how a sharded solve gives each shard's
/// column-side state to the engine that will run the shard's kernels,
/// instead of every page landing on whichever node ran the allocator.
///
/// On engines without a pool (sequential mode) the touch simply runs
/// inline — correct everywhere, NUMA-beneficial where it can be.
class EngineArena {
 public:
  explicit EngineArena(std::shared_ptr<Engine> engine)
      : engine_(std::move(engine)) {}

  [[nodiscard]] const std::shared_ptr<Engine>& engine() const {
    return engine_;
  }

  /// First-touch constructs cells `[begin, end)` of `v` with `init`,
  /// fanned out in page-multiple chunks over the engine's pool.  The
  /// range must not have been constructed before (see `uninitialized_t`).
  template <typename T>
  void first_touch(relaxed_vector<T>& v, std::size_t begin, std::size_t end,
                   T init) const {
    if (begin >= end) return;
    ThreadPool* pool = engine_ ? engine_->pool() : nullptr;
    const std::size_t n = end - begin;
    // 16 KiB of cells per chunk: a multiple of every page size that
    // matters, small enough to spread a shard slice over all workers.
    const std::size_t chunk =
        std::max<std::size_t>(16384 / sizeof(relaxed_cell<T>), 1);
    const std::size_t slots = (n + chunk - 1) / chunk;
    if (pool == nullptr || slots <= 1) {
      v.construct_range(begin, end, init);
      return;
    }
    pool->run_tasks(static_cast<unsigned>(slots), [&](unsigned s) {
      const std::size_t b = begin + static_cast<std::size_t>(s) * chunk;
      const std::size_t e = std::min(end, b + chunk);
      v.construct_range(b, e, init);
    });
  }

  /// Convenience: a fully constructed vector whose every page was
  /// first-touched on this arena's engine.
  template <typename T>
  [[nodiscard]] relaxed_vector<T> make(std::size_t n, T init = T{}) const {
    relaxed_vector<T> v(uninitialized, n);
    first_touch(v, 0, n, init);
    return v;
  }

 private:
  std::shared_ptr<Engine> engine_;
};

}  // namespace bpm::device
