#include "src/bem/assembly.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <optional>

#include "src/bem/far_field.hpp"
#include "src/common/error.hpp"
#include "src/common/timer.hpp"
#include "src/la/compressed_tile_store.hpp"
#include "src/parallel/openmp_backend.hpp"
#include "src/parallel/parallel_for.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/soil/kernel_factory.hpp"

namespace ebem::bem {

namespace {

/// Concurrent accumulation view of the tiled symmetric matrix: each add
/// locks the lock of the *tile* holding the entry (tile ids beyond the lock
/// array share locks by modulus, which only ever over-serializes). An
/// elemental 2x2 block maps to at most four tiles, and with the
/// element-pair integration costing orders of magnitude more than the
/// scatter, contention is negligible. Entry writes go through
/// SymMatrix::add, so the same path drives the in-memory arena and the
/// out-of-core spill pager (whose own pin bookkeeping is thread-safe; the
/// tile lock makes the read-modify-write of the entry atomic).
class TileLockedMatrix {
 public:
  explicit TileLockedMatrix(la::SymMatrix& matrix) : matrix_(matrix) {}

  void add(std::size_t j, std::size_t i, double value) {
    const la::TileLayout& layout = matrix_.layout();
    const std::size_t hi = std::max(i, j);
    const std::size_t lo = std::min(i, j);
    const std::size_t tile = layout.tile_index(layout.tile_of(hi), layout.tile_of(lo));
    const std::scoped_lock lock(locks_[tile % kLocks].mutex);
    matrix_.add(hi, lo, value);
  }

 private:
  static constexpr std::size_t kLocks = 256;
  struct alignas(64) Lock {
    std::mutex mutex;
  };

  la::SymMatrix& matrix_;
  std::array<Lock, kLocks> locks_;
};

/// Scatter one elemental block into the global symmetric matrix.
///
/// Only the element-pair triangle beta <= alpha is computed; the reversed
/// ordered pair (alpha as test, beta as trial) is the transpose by kernel
/// reciprocity. Packed symmetric storage holds the *value* F(j, i) of the
/// full matrix, so:
///  * self pairs (beta == alpha): the (symmetrized) block is scattered over
///    its local upper triangle only — each unordered global pair once;
///  * cross pairs: each (p, q) combination maps to a distinct unordered
///    global pair, except when the elements share a node and j == i, where
///    both the pair and its transpose hit the same diagonal entry — that
///    contribution enters twice.
///
/// `dof(element, local)` gives the storage-order DoF (see MatrixBoundary);
/// `add(j, i, value)` receives the entries in (p, q) order.
template <typename Dof, typename Sink>
void scatter(std::size_t locals, const Dof& dof, std::size_t beta, std::size_t alpha,
             const LocalMatrix& local, Sink&& add) {
  if (beta == alpha) {
    for (std::size_t p = 0; p < locals; ++p) {
      const std::size_t j = dof(beta, p);
      for (std::size_t q = p; q < locals; ++q) {
        const std::size_t i = dof(alpha, q);
        // Symmetrize: the analytic-inner/Gauss-outer split introduces a tiny
        // quadrature-level asymmetry the Galerkin form does not have.
        add(j, i, 0.5 * (local.value[p][q] + local.value[q][p]));
      }
    }
    return;
  }
  for (std::size_t p = 0; p < locals; ++p) {
    const std::size_t j = dof(beta, p);
    for (std::size_t q = 0; q < locals; ++q) {
      const std::size_t i = dof(alpha, q);
      add(j, i, (j == i) ? 2.0 * local.value[p][q] : local.value[p][q]);
    }
  }
}

std::vector<double> build_rhs(const BemModel& model, BasisKind basis) {
  std::vector<double> rhs(model.dof_count(basis), 0.0);
  for (std::size_t e = 0; e < model.element_count(); ++e) {
    const BemElement& element = model.elements()[e];
    if (basis == BasisKind::kLinear) {
      // integral of each hat over the element is L/2.
      rhs[element.node_a] += 0.5 * element.length;
      rhs[element.node_b] += 0.5 * element.length;
    } else {
      rhs[e] = element.length;
    }
  }
  return rhs;
}

/// The matrix boundary as the pair loops see it: every element's DoFs in
/// storage (internal) order — the geometric permutation applied once per
/// element, not once per entry — and which entries the low-rank far field
/// already holds.
class MatrixBoundary {
 public:
  MatrixBoundary(const BemModel& model, BasisKind basis, const la::Permutation* perm,
                 const la::TileLayout& layout, const la::CompressedTileStore* compressed)
      : locals_(model.local_dof_count(basis)),
        dofs_(model.element_count()),
        layout_(layout),
        compressed_(compressed) {
    for (std::size_t e = 0; e < dofs_.size(); ++e) {
      for (std::size_t p = 0; p < locals_; ++p) {
        const std::size_t dof = model.global_dof(basis, e, p);
        dofs_[e][p] = perm != nullptr ? perm->to_internal(dof) : dof;
      }
    }
  }

  [[nodiscard]] std::size_t locals() const { return locals_; }
  [[nodiscard]] std::size_t dof(std::size_t element, std::size_t local) const {
    return dofs_[element][local];
  }
  [[nodiscard]] const la::TileLayout& layout() const { return layout_; }
  [[nodiscard]] const la::CompressedTileStore* compressed() const { return compressed_; }

  /// Entry (j, i), storage order, lies in a low-rank tile.
  [[nodiscard]] bool entry_is_far(std::size_t j, std::size_t i) const {
    return compressed_ != nullptr &&
           compressed_->tile_is_low_rank(layout_.tile_of(std::max(i, j)),
                                         layout_.tile_of(std::min(i, j)));
  }

  /// Every entry of pair (beta, alpha) lies in a low-rank tile: the pair is
  /// skipped outright.
  [[nodiscard]] bool pair_is_far(std::size_t beta, std::size_t alpha) const {
    if (compressed_ == nullptr) return false;
    for (std::size_t p = 0; p < locals_; ++p) {
      for (std::size_t q = 0; q < locals_; ++q) {
        if (!entry_is_far(dofs_[beta][p], dofs_[alpha][q])) return false;
      }
    }
    return true;
  }

 private:
  std::size_t locals_;
  std::vector<std::array<std::size_t, 2>> dofs_;
  const la::TileLayout& layout_;
  const la::CompressedTileStore* compressed_;
};

/// The execution's loop backend: body(i, worker) for i in [0, count) under a
/// schedule, with worker < workers(). Inline on the calling thread when the
/// assembly owns no pool (the sequential reference path).
class LoopRunner {
 public:
  LoopRunner(const AssemblyExecution& execution, par::ThreadPool* pool)
      : execution_(execution), pool_(pool) {}

  [[nodiscard]] std::size_t workers() const {
    if (execution_.backend == Backend::kOpenMp) return execution_.num_threads;
    return pool_ != nullptr ? pool_->num_threads() : 1;
  }

  template <typename Body>  // void(std::size_t i, std::size_t worker)
  void run(std::size_t count, const par::Schedule& schedule, const Body& body) const {
    if (execution_.backend == Backend::kOpenMp) {
      par::openmp_parallel_for(execution_.num_threads, count, schedule,
                               [&](std::size_t i) { body(i, par::openmp_thread_num()); });
    } else if (pool_ != nullptr) {
      par::parallel_for_chunks(*pool_, count, schedule,
                               [&](par::ChunkRange range, std::size_t worker) {
                                 for (std::size_t i = range.begin; i < range.end; ++i) {
                                   body(i, worker);
                                 }
                               });
    } else {
      for (std::size_t i = 0; i < count; ++i) body(i, 0);
    }
  }

 private:
  const AssemblyExecution& execution_;
  par::ThreadPool* pool_;
};

/// Open-addressing map from a canonical signature to a dense id, ids
/// handed out in insertion order — how the resolve step groups cache
/// misses. Signatures are compared in full; their hash only picks where the
/// linear probe starts. Not thread-safe.
class SignatureIndex {
 public:
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] const PairSignature& key(std::size_t id) const { return keys_[id]; }

  void clear() {
    keys_.clear();
    std::fill(slots_.begin(), slots_.end(), 0u);
  }

  /// Id of `key`, added under the next id when new (`added` says which).
  std::uint32_t insert(const PairSignature& key, bool& added) {
    if (2 * (keys_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = key.hash & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t entry = slots_[slot];
      added = entry == 0;
      if (added) {
        keys_.push_back(key);
        slots_[slot] = static_cast<std::uint32_t>(keys_.size());
        return slots_[slot] - 1;
      }
      if (keys_[entry - 1] == key) return entry - 1;
    }
  }

 private:
  void grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0u);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < keys_.size(); ++id) {
      std::size_t slot = keys_[id].hash & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(id + 1);
    }
  }

  std::vector<std::uint32_t> slots_;  ///< id + 1 per slot; 0 marks a free slot
  std::vector<PairSignature> keys_;
};

/// Pair (beta, alpha) packed so that integer order is the triangular loop's
/// pair order (column-major, rows ascending) — "lowest pair" means first
/// in the sequential loop.
[[nodiscard]] std::uint64_t pack_pair(std::size_t beta, std::size_t alpha) {
  return static_cast<std::uint64_t>(beta) << 32 | static_cast<std::uint64_t>(alpha);
}
[[nodiscard]] std::size_t pair_beta(std::uint64_t pair) { return pair >> 32; }
[[nodiscard]] std::size_t pair_alpha(std::uint64_t pair) { return pair & 0xffffffffu; }

/// An element's part of a translation key (see lattice_start in
/// pair_signature.hpp): its shape id and lattice start.
struct ElementKey {
  std::uint32_t shape = 0;
  std::int64_t x = 0;
  std::int64_t y = 0;
};

/// Translation class of an ordered pair: field and source shape ids plus
/// the start-to-start offset on the congruence lattice.
struct TranslationKey {
  std::uint64_t shapes = 0;  ///< field shape id << 32 | source shape id
  std::int64_t dx = 0;
  std::int64_t dy = 0;

  friend bool operator==(const TranslationKey&, const TranslationKey&) = default;

  /// Multiply-xorshift mix: one probe start per key, cheap enough to run
  /// per pair (the full key is compared on every probe anyway).
  [[nodiscard]] std::size_t hash() const {
    const std::uint64_t h = shapes * 0x9e3779b97f4a7c15ULL +
                            static_cast<std::uint64_t>(dx) * 0xc2b2ae3d27d4eb4fULL +
                            static_cast<std::uint64_t>(dy) * 0x165667b19e3779f9ULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

[[nodiscard]] TranslationKey translation_key(const std::vector<ElementKey>& elements,
                                             std::uint64_t pair) {
  const ElementKey& field = elements[pair_beta(pair)];
  const ElementKey& source = elements[pair_alpha(pair)];
  return {static_cast<std::uint64_t>(field.shape) << 32 | source.shape, source.x - field.x,
          source.y - field.y};
}

/// Open-addressing set of translation classes, ids handed out in insertion
/// order. A class is stored as its lowest pair only: a probe that needs the
/// key recomputes it from that pair, so a class costs 8 bytes plus two
/// slots. Keys are compared in full; the hash only picks where the linear
/// probe starts. Not thread-safe for inserts — the planned path keeps one
/// per worker plus one for the run.
class TranslationTable {
 public:
  explicit TranslationTable(const std::vector<ElementKey>& elements) : elements_(&elements) {}

  [[nodiscard]] std::size_t size() const { return representatives_.size(); }
  [[nodiscard]] std::uint64_t representative(std::size_t id) const {
    return representatives_[id];
  }

  void clear() {
    representatives_.clear();
    std::fill(slots_.begin(), slots_.end(), 0u);
  }

  /// Id of the class keyed `key`, if present. Safe to call concurrently
  /// while no thread inserts.
  [[nodiscard]] std::optional<std::uint32_t> find(const TranslationKey& key) const {
    if (representatives_.empty()) return std::nullopt;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = key.hash() & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t entry = slots_[slot];
      if (entry == 0) return std::nullopt;
      if (translation_key(*elements_, representatives_[entry - 1]) == key) return entry - 1;
    }
  }

  /// Id of the class of `pair` (whose key is `key`), adding the class when
  /// new; the class keeps the lower of its representative and `pair`.
  std::uint32_t insert(const TranslationKey& key, std::uint64_t pair) {
    if (2 * (size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = key.hash() & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t entry = slots_[slot];
      if (entry == 0) {
        representatives_.push_back(pair);
        slots_[slot] = static_cast<std::uint32_t>(size());
        return slots_[slot] - 1;
      }
      std::uint64_t& lowest = representatives_[entry - 1];
      if (translation_key(*elements_, lowest) == key) {
        lowest = std::min(lowest, pair);
        return entry - 1;
      }
    }
  }

 private:
  void grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0u);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < size(); ++id) {
      std::size_t slot = translation_key(*elements_, representatives_[id]).hash() & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(id + 1);
    }
  }

  const std::vector<ElementKey>* elements_;
  std::vector<std::uint32_t> slots_;  ///< id + 1 per slot; 0 marks a free slot
  std::vector<std::uint64_t> representatives_;
};

/// The cache-on assembly: plan, resolve and gather (see assembly.hpp), one
/// chunk of whole columns at a time. The chunk bounds the per-pair plan;
/// the resolved translation classes persist across chunks, so each class
/// is canonicalized and looked up once per run.
class PlannedAssembly {
 public:
  PlannedAssembly(const BemModel& model, const Integrator& integrator, CongruenceCache& cache,
                  const AssemblyExecution& execution, const LoopRunner& loops,
                  const MatrixBoundary& boundary, la::SymMatrix& matrix,
                  std::vector<double>& column_costs)
      : model_(model),
        integrator_(integrator),
        cache_(cache),
        execution_(execution),
        loops_(loops),
        boundary_(boundary),
        matrix_(matrix),
        column_costs_(column_costs),
        classes_(elements_) {
    const std::size_t m = model.element_count();
    EBEM_EXPECT(m <= kLocalMask, "planned assembly supports fewer than 2^20 elements");
    EBEM_EXPECT(loops.workers() <= kMaxWorkers, "planned assembly supports at most 2048 workers");
    // Element shape ids (congruent-up-to-translation elements share one)
    // and lattice starts: a pair's translation key is then integer work.
    std::map<ElementShape, std::uint32_t> shape_ids;
    elements_.reserve(m);
    for (const BemElement& element : model.elements()) {
      const auto next = static_cast<std::uint32_t>(shape_ids.size());
      const std::uint32_t shape =
          shape_ids.try_emplace(make_element_shape(element, cache.quantum()), next).first->second;
      const std::array<std::int64_t, 2> start = lattice_start(element, cache.quantum());
      // Offsets are differences of starts; keep them inside int64.
      EBEM_EXPECT(std::max(std::abs(start[0]), std::abs(start[1])) < (std::int64_t{1} << 62),
                  "element coordinates overflow the congruence lattice");
      elements_.push_back({shape, start[0], start[1]});
    }
    workers_.reserve(loops.workers());
    for (std::size_t w = 0; w < loops.workers(); ++w) workers_.emplace_back(elements_);
    // Elements with a DoF in each tile row, ascending — the candidate lists
    // the gather walks per tile.
    const la::TileLayout& layout = boundary.layout();
    dof_tile_.resize(layout.n());
    dof_slot_.resize(layout.n());
    for (std::size_t dof = 0; dof < layout.n(); ++dof) {
      dof_tile_[dof] = static_cast<std::uint32_t>(layout.tile_of(dof));
      dof_slot_[dof] = static_cast<std::uint32_t>(dof - layout.row_begin(dof_tile_[dof]));
    }
    row_elements_.resize(layout.tile_rows());
    for (std::size_t e = 0; e < m; ++e) {
      for (std::size_t p = 0; p < boundary.locals(); ++p) {
        std::vector<std::uint32_t>& row = row_elements_[layout.tile_of(boundary.dof(e, p))];
        if (row.empty() || row.back() != e) row.push_back(static_cast<std::uint32_t>(e));
      }
    }
  }

  void run() {
    const std::size_t m = model_.element_count();
    plan_.reserve(std::min(kChunkPairs, m * (m + 1) / 2));
    for (std::size_t b0 = 0, b1 = 0; b0 < m; b0 = b1) {
      std::size_t pairs = 0;
      column_offset_.clear();
      while (b1 < m && (b1 == b0 || pairs + (m - b1) <= kChunkPairs)) {
        column_offset_.push_back(pairs);
        pairs += m - b1;
        ++b1;
      }
      plan_.resize(pairs);
      if (classes_.size() > kMaxClasses) {
        // Low-congruence (graded, irregular) meshes approach one class per
        // pair; forget the resolved classes rather than let them grow with
        // M^2. Later chunks resolve through the cache again.
        classes_.clear();
        blocks_.clear();
      }
      plan(b0, b1);
      resolve();
      gather(b0, b1);
    }
    cache_.record_lookups(hits_, misses_);
  }

  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t pairs_skipped_ = 0;

 private:
  /// Pairs per chunk (or one column, if longer): bounds the plan (4 bytes
  /// per pair) and, through it, the classes a worker discovers per chunk.
  static constexpr std::size_t kChunkPairs = std::size_t{1} << 14;
  /// Resolved classes kept across chunks (48 bytes each). Regular grids
  /// have a few thousand; only low-congruence meshes reach this.
  static constexpr std::size_t kMaxClasses = std::size_t{1} << 16;
  /// A plan entry is either kResolved | class id (a class known from an
  /// earlier chunk), worker << kLocalBits | worker-local id (a class first
  /// seen in this chunk), or kFarPair.
  static constexpr std::uint32_t kResolved = 0x80000000u;
  static constexpr unsigned kLocalBits = 20;
  static constexpr std::uint32_t kLocalMask = (1u << kLocalBits) - 1;
  static constexpr std::size_t kMaxWorkers = std::size_t{1} << (31 - kLocalBits);
  static constexpr std::uint32_t kFarPair = 0xffffffffu;

  /// A class whose canonical signature missed the cache, and the group of
  /// misses sharing that signature it belongs to.
  struct Miss {
    std::uint32_t id;
    std::uint32_t group;  ///< worker-local group, then the chunk's group
    bool transposed;
  };

  /// One worker's share of a chunk: the classes it saw first in the chunk,
  /// then its cache misses grouped by canonical signature. Padded so
  /// workers never share a cache line.
  struct alignas(64) Worker {
    explicit Worker(const std::vector<ElementKey>& elements) : classes(elements) {}

    TranslationTable classes;
    std::vector<std::uint32_t> global;  ///< local class -> class id
    SignatureIndex groups;
    std::vector<Miss> missed;
    std::size_t near = 0;  ///< pairs planned in this chunk
    std::size_t far = 0;   ///< pairs skipped as wholly low-rank
  };

  /// 1. Plan: the paper's column loop under the configured schedule gives
  /// every non-far pair its translation class: a class resolved in an
  /// earlier chunk is found in the shared table (read-only here), a new
  /// one goes to the worker's own table.
  void plan(std::size_t b0, std::size_t b1) {
    for (Worker& worker : workers_) {
      worker.classes.clear();
      worker.near = 0;
      worker.far = 0;
    }
    const auto plan_pair = [&](std::size_t beta, std::size_t alpha, std::size_t w) {
      std::uint32_t& entry = plan_[column_offset_[beta - b0] + (alpha - beta)];
      Worker& worker = workers_[w];
      if (boundary_.pair_is_far(beta, alpha)) {
        ++worker.far;
        entry = kFarPair;
        return;
      }
      ++worker.near;
      const std::uint64_t pair = pack_pair(beta, alpha);
      const TranslationKey key = translation_key(elements_, pair);
      if (const std::optional<std::uint32_t> id = classes_.find(key)) {
        entry = kResolved | *id;
        return;
      }
      entry = static_cast<std::uint32_t>(w) << kLocalBits | worker.classes.insert(key, pair);
    };
    const std::size_t m = model_.element_count();
    if (execution_.loop == ParallelLoop::kOuter) {
      loops_.run(b1 - b0, execution_.schedule, [&](std::size_t column, std::size_t w) {
        const std::size_t beta = b0 + column;
        WallTimer timer;
        for (std::size_t alpha = beta; alpha < m; ++alpha) plan_pair(beta, alpha, w);
        if (!column_costs_.empty()) column_costs_[beta] = timer.seconds();
      });
    } else {
      for (std::size_t beta = b0; beta < b1; ++beta) {
        WallTimer timer;
        loops_.run(m - beta, execution_.schedule,
                   [&](std::size_t row, std::size_t w) { plan_pair(beta, beta + row, w); });
        if (!column_costs_.empty()) column_costs_[beta] = timer.seconds();
      }
    }
    for (const Worker& worker : workers_) pairs_skipped_ += worker.far;
  }

  /// 2. Resolve the chunk's new classes: merge the worker tables, take
  /// each class's canonical signature on its lowest pair and look it up
  /// once; group the misses by canonical signature and integrate each
  /// group once, in parallel, on its lowest pair.
  void resolve() {
    const std::size_t first_new = classes_.size();
    std::size_t near = 0;
    for (Worker& worker : workers_) {
      near += worker.near;
      worker.global.resize(worker.classes.size());
      for (std::size_t local = 0; local < worker.classes.size(); ++local) {
        const std::uint64_t pair = worker.classes.representative(local);
        worker.global[local] = classes_.insert(translation_key(elements_, pair), pair);
      }
    }

    const auto& elements = model_.elements();
    const std::size_t fresh = classes_.size() - first_new;
    blocks_.resize(first_new + fresh);
    for (Worker& worker : workers_) {
      worker.groups.clear();
      worker.missed.clear();
    }
    loops_.run(fresh, par::Schedule::dynamic(16), [&](std::size_t k, std::size_t w) {
      const std::uint64_t pair = classes_.representative(first_new + k);
      const CanonicalPairSignature signature = make_canonical_pair_signature(
          elements[pair_beta(pair)], elements[pair_alpha(pair)], cache_.quantum());
      LocalMatrix& block = blocks_[first_new + k];
      if (cache_.find(signature.signature, block)) {
        if (signature.transposed) block = transposed(block);
        return;
      }
      Worker& worker = workers_[w];
      bool added = false;
      const std::uint32_t group = worker.groups.insert(signature.signature, added);
      worker.missed.push_back({static_cast<std::uint32_t>(first_new + k), group,
                               signature.transposed});
    });

    // The chunk's miss groups, collected into worker 0's index (one copy
    // of each signature fewer than a separate table); each group is led by
    // the class holding its lowest pair, whose geometry is integrated.
    SignatureIndex& groups = workers_.front().groups;
    canonical_lead_.assign(groups.size(), {~std::uint64_t{0}, false});
    for (Worker& worker : workers_) {
      std::vector<std::uint32_t> chunk_group(worker.groups.size());
      for (std::size_t g = 0; g < worker.groups.size(); ++g) {
        if (&worker.groups == &groups) {
          chunk_group[g] = static_cast<std::uint32_t>(g);
          continue;
        }
        bool added = false;
        chunk_group[g] = groups.insert(worker.groups.key(g), added);
        if (added) canonical_lead_.push_back({~std::uint64_t{0}, false});
      }
      for (Miss& miss : worker.missed) {
        miss.group = chunk_group[miss.group];
        const std::uint64_t pair = classes_.representative(miss.id);
        auto& lead = canonical_lead_[miss.group];
        if (pair < lead.first) lead = {pair, miss.transposed};
      }
    }
    canonical_blocks_.resize(groups.size());
    loops_.run(groups.size(), par::Schedule::dynamic(1), [&](std::size_t c, std::size_t) {
      const auto [pair, transposed_lead] = canonical_lead_[c];
      const LocalMatrix block =
          integrator_.element_pair(elements[pair_beta(pair)], elements[pair_alpha(pair)]);
      // Stored in canonical orientation, as CongruenceCache::insert does.
      canonical_blocks_[c] = transposed_lead ? transposed(block) : block;
    });
    for (std::size_t c = 0; c < groups.size(); ++c) {
      cache_.insert(groups.key(c), canonical_blocks_[c]);
    }
    for (const Worker& worker : workers_) {
      for (const Miss& miss : worker.missed) {
        const LocalMatrix& block = canonical_blocks_[miss.group];
        blocks_[miss.id] = miss.transposed ? transposed(block) : block;
      }
    }
    misses_ += groups.size();
    hits_ += near - groups.size();
  }

  /// 3. Gather: each dense tile is owned by one worker, checked out once,
  /// and receives its entries in pair order — no lock, no shared counter,
  /// and the same bits for every worker count.
  void gather(std::size_t b0, std::size_t b1) {
    const la::TileLayout& layout = boundary_.layout();
    const auto touches_chunk = [&](const std::vector<std::uint32_t>& elements) {
      const auto it = std::lower_bound(elements.begin(), elements.end(), b0);
      return it != elements.end() && *it < b1;
    };
    tiles_.clear();
    for (std::size_t tr = 0; tr < layout.tile_rows(); ++tr) {
      for (std::size_t tc = 0; tc <= tr; ++tc) {
        const la::CompressedTileStore* compressed = boundary_.compressed();
        if (compressed != nullptr && compressed->tile_is_low_rank(tr, tc)) continue;
        if (touches_chunk(row_elements_[tr]) || touches_chunk(row_elements_[tc])) {
          tiles_.push_back({tr, tc});
        }
      }
    }
    loops_.run(tiles_.size(), par::Schedule::dynamic(1), [&](std::size_t k, std::size_t) {
      gather_tile(tiles_[k][0], tiles_[k][1], b0, b1);
    });
  }

  /// Every pair of the chunk with an entry in tile (tr, tc) has one element
  /// in tile row tr's list and the other in tile row tc's; walking the two
  /// sorted lists enumerates exactly those pairs, in pair order.
  void gather_tile(std::size_t tr, std::size_t tc, std::size_t b0, std::size_t b1) {
    const la::TileLayout& layout = boundary_.layout();
    std::optional<la::TileGuard> guard;
    double* data = nullptr;
    const std::size_t tile = layout.tile();
    const auto add = [&](std::size_t j, std::size_t i, double value) {
      const std::size_t hi = std::max(i, j);
      const std::size_t lo = std::min(i, j);
      if (dof_tile_[hi] != tr || dof_tile_[lo] != tc) return;
      if (data == nullptr) {
        guard.emplace(matrix_.store().checkout(tr, tc, la::TileAccess::kWrite));
        data = guard->data();
      }
      data[dof_slot_[hi] * tile + dof_slot_[lo]] += value;
    };
    const auto dof = [this](std::size_t e, std::size_t p) { return boundary_.dof(e, p); };
    const auto apply = [&](std::size_t beta, std::size_t alpha) {
      const std::uint32_t entry = plan_[column_offset_[beta - b0] + (alpha - beta)];
      if (entry == kFarPair) return;
      const std::uint32_t id =
          (entry & kResolved) != 0
              ? entry & ~kResolved
              : workers_[entry >> kLocalBits].global[entry & kLocalMask];
      scatter(boundary_.locals(), dof, beta, alpha, blocks_[id], add);
    };

    const std::vector<std::uint32_t>& rows = row_elements_[tr];
    const std::vector<std::uint32_t>& cols = row_elements_[tc];
    const std::size_t m = model_.element_count();
    std::size_t r = std::lower_bound(rows.begin(), rows.end(), b0) - rows.begin();
    std::size_t c = std::lower_bound(cols.begin(), cols.end(), b0) - cols.begin();
    for (;;) {
      const std::size_t row_beta = r < rows.size() ? rows[r] : m;
      const std::size_t col_beta = c < cols.size() ? cols[c] : m;
      const std::size_t beta = std::min(row_beta, col_beta);
      if (beta >= b1) break;
      // Partners alpha >= beta: the other list's suffix when beta is in
      // one list, the merged (deduplicated) suffixes when it is in both
      // (a diagonal tile has one list, and its suffix is the partner set).
      const bool in_rows = row_beta == beta;
      const bool in_cols = col_beta == beta;
      std::size_t pr = in_cols ? r : rows.size();
      std::size_t pc = in_rows && tr != tc ? c : cols.size();
      while (pr < rows.size() || pc < cols.size()) {
        const std::size_t a = pr < rows.size() ? rows[pr] : m;
        const std::size_t b = pc < cols.size() ? cols[pc] : m;
        apply(beta, std::min(a, b));
        if (a <= b) ++pr;
        if (b <= a) ++pc;
      }
      if (in_rows) ++r;
      if (in_cols) ++c;
    }
  }

  const BemModel& model_;
  const Integrator& integrator_;
  CongruenceCache& cache_;
  const AssemblyExecution& execution_;
  const LoopRunner& loops_;
  const MatrixBoundary& boundary_;
  la::SymMatrix& matrix_;
  std::vector<double>& column_costs_;

  std::vector<ElementKey> elements_;                      ///< element -> translation key part
  std::vector<std::vector<std::uint32_t>> row_elements_;  ///< tile row -> elements
  /// Tile row of each (storage-order) DoF and its index inside the tile:
  /// the gather's entry addressing without a division per entry.
  std::vector<std::uint32_t> dof_tile_;
  std::vector<std::uint32_t> dof_slot_;
  std::vector<Worker> workers_;
  std::vector<std::size_t> column_offset_;  ///< chunk column -> first plan entry
  std::vector<std::uint32_t> plan_;         ///< chunk pair -> plan entry
  /// Translation classes resolved so far and their blocks (oriented for
  /// the class, i.e. already transposed back from canonical orientation).
  TranslationTable classes_;
  std::deque<LocalMatrix> blocks_;  ///< grows per chunk without reallocating
  std::vector<std::pair<std::uint64_t, bool>> canonical_lead_;  ///< lowest pair, transposed
  std::vector<LocalMatrix> canonical_blocks_;
  std::vector<std::array<std::size_t, 2>> tiles_;
};

}  // namespace

AssemblyResult assemble(const BemModel& model, const AssemblyOptions& options,
                        const AssemblyExecution& execution) {
  EBEM_EXPECT(execution.num_threads >= 1, "need at least one thread");
  const BasisKind basis = options.integrator.basis;
  const std::size_t m = model.element_count();
  const std::size_t n = model.dof_count(basis);

  const std::unique_ptr<soil::PointKernel> kernel =
      soil::make_kernel(model.soil(), options.series, options.hankel);
  IntegratorOptions integrator_options = options.integrator;
  if (model.soil().layer_count() > 2) {
    // No closed-form images beyond two layers: generic quadrature of the
    // spectral kernel (the paper's "un-admissible" cost regime, §4.2).
    integrator_options.inner = InnerIntegration::kSubtracted;
  }
  const Integrator integrator(*kernel, integrator_options);
  const auto& elements = model.elements();

  AssemblyResult result;
  // Geometric ordering: cluster the DoFs before the matrix exists, so tile
  // rows of the store land on the RCB leaf clusters. The permutation is the
  // matrix boundary — entries scatter through it below, while result.rhs
  // (and every caller-visible vector) stays in external order.
  if (execution.storage.compression.ordering == la::DofOrdering::kGeometric) {
    GeometricOrdering geometric =
        geometric_ordering(model, basis, execution.storage.tile_size);
    result.ordering_stats = geometric.stats;
    result.ordering =
        std::make_shared<const la::Permutation>(std::move(geometric.permutation));
  }
  const la::Permutation* perm = result.ordering.get();
  result.matrix = la::SymMatrix(n, execution.storage);
  result.rhs = build_rhs(model, basis);
  result.element_pairs = m * (m + 1) / 2;

  const bool sequential = execution.num_threads == 1 && execution.pool == nullptr &&
                          !execution.measure_column_costs;

  // Worker pool, hoisted ahead of the pair loop so the far-field builder can
  // share it. The sequential path and the OpenMP backend own no pool.
  std::optional<par::ThreadPool> owned_pool;
  par::ThreadPool* pool = execution.pool;
  if (pool == nullptr && execution.backend == Backend::kThreadPool && !sequential) {
    owned_pool.emplace(execution.num_threads);
    pool = &*owned_pool;
  }
  const LoopRunner loops(execution, pool);

  // Congruence cache: referenced, never owned. A non-null cache selects the
  // planned path below.
  CongruenceCache* cache = execution.cache;

  // --- far-field compression ---------------------------------------------
  // With compression enabled the matrix store is the low-rank backend:
  // partition the tile square, build the admissible blocks by ACA (their
  // entries are the *full* Galerkin sums over incident element pairs), then
  // run the usual pair loop with two filters — pairs whose every entry lands
  // in a covered tile are skipped outright (the O(M^2) win), and scatter
  // drops the covered entries of partially covered pairs (already inside a
  // factor; writing them would both double-count and hit read-only tiles).
  la::CompressedTileStore* compressed = nullptr;
  const la::TileLayout& layout = result.matrix.layout();
  if (execution.storage.compression.enabled()) {
    compressed = dynamic_cast<la::CompressedTileStore*>(&result.matrix.store());
    EBEM_ENSURE(compressed != nullptr,
                "compression-enabled storage must be backed by a CompressedTileStore");
    const FarFieldPartition partition =
        partition_far_field(model, basis, layout, execution.storage.compression, perm);
    par::ThreadPool* build_pool = execution.backend == Backend::kThreadPool ? pool : nullptr;
    build_far_field(*compressed, model, basis, integrator, partition, build_pool,
                    result.far_field, perm, cache);
  }
  const MatrixBoundary boundary(model, basis, perm, layout, compressed);
  const auto dof = [&boundary](std::size_t e, std::size_t p) { return boundary.dof(e, p); };
  if (execution.measure_column_costs) result.column_costs.assign(m, 0.0);

  std::atomic<std::size_t> pairs_skipped{0};
  const auto finalize = [&] {
    if (compressed != nullptr) {
      result.compression = compressed->compression_stats();
      result.far_field.pairs_skipped = pairs_skipped.load(std::memory_order_relaxed);
      result.far_field.pairs_near = result.element_pairs - result.far_field.pairs_skipped;
    }
    if (cache != nullptr) result.cache_stats.entries = cache->stats().entries;
    result.matrix_tiles = result.matrix.tile_stats();
  };

  if (cache != nullptr) {
    PlannedAssembly planned(model, integrator, *cache, execution, loops, boundary,
                            result.matrix, result.column_costs);
    planned.run();
    pairs_skipped.store(planned.pairs_skipped_, std::memory_order_relaxed);
    result.cache_stats.hits = planned.hits_;
    result.cache_stats.misses = planned.misses_;
    finalize();
    return result;
  }

  // Cache off: the paper's loops, every pair integrated.
  const std::size_t locals = boundary.locals();
  if (sequential) {
    // Original sequential scheme: compute and assemble inside the loop.
    for (std::size_t beta = 0; beta < m; ++beta) {
      for (std::size_t alpha = beta; alpha < m; ++alpha) {
        if (boundary.pair_is_far(beta, alpha)) {
          pairs_skipped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const LocalMatrix local = integrator.element_pair(elements[beta], elements[alpha]);
        scatter(locals, dof, beta, alpha, local, [&](std::size_t j, std::size_t i, double v) {
          if (!boundary.entry_is_far(j, i)) result.matrix.add(j, i, v);
        });
      }
    }
    finalize();
    return result;
  }

  // Fused streaming scheme: each worker computes an elemental matrix and
  // immediately accumulates it into the global matrix through the per-tile
  // locks — no per-pair storage, no serial scatter pass. With one thread
  // this degenerates to the sequential order, so timing-only runs
  // (measure_column_costs) stay bitwise identical to the sequential path.
  TileLockedMatrix striped(result.matrix);
  const auto fused_pair = [&](std::size_t beta, std::size_t alpha) {
    if (boundary.pair_is_far(beta, alpha)) {
      pairs_skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const LocalMatrix local = integrator.element_pair(elements[beta], elements[alpha]);
    scatter(locals, dof, beta, alpha, local, [&](std::size_t j, std::size_t i, double v) {
      if (!boundary.entry_is_far(j, i)) striped.add(j, i, v);
    });
  };

  if (execution.loop == ParallelLoop::kOuter) {
    loops.run(m, execution.schedule, [&](std::size_t beta, std::size_t) {
      WallTimer timer;
      for (std::size_t alpha = beta; alpha < m; ++alpha) fused_pair(beta, alpha);
      if (!result.column_costs.empty()) result.column_costs[beta] = timer.seconds();
    });
  } else {
    for (std::size_t beta = 0; beta < m; ++beta) {
      WallTimer timer;
      const std::size_t rows = m - beta;
      loops.run(rows, execution.schedule,
                [&](std::size_t r, std::size_t) { fused_pair(beta, beta + r); });
      if (!result.column_costs.empty()) result.column_costs[beta] = timer.seconds();
    }
  }
  finalize();
  return result;
}

}  // namespace ebem::bem
