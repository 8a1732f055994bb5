// Global Galerkin system generation — the paper's dominant cost (Table 6.1)
// and the stage it parallelizes (§6.2).
//
// The element-pair loop is the triangle beta = 0..M-1, alpha = beta..M-1
// ("a triangle of M columns, of which the first one has M rows and the last
// one has 1 row"). Execution modes:
//   * sequential: compute each elemental matrix and assemble it immediately;
//   * parallel outer loop: columns are distributed across threads under an
//     OpenMP-style schedule (coarse granularity; the paper's pick);
//   * parallel inner loop: columns run sequentially, the rows of each column
//     are distributed (the lower-granularity alternative of Fig. 6.1).
//
// Without a congruence cache (the paper's setting, and the outer/inner x
// schedule ablation) parallel modes use a *fused streaming* scheme: every
// worker scatters each elemental matrix into the tiled symmetric matrix as
// soon as it is computed, synchronized by per-tile locks — an elemental 2x2
// block maps to at most four tiles of the la::TileStore, so the scheme
// works whether the store is the in-memory arena or the out-of-core spill
// pager. Integration dominates the scatter by orders of magnitude, so the
// locks are essentially uncontended.
//
// With a cache (AssemblyExecution::cache) most pairs are replays and the
// scatter *is* the work, so the loop is *planned* instead, one chunk of
// whole columns at a time:
//   1. plan — the column loop above, under the configured schedule and
//      loop mode, gives every pair with an entry outside the low-rank
//      tiles its translation class (pair_signature.hpp: element shape ids plus the
//      lattice offset of the start points), in the worker's own table;
//   2. resolve — the chunk's new classes are merged in a fixed order, each
//      is canonicalized once on its lowest pair and looked up in the shared
//      cache once; misses are grouped by canonical signature and each group
//      is integrated once, in parallel, on its lowest pair (then inserted);
//   3. gather — each dense tile is owned by one worker (tiles are indexed by
//      the larger DoF's tile row), checked out once per chunk, and receives
//      its entries in pair order.
// Concurrency: the only shared writes are the cache's own (one find per
// class, one insert per integrated group) and disjoint tiles; there is no
// lock or shared atomic per pair. Every value is a function of the pair
// order and the cache contents, so the matrix is bitwise identical for any
// thread count and schedule, cold or warm — and, per entry, it sums in the
// sequential loop's order.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/bem/clustering.hpp"
#include "src/bem/congruence_cache.hpp"
#include "src/bem/far_field.hpp"
#include "src/bem/integrator.hpp"
#include "src/la/permutation.hpp"
#include "src/la/sym_matrix.hpp"
#include "src/parallel/schedule.hpp"
#include "src/soil/hankel_kernel.hpp"

namespace ebem::par {
class ThreadPool;
}  // namespace ebem::par

namespace ebem::bem {

enum class ParallelLoop {
  kOuter,  ///< distribute the M columns (coarse granularity; paper's pick)
  kInner,  ///< distribute the rows within each column (fine granularity)
};

enum class Backend {
  kThreadPool,  ///< portable std::thread pool with OpenMP-semantics schedules
  kOpenMp,      ///< real OpenMP runtime directives (the paper's mode);
                ///< sequential fallback when built without OpenMP
};

/// Physics and discretization of the Galerkin system — what is integrated.
/// How the work is executed (threads, schedules, caches) lives in
/// AssemblyExecution; a single engine::ExecutionConfig resolves to one and
/// is the recommended way to set it up.
struct AssemblyOptions {
  IntegratorOptions integrator;
  soil::SeriesOptions series;
  /// Spectral-kernel controls, used only for 3-and-more-layer soils (where
  /// assembly automatically falls back to the Hankel kernel with inner
  /// Gauss integration). The loose default reflects that quadrature error
  /// dominates the spectral tolerance there.
  soil::HankelOptions hankel{.tolerance = 1e-7};

  friend bool operator==(const AssemblyOptions&, const AssemblyOptions&) = default;
};

/// Resolved execution plumbing for one assembly: worker resources and the
/// congruence cache are *referenced*, not owned, so repeated assemblies can
/// share warm threads and a warm cache (see engine::Engine, which owns both
/// and hands out a consistent AssemblyExecution). The default is the serial
/// cache-less reference path.
struct AssemblyExecution {
  std::size_t num_threads = 1;
  /// Externally owned worker pool for Backend::kThreadPool; when set its
  /// thread count takes precedence over num_threads.
  par::ThreadPool* pool = nullptr;
  par::Schedule schedule = par::Schedule::dynamic(1);
  ParallelLoop loop = ParallelLoop::kOuter;
  Backend backend = Backend::kThreadPool;
  /// Storage policy of the assembled matrix (tile size, and the spill
  /// pager's residency budget for out-of-core assembly). The default is the
  /// fully resident in-memory tile arena.
  la::StorageConfig storage;
  /// Record the wall-clock cost of each outer column (feeds the schedule
  /// simulator used by the Fig. 6.1 / Table 6.2 / Table 6.3 benches).
  bool measure_column_costs = false;
  /// Congruence cache: non-null integrates each distinct pair geometry once
  /// and replays the 2x2 block for congruent copies (see pair_signature.hpp),
  /// through the planned path described above. Only valid while soil model
  /// and integrator/series options are unchanged; stats on the cache are
  /// cumulative over its lifetime. With measure_column_costs, a column's
  /// cost is then its planning time (no pair is integrated per column).
  CongruenceCache* cache = nullptr;
};

struct AssemblyResult {
  /// R, dense symmetric positive definite. With `ordering` set the rows and
  /// columns are in the permutation's *internal* (storage) order; without
  /// it they follow the model's DoF numbering as always.
  la::SymMatrix matrix;
  /// nu_j = integral of w_j (paper eq. 4.6) — always in *external* (model)
  /// order; the solve paths gather it through `ordering` when needed.
  std::vector<double> rhs;
  std::vector<double> column_costs;  ///< seconds per outer column, if measured
  std::size_t element_pairs = 0;
  /// Congruence-cache counters of *this assembly alone* (zeros when the
  /// cache is disabled), in element pairs: misses are the pairs actually
  /// integrated (one per missed canonical class), hits the other pairs the
  /// pair loop resolved. Tallied inside the run, so they stay exact even
  /// when several pipelined runs share one warm cache concurrently — the
  /// shared cache's own stats() are lifetime-cumulative across every run
  /// that ever touched it. `entries` is the shared cache's occupancy right
  /// after this assembly.
  CongruenceCacheStats cache_stats;
  /// Pager counters of the matrix's tile store over this assembly (zeros
  /// except resident-byte gauges for the in-memory backend).
  la::TileStoreStats matrix_tiles;
  /// Low-rank far-field outcome when storage compression is enabled (all
  /// zeros otherwise): the stored-vs-dense byte breakdown of the matrix and
  /// the near/sampled/skipped split of the element-pair bill.
  la::CompressionStats compression;
  FarFieldStats far_field;
  /// The geometric DoF permutation the matrix was stored under, when
  /// storage.compression.ordering == kGeometric (null otherwise). Shared so
  /// downstream handles (FactoredSystem) can outlive this result. Pass it
  /// as SolveExecution::ordering to solve against this matrix.
  std::shared_ptr<const la::Permutation> ordering;
  /// Cluster-tree summary of the ordering (zeros when ordering is null).
  OrderingStats ordering_stats;
};

/// Generate the Galerkin system for the model under the given options and
/// execution plan (default: sequential, no cache).
[[nodiscard]] AssemblyResult assemble(const BemModel& model, const AssemblyOptions& options = {},
                                      const AssemblyExecution& execution = {});

}  // namespace ebem::bem
