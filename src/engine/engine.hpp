// engine::Engine — the long-lived execution context of the library.
//
// The paper's CAD framing is many nearby analyses in a loop: a designer (or
// the automated ladder of cad::search_design) evaluates candidate after
// candidate against the same soil and the same numerics. An Engine owns
// everything those runs should share instead of re-creating per call:
//
//   * one par::ThreadPool, spawned once and reused by assembly and solve;
//   * one warm bem::CongruenceCache table for the current physics, so
//     candidate k replays the elemental blocks candidates 1..k-1 already
//     integrated. Each assembly takes the table of its own physics
//     fingerprint: the current table when the fingerprint matches, a fresh
//     one (which becomes current) when it does not. Runs still assembling
//     under the old physics keep their table alive through shared
//     ownership, so a physics change never waits for them and no block is
//     ever replayed across physics;
//   * one PhaseReport sink accumulating Table 6.1 style timings and the
//     named counters (cache hits, factorizations, solved right-hand sides)
//     across the whole session — thread-safe, so concurrent runs merge in
//     without losing increments;
//   * one engine::Scheduler (created on first use) that pipelines
//     *asynchronous* runs: submit() returns a RunFuture immediately, the
//     run's assemble -> factor -> solve stages are dispatched from a ready
//     queue onto pipeline_width stage executors, and stages of different
//     runs interleave on the shared pool — assembly of candidate k+1
//     overlaps the factorization/solve tail of candidate k.
//
// Configuration happens once, through a validated engine::ExecutionConfig.
// The blocking analyze()/factor() calls are thin submit+get shims over the
// same pipeline, so both paths produce identical numbers by construction.
// The bem:: free functions remain as serial shims; anything that runs more
// than one analysis should hold an Engine (or an engine::Study bound to
// one) instead — and anything that runs *independent* analyses should
// submit() them instead of blocking one by one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/bem/assembly.hpp"
#include "src/bem/congruence_cache.hpp"
#include "src/bem/solver.hpp"
#include "src/common/phase_report.hpp"
#include "src/engine/execution_config.hpp"
#include "src/engine/factored_system.hpp"
#include "src/engine/scheduler.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::engine {

/// Order-dependent hash of everything the elemental blocks depend on besides
/// pair geometry: the soil stack plus integrator/series/Hankel options.
/// Geometry congruence is the cache key's job; this pins the physics the key
/// deliberately leaves out. Every assembly picks its warm-cache table by it.
[[nodiscard]] std::uint64_t physics_fingerprint(const soil::LayeredSoil& soil,
                                                const bem::AssemblyOptions& options);

class Engine {
 public:
  /// Validates the config (throws ebem::InvalidArgument on contradictions)
  /// and spawns the worker pool / cache up front.
  explicit Engine(const ExecutionConfig& config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Drains the scheduler first: every submitted run reaches a terminal
  /// state before the pool and cache go away.
  ~Engine();

  [[nodiscard]] const ExecutionConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_threads() const { return threads_; }

  /// Shared worker pool; null when the engine runs serially.
  [[nodiscard]] par::ThreadPool* pool() { return pool_; }

  /// Session congruence-cache counters: hits and misses summed from every
  /// assembly's exact per-run tally (they only grow), and `entries` of the
  /// current table. Zeros when the cache is disabled by the config.
  [[nodiscard]] bem::CongruenceCacheStats cache_stats() const;
  /// Start a fresh, empty table for the current physics (a physics change
  /// does this automatically; manual calls are only needed to re-measure
  /// cold starts). Assemblies in flight finish on the table they hold.
  void clear_cache();

  /// Session-cumulative phase timings and counters. Thread-safe sink:
  /// concurrent pipelined runs merge into it without losing increments.
  [[nodiscard]] PhaseReport& report() { return report_; }
  [[nodiscard]] const PhaseReport& report() const { return report_; }

  // --- asynchronous runs --------------------------------------------------

  /// Submit a full analysis and return immediately. The returned future
  /// carries the AnalysisResult, this run's PhaseReport and its exact
  /// congruence-cache delta. Independent submits pipeline: up to
  /// config().pipeline_width runs have stages in flight at once, sharing
  /// the engine's pool and warm-cache table. Per-run `overrides` (storage
  /// budget, residual measurement) are validated here, on the submitting
  /// thread.
  [[nodiscard]] RunFuture submit(bem::BemModel model, const bem::AnalysisOptions& options = {},
                                 const SubmitOptions& overrides = {});

  /// Submit an assemble+factor run; the future yields a FactoredSystem that
  /// answers any number of right-hand sides by substitution only. Always
  /// the blocked Cholesky regardless of config().solver (a FactoredSystem
  /// is by definition a direct-solver handle). The handle borrows this
  /// engine's pool and report — the Engine must outlive it.
  [[nodiscard]] FactorFuture submit_factor(bem::BemModel model,
                                           const bem::AnalysisOptions& options = {},
                                           const SubmitOptions& overrides = {});

  /// Block until every run submitted so far is terminal.
  void drain();

  /// Scheduler lifetime accounting: runs submitted and the peak number of
  /// simultaneously non-terminal runs — what the ExecutionConfig::
  /// max_pending_runs backpressure bound caps. Zeros before the first
  /// submission (the scheduler is created lazily).
  [[nodiscard]] SchedulerStats scheduler_stats();

  // --- blocking calls -----------------------------------------------------

  /// Assemble the Galerkin system against the shared pool and the warm
  /// table of the model's physics.
  [[nodiscard]] bem::AssemblyResult assemble(const bem::BemModel& model,
                                             const bem::AssemblyOptions& options = {});

  /// Solve one assembled system under the config's solver policy. This is
  /// the matrix-level entry: `rhs` must be in the matrix's own row order.
  /// For a system assembled under a geometric DoF ordering, pass
  /// AssemblyResult::ordering via bem::solve's SolveExecution (or use
  /// analyze()/factor(), which handle the permutation boundary themselves).
  [[nodiscard]] std::vector<double> solve(const la::SymMatrix& matrix,
                                          std::span<const double> rhs,
                                          bem::SolveStats* stats = nullptr);

  /// Full analysis (assembly + solve + design parameters) — a thin
  /// submit()+get() shim over the pipeline, so it interleaves fairly with
  /// concurrently submitted runs. Timings and cache counters accumulate
  /// into report(), and additionally into `run_report` when provided (a
  /// caller's per-run view of the same numbers).
  [[nodiscard]] bem::AnalysisResult analyze(const bem::BemModel& model,
                                            const bem::AnalysisOptions& options = {},
                                            PhaseReport* run_report = nullptr);

  /// Assemble and factor once — the blocking shim of submit_factor().
  [[nodiscard]] FactoredSystem factor(const bem::BemModel& model,
                                      const bem::AnalysisOptions& options = {});

  /// Resolved solve plans (what the config means in bem terms); exposed so
  /// benches and tests can drive the low-level entry points with
  /// engine-consistent plumbing.
  [[nodiscard]] bem::SolveExecution solve_execution() const;
  [[nodiscard]] bem::SolverOptions solver_options() const;

 private:
  friend class Scheduler;  ///< takes execution plans and warm tables per run
  friend class Study;      ///< for the copy-free borrowed submits of its shims

  /// Per-phase execution plans without a cache: each assembly sets its own
  /// warm table (see warm_table).
  [[nodiscard]] bem::AssemblyExecution assembly_execution() const;
  [[nodiscard]] bem::AnalysisExecution analysis_execution() const;

  /// The warm table for an assembly of `model` under `options`: the current
  /// table when the physics fingerprint matches, otherwise a fresh table
  /// that becomes current and counts one kCacheDropsCounter on `sink`. Null
  /// when the cache is disabled. The caller holds it for its assembly only.
  [[nodiscard]] std::shared_ptr<bem::CongruenceCache> warm_table(
      const bem::BemModel& model, const bem::AssemblyOptions& options, PhaseReport& sink);
  /// Fold one assembly's exact hit/miss tally into the session totals.
  void add_cache_use(const bem::CongruenceCacheStats& run_delta);

  /// The lazily created stage scheduler (spawning executor threads only
  /// once something actually submits).
  Scheduler& scheduler();

  ExecutionConfig config_;
  std::size_t threads_;
  std::optional<par::ThreadPool> owned_pool_;
  par::ThreadPool* pool_ = nullptr;
  PhaseReport report_;

  // Warm cache (see warm_table): the current table, its physics and the
  // session totals, all under one plain mutex.
  mutable std::mutex table_mutex_;
  std::shared_ptr<bem::CongruenceCache> table_;
  std::uint64_t table_fingerprint_ = 0;
  std::size_t session_hits_ = 0;
  std::size_t session_misses_ = 0;

  // Declared last: destroyed first, so the scheduler drains while the pool
  // and cache above are still alive.
  std::mutex scheduler_mutex_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace ebem::engine
