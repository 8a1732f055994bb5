// engine::Scheduler — asynchronous, pipelined execution of analysis runs.
//
// The paper's workload is a CAD loop: many independent analyses of nearby
// grounding-grid candidates. Blocking calls leave the pool idle through each
// candidate's serial solve tail; this scheduler instead accepts whole runs
// up front (Engine::submit / Study::submit return a RunFuture immediately)
// and decomposes each into its pipeline stages
//
//     assemble  ->  [factor]  ->  solve / finish
//
// dispatched from one ready-queue onto a small, fixed set of stage
// executors. Runs do not own threads — task handoff is event-driven: an
// executor pops the best ready stage, runs it, and pushes the run's next
// stage back. Each stage still fans out internally over the engine's shared
// par::ThreadPool via parallel_for (regions are serialized inside the pool),
// so while candidate k's factorization occupies the workers, candidate
// k+1's assembly stage runs its serial sections and queues its own regions:
// the workers stay busy through what used to be dead time between runs.
//
// The ready-queue prefers later stages of older runs over starting new
// assemblies, which both delivers results roughly in submission order and
// bounds how many assembled matrices are alive at once (~pipeline_width).
//
// Concurrency contract with the engine's warm resources:
//  * each run takes the warm-cache table of its own physics fingerprint when
//    its assemble stage leaves the queue, and drops it when that stage
//    ends. Runs of the same physics share one table (a sharded, thread-safe
//    map; per-run hit/miss deltas are tallied inside each assembly, not
//    diffed from shared counters). A run of different physics gets a fresh
//    table and makes it current, while runs still assembling on the old
//    table keep it alive — nobody waits, nothing replays across physics,
//    and at most pipeline_width + 1 tables are alive at once (plus one per
//    concurrent blocking Engine::assemble call);
//  * tables are taken under the queue lock, in submission order, so the
//    physics switches a session counts do not depend on executor timing
//    (lock order: queue mutex, then run mutex, then the engine's table
//    mutex);
//  * per-run PhaseReports merge into the engine's session report through
//    PhaseReport's internally locked merge, so no counter increment is lost.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/engine/factored_system.hpp"
#include "src/la/tile_store.hpp"

namespace ebem::engine {

class Engine;
class Scheduler;

/// Per-run overrides of the engine's session-wide execution policy,
/// validated at submit() time — a bad override throws ebem::InvalidArgument
/// on the submitting thread, never on an executor mid-pipeline.
struct SubmitOptions {
  /// Storage policy of this run's matrix (and factor) stores. Note that a
  /// residency budget is per store per run: with pipeline_width runs in
  /// flight the session's resident total is up to width x budget, so a
  /// session-level cap should be divided across the width before
  /// submitting.
  std::optional<la::StorageConfig> storage;
  /// Override ExecutionConfig::measure_residual for this run.
  std::optional<bool> measure_residual;

  /// Throws ebem::InvalidArgument on contradictions (zero tile size, a
  /// residency budget without a spill_dir).
  void validate() const;
};

enum class RunStatus {
  kQueued,     ///< submitted, no stage started yet (cancellable)
  kRunning,    ///< some stage is executing or between stages
  kDone,       ///< result available
  kFailed,     ///< a stage threw; get() rethrows
  kCancelled,  ///< cancelled before the first stage; get() throws
};

namespace detail {
struct RunState;
}  // namespace detail

/// Shared handle surface of one submitted run: lifecycle queries, the
/// per-run report and cache-delta, and best-effort cancel. Copyable (all
/// copies observe the same run); default-constructed handles are empty
/// (valid() == false). RunFuture/FactorFuture add only their payload
/// accessor.
class FutureBase {
 public:
  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  /// Non-blocking: has the run reached a terminal state (done/failed/
  /// cancelled)?
  [[nodiscard]] bool ready() const;
  [[nodiscard]] RunStatus status() const;
  /// Block until terminal.
  void wait() const;
  /// Block until terminal or until `timeout` elapses, whichever comes
  /// first; returns whether the run is terminal. A non-positive timeout is
  /// a non-blocking poll. This is what lets one dispatcher thread watch
  /// many runs with deadlines instead of parking a thread per run (the
  /// service layer's harvest loop is the canonical caller).
  [[nodiscard]] bool wait_for(std::chrono::nanoseconds timeout) const;
  /// This run's phase timings and counters; blocks until terminal (the
  /// same numbers the engine's session report received).
  [[nodiscard]] const PhaseReport& report() const;
  /// Congruence-cache hits/misses of this run alone (exact under
  /// concurrency — tallied inside the run's assembly); blocks until
  /// terminal.
  [[nodiscard]] const bem::CongruenceCacheStats& cache_delta() const;
  /// Best-effort cancel: succeeds only while the run is still queued (no
  /// stage started). Returns whether the run will never execute.
  bool cancel() const;

 protected:
  FutureBase() = default;
  explicit FutureBase(std::shared_ptr<detail::RunState> state) : state_(std::move(state)) {}

  std::shared_ptr<detail::RunState> state_;
};

/// Future of a submitted analysis run (Engine/Study::submit).
class RunFuture : public FutureBase {
 public:
  RunFuture() = default;

  /// Block, then return the result; rethrows the run's exception on
  /// failure and throws ebem::InvalidArgument on a cancelled run. The
  /// result stays owned by the future, so get() may be called repeatedly.
  [[nodiscard]] const bem::AnalysisResult& get() const;
  /// Block, then move the result out (one shot — the blocking shims'
  /// flavor).
  [[nodiscard]] bem::AnalysisResult take();

 private:
  friend class Scheduler;
  using FutureBase::FutureBase;
};

/// Future of a submitted assemble+factor run (Engine::submit_factor).
class FactorFuture : public FutureBase {
 public:
  FactorFuture() = default;

  /// Block, then move the factored system out (one shot; the handle borrows
  /// the engine's pool and report, so the Engine must outlive it).
  [[nodiscard]] FactoredSystem take();

 private:
  friend class Scheduler;
  using FutureBase::FutureBase;
};

/// Lifetime accounting of a scheduler — what the backpressure bound and the
/// campaign bench assert against.
struct SchedulerStats {
  std::uint64_t submitted = 0;        ///< runs accepted so far
  std::size_t peak_outstanding = 0;   ///< max simultaneous non-terminal runs
};

/// The engine's stage scheduler. Owned by (and only constructible through)
/// an Engine; public mainly so tests can name it. Destruction drains: every
/// submitted run reaches a terminal state before the executors join.
class Scheduler {
 public:
  /// `max_pending` bounds runs submitted but not yet terminal (0 =
  /// unbounded): at the bound, submit blocks until a run retires.
  Scheduler(Engine& engine, std::size_t width, std::size_t max_pending = 0);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] RunFuture submit(bem::BemModel model, const bem::AnalysisOptions& options,
                                 const SubmitOptions& overrides);
  [[nodiscard]] FactorFuture submit_factor(bem::BemModel model,
                                           const bem::AnalysisOptions& options,
                                           const SubmitOptions& overrides);

  /// Blocking-shim flavors: no model copy is taken, so the caller must keep
  /// `model` alive until the returned future is terminal — which the
  /// blocking analyze()/factor() shims guarantee by waiting on the future
  /// before they return. Asynchronous callers use the owning overloads
  /// above instead.
  [[nodiscard]] RunFuture submit_borrowed(const bem::BemModel& model,
                                          const bem::AnalysisOptions& options,
                                          const SubmitOptions& overrides);
  [[nodiscard]] FactorFuture submit_factor_borrowed(const bem::BemModel& model,
                                                    const bem::AnalysisOptions& options,
                                                    const SubmitOptions& overrides);

  /// Block until every run submitted so far is terminal.
  void drain();

  [[nodiscard]] std::size_t width() const { return executors_.size(); }

  /// Snapshot of the lifetime accounting (peak_outstanding is exact: it is
  /// maintained under the same lock that admits submissions).
  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct Task {
    std::shared_ptr<detail::RunState> run;
    int stage;
  };

  /// `owned` carries the async submits' model copy (the run then points at
  /// it); empty for the borrowed shims, where `model` is caller-kept.
  std::shared_ptr<detail::RunState> make_run(std::optional<bem::BemModel> owned,
                                             const bem::BemModel* model,
                                             const bem::AnalysisOptions& options,
                                             const SubmitOptions& overrides, bool factor_only);
  void enqueue(Task task);
  void executor_loop();
  /// First stage, under mutex_: claim the run (false when a cancel won the
  /// race) and take its warm-cache table.
  bool start_run(detail::RunState& run);
  void execute_stage(const Task& task);
  void finish_run(const std::shared_ptr<detail::RunState>& run, RunStatus status);

  /// Called on both retirement paths (finish_run and the cancelled-before-
  /// start bookkeeping) under mutex_; wakes drain() and bounded submitters.
  void retire_locked();

  Engine& engine_;
  std::size_t max_pending_ = 0;  ///< 0 = unbounded (immutable after ctor)

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;    ///< executors: a task or stop arrived
  std::condition_variable drained_cv_;  ///< drain(): outstanding_ hit zero
  std::condition_variable submit_cv_;   ///< bounded submit: a slot opened
  std::vector<Task> ready_;             ///< heap: later stages first, then FIFO
  std::size_t outstanding_ = 0;         ///< submitted runs not yet terminal
  std::size_t peak_outstanding_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t next_sequence_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> executors_;
};

}  // namespace ebem::engine
