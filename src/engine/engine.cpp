#include "src/engine/engine.hpp"

#include <bit>

#include "src/common/hash.hpp"
#include "src/engine/counters.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::engine {

namespace {

[[nodiscard]] std::uint64_t word_of(double value) { return std::bit_cast<std::uint64_t>(value); }

}  // namespace

std::uint64_t physics_fingerprint(const soil::LayeredSoil& soil,
                                  const bem::AssemblyOptions& options) {
  std::uint64_t h = 0x9d7fb3a5c1e42b17ULL;
  h = hash_combine(h, soil.layer_count());
  for (std::size_t c = 0; c < soil.layer_count(); ++c) {
    h = hash_combine(h, word_of(soil.conductivity(c)));
    if (c + 1 < soil.layer_count()) h = hash_combine(h, word_of(soil.interface_depth(c)));
  }
  const bem::IntegratorOptions& integrator = options.integrator;
  h = hash_combine(h, static_cast<std::uint64_t>(integrator.basis));
  h = hash_combine(h, static_cast<std::uint64_t>(integrator.inner));
  h = hash_combine(h, integrator.outer_gauss_points);
  h = hash_combine(h, integrator.inner_gauss_points);
  h = hash_combine(h, static_cast<std::uint64_t>(integrator.segment_eval));
  h = hash_combine(h, word_of(options.series.tolerance));
  h = hash_combine(h, options.series.max_reflections);
  h = hash_combine(h, word_of(options.hankel.tolerance));
  h = hash_combine(h, word_of(options.hankel.lambda_cut));
  h = hash_combine(h, options.hankel.max_panels);
  return h;
}

Engine::Engine(const ExecutionConfig& config)
    : config_(config), threads_(config.resolved_threads()) {
  config_.validate();
  if (config_.pool != nullptr) {
    pool_ = config_.pool;
  } else if (threads_ > 1) {
    owned_pool_.emplace(threads_);
    pool_ = &*owned_pool_;
  }
}

Engine::~Engine() {
  // unique_ptr order alone would do (scheduler_ is declared last), but be
  // explicit: the scheduler's destructor drains every submitted run while
  // the pool is still alive.
  scheduler_.reset();
}

Scheduler& Engine::scheduler() {
  const std::scoped_lock lock(scheduler_mutex_);
  if (scheduler_ == nullptr) {
    scheduler_ =
        std::make_unique<Scheduler>(*this, config_.pipeline_width, config_.max_pending_runs);
  }
  return *scheduler_;
}

SchedulerStats Engine::scheduler_stats() {
  const std::scoped_lock lock(scheduler_mutex_);
  return scheduler_ != nullptr ? scheduler_->stats() : SchedulerStats{};
}

RunFuture Engine::submit(bem::BemModel model, const bem::AnalysisOptions& options,
                         const SubmitOptions& overrides) {
  return scheduler().submit(std::move(model), options, overrides);
}

FactorFuture Engine::submit_factor(bem::BemModel model, const bem::AnalysisOptions& options,
                                   const SubmitOptions& overrides) {
  return scheduler().submit_factor(std::move(model), options, overrides);
}

void Engine::drain() {
  // Snapshot the pointer, then drain unlocked: holding scheduler_mutex_
  // through the drain would park concurrent submit() callers for the full
  // remaining wall time of every in-flight run. The scheduler itself only
  // dies with the Engine, so the unlocked call is safe.
  Scheduler* scheduler = nullptr;
  {
    const std::scoped_lock lock(scheduler_mutex_);
    scheduler = scheduler_.get();
  }
  if (scheduler != nullptr) scheduler->drain();
}

bem::CongruenceCacheStats Engine::cache_stats() const {
  const std::scoped_lock lock(table_mutex_);
  return {.hits = session_hits_,
          .misses = session_misses_,
          .entries = table_ != nullptr ? table_->stats().entries : 0};
}

void Engine::clear_cache() {
  const std::scoped_lock lock(table_mutex_);
  if (table_ != nullptr) {
    table_ = std::make_shared<bem::CongruenceCache>(config_.congruence_quantum,
                                                    config_.cache_max_entries);
  }
}

std::shared_ptr<bem::CongruenceCache> Engine::warm_table(const bem::BemModel& model,
                                                         const bem::AssemblyOptions& options,
                                                         PhaseReport& sink) {
  if (!config_.use_congruence_cache) return nullptr;
  const std::uint64_t fingerprint = physics_fingerprint(model.soil(), options);
  std::shared_ptr<bem::CongruenceCache> table;
  {
    const std::scoped_lock lock(table_mutex_);
    if (table_ != nullptr && table_fingerprint_ == fingerprint) return table_;
    // Different physics, same geometry classes would replay wrong blocks:
    // start a fresh table. Runs still assembling on the old one keep it
    // alive until they finish.
    table_ = std::make_shared<bem::CongruenceCache>(config_.congruence_quantum,
                                                    config_.cache_max_entries);
    table_fingerprint_ = fingerprint;
    table = table_;
  }
  sink.add_counter(kCacheDropsCounter, 1.0);
  return table;
}

void Engine::add_cache_use(const bem::CongruenceCacheStats& run_delta) {
  const std::scoped_lock lock(table_mutex_);
  session_hits_ += run_delta.hits;
  session_misses_ += run_delta.misses;
}

bem::AssemblyExecution Engine::assembly_execution() const {
  bem::AssemblyExecution execution;
  execution.num_threads = threads_;
  execution.pool = config_.backend == bem::Backend::kThreadPool ? pool_ : nullptr;
  execution.schedule = config_.schedule;
  execution.loop = config_.loop;
  execution.backend = config_.backend;
  execution.storage = config_.storage;
  execution.measure_column_costs = config_.measure_column_costs;
  return execution;
}

bem::SolveExecution Engine::solve_execution() const {
  return {.pool = pool_,
          .cholesky_block = config_.cholesky_block,
          .matvec_parallel_cutoff = config_.matvec_parallel_cutoff,
          .measure_residual = config_.measure_residual};
}

bem::SolverOptions Engine::solver_options() const {
  return {.kind = config_.solver,
          .cg_tolerance = config_.cg_tolerance,
          .cg_max_iterations = config_.cg_max_iterations};
}

bem::AnalysisExecution Engine::analysis_execution() const {
  bem::AnalysisExecution execution;
  execution.assembly = assembly_execution();
  execution.solver = solver_options();
  execution.solve = solve_execution();
  return execution;
}

bem::AssemblyResult Engine::assemble(const bem::BemModel& model,
                                     const bem::AssemblyOptions& options) {
  bem::AssemblyExecution execution = assembly_execution();
  const std::shared_ptr<bem::CongruenceCache> table = warm_table(model, options, report_);
  execution.cache = table.get();
  bem::AssemblyResult result = bem::assemble(model, options, execution);
  if (table != nullptr) add_cache_use(result.cache_stats);
  // The matrix's store is created inside this call, so its cumulative
  // counters are exactly this assembly's delta — fold them in like the
  // analyze/factor paths do.
  add_tile_counters(report_, result.matrix_tiles);
  add_compression_counters(report_, result.compression, result.far_field);
  add_ordering_counters(report_, result.ordering_stats);
  return result;
}

std::vector<double> Engine::solve(const la::SymMatrix& matrix, std::span<const double> rhs,
                                  bem::SolveStats* stats) {
  bem::SolveStats local_stats;
  bem::SolveStats* sink = stats != nullptr ? stats : &local_stats;
  bem::SolveExecution execution = solve_execution();
  // The local sink exists only to harvest the pager counters; don't let it
  // trigger the residual check's O(N^2) matvec the caller never asked for.
  if (stats == nullptr) execution.measure_residual = false;
  std::vector<double> x = bem::solve(matrix, rhs, solver_options(), execution, sink);
  // Counted only once the factorization actually happened (the direct path
  // factors exactly once per solve; a throw above counts nothing).
  if (config_.solver == bem::SolverKind::kCholesky) {
    report_.add_counter(kFactorizationsCounter, 1.0);
  }
  // The factor's working store is created and retired inside this call, so
  // its cumulative counters are exactly this solve's delta. The matrix is
  // caller-owned (cumulative across their calls) and not re-counted here.
  add_tile_counters(report_, sink->factor_tiles);
  return x;
}

bem::AnalysisResult Engine::analyze(const bem::BemModel& model,
                                    const bem::AnalysisOptions& options,
                                    PhaseReport* run_report) {
  // Borrowed submit: take() below blocks until the run is terminal, so the
  // caller's model provably outlives it and no copy is needed.
  RunFuture future = scheduler().submit_borrowed(model, options, {});
  bem::AnalysisResult result = future.take();
  if (run_report != nullptr) run_report->merge(future.report());
  return result;
}

FactoredSystem Engine::factor(const bem::BemModel& model, const bem::AnalysisOptions& options) {
  return scheduler().submit_factor_borrowed(model, options, {}).take();
}

}  // namespace ebem::engine
