#include "src/service/dispatcher.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/engine/factored_system.hpp"
#include "src/la/blas1.hpp"

namespace ebem::service {

namespace {

using std::chrono::milliseconds;

/// How long the harvester parks on each in-flight future per sweep. Small
/// enough to notice any of many runs turning terminal promptly, large
/// enough that an idle sweep costs no measurable CPU.
constexpr milliseconds kHarvestPollInterval{2};

}  // namespace

Dispatcher::Dispatcher(const ServiceConfig& config)
    : registry_(config), admission_(config.resolved_global_outstanding()) {
  harvester_ = std::thread([this] { harvester_loop(); });
}

Dispatcher::~Dispatcher() { shutdown(); }

std::string Dispatcher::handle(std::string_view line) {
  try {
    const Request request = decode_request(line);
    if (const auto* submit = std::get_if<SubmitRequest>(&request)) {
      return handle_submit(*submit);
    }
    if (const auto* report = std::get_if<ReportRequest>(&request)) {
      return handle_report(*report);
    }
    if (const auto* stats = std::get_if<StatsRequest>(&request)) {
      return handle_stats(*stats);
    }
    shutdown();
    Json::Object object;
    object.emplace("type", Json("shutdown_ok"));
    object.emplace("runs_harvested", Json(static_cast<double>(stats().runs_harvested)));
    return Json(std::move(object)).dump();
  } catch (const RequestError& error) {
    return error_response(error.code(), error.what());
  } catch (const std::exception& error) {
    return error_response(ErrorCode::kInternal, error.what());
  }
}

std::string Dispatcher::handle_submit(const SubmitRequest& request) {
  TenantSession* session = registry_.find(request.tenant);
  if (session == nullptr) {
    throw RequestError(ErrorCode::kUnknownTenant,
                       "tenant '" + request.tenant + "' is not registered");
  }

  // Mesh before admission: the element quota is checked against the meshed
  // size, and a model the codec accepted can still be rejected here without
  // the engine ever seeing it.
  bem::BemModel model = build_model(request.model);
  const std::size_t elements = model.element_count();
  admission_.admit(*session, elements);

  auto record = std::make_shared<RunRecord>();
  record->session = session;
  record->elements = elements;
  record->factor_solve = request.factor_solve;
  try {
    if (request.factor_solve) {
      record->factor_future =
          session->engine().submit_factor(std::move(model), session->study().options());
    } else {
      record->run_future = session->study().submit(std::move(model));
    }
  } catch (...) {
    admission_.retire(*session);
    throw;
  }

  {
    const std::scoped_lock lock(runs_mutex_);
    record->id = next_run_id_++;
    runs_.emplace(record->id, record);
    pending_ids_.insert(record->id);
  }
  runs_cv_.notify_all();
  return submitted_response(record->id, request.tenant, elements);
}

std::string Dispatcher::handle_report(const ReportRequest& request) {
  TenantSession* session = registry_.find(request.tenant);
  if (session == nullptr) {
    throw RequestError(ErrorCode::kUnknownTenant,
                       "tenant '" + request.tenant + "' is not registered");
  }
  std::shared_ptr<RunRecord> record;
  {
    const std::scoped_lock lock(runs_mutex_);
    const auto it = runs_.find(request.run_id);
    if (it != runs_.end()) record = it->second;
  }
  if (record == nullptr) {
    throw RequestError(ErrorCode::kUnknownRun,
                       "run " + std::to_string(request.run_id) + " was never issued");
  }
  if (record->session != session) {
    // A tenant may only observe its own runs — don't even confirm the id.
    throw RequestError(ErrorCode::kForbidden,
                       "run " + std::to_string(request.run_id) + " belongs to another tenant");
  }

  const auto timeout = std::chrono::duration_cast<std::chrono::nanoseconds>(
      milliseconds(request.wait_ms));
  if (!future_terminal(*record, timeout)) {
    RunReport report;
    report.run_id = record->id;
    report.factor_solve = record->factor_solve;
    const engine::RunStatus status = record->factor_solve ? record->factor_future.status()
                                                          : record->run_future.status();
    report.status = status == engine::RunStatus::kQueued ? "queued" : "running";
    return report_response(report);
  }
  harvest(record);
  const std::scoped_lock lock(record->mutex);
  return report_response(record->report);
}

std::string Dispatcher::handle_stats(const StatsRequest& request) {
  if (!request.tenant) {
    const DispatcherStats snapshot = stats();
    Json::Object object;
    object.emplace("type", Json("stats"));
    object.emplace("tenants", Json(static_cast<double>(registry_.sessions().size())));
    object.emplace("pool_threads", Json(static_cast<double>(registry_.pool_threads())));
    object.emplace("admitted", Json(static_cast<double>(snapshot.admission.admitted)));
    object.emplace("rejected", Json(static_cast<double>(snapshot.admission.rejected)));
    object.emplace("global_outstanding",
                   Json(static_cast<double>(snapshot.admission.global_outstanding)));
    object.emplace("global_peak_outstanding",
                   Json(static_cast<double>(snapshot.admission.global_peak_outstanding)));
    object.emplace("runs_harvested", Json(static_cast<double>(snapshot.runs_harvested)));
    object.emplace("shutting_down", Json(snapshot.shutting_down));
    return Json(std::move(object)).dump();
  }

  TenantSession* session = registry_.find(*request.tenant);
  if (session == nullptr) {
    throw RequestError(ErrorCode::kUnknownTenant,
                       "tenant '" + *request.tenant + "' is not registered");
  }
  const AdmissionLedger ledger = admission_.ledger_snapshot(*session);
  const CostAccount& account = session->account();
  const PhaseReport& bill = account.bill();
  const engine::SchedulerStats engine_stats = session->engine().scheduler_stats();

  Json::Object object;
  object.emplace("type", Json("tenant_stats"));
  object.emplace("tenant", Json(session->name()));
  object.emplace("outstanding", Json(static_cast<double>(ledger.outstanding)));
  object.emplace("peak_outstanding", Json(static_cast<double>(ledger.peak_outstanding)));
  object.emplace("runs_completed", Json(static_cast<double>(account.runs_completed())));
  object.emplace("runs_failed", Json(static_cast<double>(account.runs_failed())));
  object.emplace("runs_rejected", Json(static_cast<double>(account.runs_rejected())));
  object.emplace("elements_billed", Json(static_cast<double>(account.elements_billed())));
  object.emplace("assembly_seconds", Json(bill.wall_seconds(Phase::kMatrixGeneration)));
  object.emplace("solve_seconds", Json(bill.wall_seconds(Phase::kLinearSolve)));
  object.emplace("total_seconds", Json(bill.total_wall_seconds()));
  object.emplace("cache_hits", Json(bill.counter(bem::kCacheHitsCounter)));
  object.emplace("cache_misses", Json(bill.counter(bem::kCacheMissesCounter)));
  object.emplace("engine_submitted", Json(static_cast<double>(engine_stats.submitted)));
  object.emplace("engine_peak_outstanding",
                 Json(static_cast<double>(engine_stats.peak_outstanding)));
  return Json(std::move(object)).dump();
}

bool Dispatcher::future_terminal(RunRecord& record, std::chrono::nanoseconds timeout) {
  return record.factor_solve ? record.factor_future.wait_for(timeout)
                             : record.run_future.wait_for(timeout);
}

RunReport Dispatcher::build_report(RunRecord& record) {
  RunReport report;
  report.run_id = record.id;
  report.factor_solve = record.factor_solve;
  report.elements = record.elements;

  const PhaseReport& run_phase = record.factor_solve ? record.factor_future.report()
                                                     : record.run_future.report();
  report.assembly_seconds = run_phase.wall_seconds(Phase::kMatrixGeneration);
  report.solve_seconds = run_phase.wall_seconds(Phase::kLinearSolve);
  report.total_seconds = run_phase.total_wall_seconds();
  report.cache_hits = run_phase.counter(bem::kCacheHitsCounter);
  report.cache_misses = run_phase.counter(bem::kCacheMissesCounter);

  try {
    if (record.factor_solve) {
      // Answer the unit-GPR problem by substitution, then rescale — exactly
      // finish_analysis()'s arithmetic, so both wire paths agree to the
      // last bit modulo the solver route.
      engine::FactoredSystem system = record.factor_future.take();
      std::vector<double> sigma = system.solve();
      const double normalized_current = la::dot(system.rhs(), sigma);
      EBEM_ENSURE(normalized_current > 0.0, "non-positive total leakage current");
      const double gpr = record.session->config().gpr;
      report.equivalent_resistance = 1.0 / normalized_current;
      report.total_current = gpr * normalized_current;
      la::scal(gpr, sigma);
      report.sigma_l2 = std::sqrt(la::dot(sigma, sigma));
    } else {
      const bem::AnalysisResult& result = record.run_future.get();
      report.equivalent_resistance = result.equivalent_resistance;
      report.total_current = result.total_current;
      report.sigma_l2 = std::sqrt(la::dot(result.sigma, result.sigma));
    }
    report.status = "done";
  } catch (const std::exception& error) {
    report.status = "failed";
    report.error = error.what();
  }
  return report;
}

void Dispatcher::harvest(const std::shared_ptr<RunRecord>& record) {
  {
    std::unique_lock lock(record->mutex);
    if (record->harvest == RunRecord::Harvest::kDone) return;
    if (record->harvest == RunRecord::Harvest::kInProgress) {
      record->cv.wait(lock, [&] { return record->harvest == RunRecord::Harvest::kDone; });
      return;
    }
    record->harvest = RunRecord::Harvest::kInProgress;
  }

  // Slow work (a factor+solve harvest runs substitutions) happens with no
  // dispatcher-wide lock held; only this thread owns the claim.
  RunReport report = build_report(*record);
  const bool failed = report.status == "failed";

  // A run is reported done only once its bill is posted and its admission
  // slot is released: a client that sees "done" and resubmits at once must
  // find its window free and its account already reconciled. The future is
  // terminal here, so retiring first never undercounts live work.
  const PhaseReport& run_phase = record->factor_solve ? record->factor_future.report()
                                                      : record->run_future.report();
  record->session->account().bill_run(run_phase, record->elements, failed);
  admission_.retire(*record->session);

  {
    const std::scoped_lock lock(record->mutex);
    record->report = std::move(report);
    record->harvest = RunRecord::Harvest::kDone;
  }
  record->cv.notify_all();

  {
    const std::scoped_lock lock(runs_mutex_);
    pending_ids_.erase(record->id);
    ++runs_harvested_;
  }
  runs_cv_.notify_all();
}

void Dispatcher::harvester_loop() {
  std::unique_lock lock(runs_mutex_);
  while (!stop_harvester_) {
    if (pending_ids_.empty()) {
      runs_cv_.wait(lock, [&] { return stop_harvester_ || !pending_ids_.empty(); });
      continue;
    }
    std::vector<std::shared_ptr<RunRecord>> pending;
    pending.reserve(pending_ids_.size());
    for (const std::uint64_t id : pending_ids_) pending.push_back(runs_.at(id));
    lock.unlock();
    for (const std::shared_ptr<RunRecord>& record : pending) {
      if (future_terminal(*record, kHarvestPollInterval)) harvest(record);
    }
    lock.lock();
  }
}

void Dispatcher::shutdown() {
  {
    const std::scoped_lock lock(runs_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  admission_.begin_shutdown();
  // Drain every tenant engine: all submitted runs reach a terminal state.
  for (TenantSession* session : registry_.sessions()) session->engine().drain();
  // Harvest (and bill) whatever the harvester has not claimed yet.
  std::vector<std::shared_ptr<RunRecord>> pending;
  {
    const std::scoped_lock lock(runs_mutex_);
    pending.reserve(pending_ids_.size());
    for (const std::uint64_t id : pending_ids_) pending.push_back(runs_.at(id));
  }
  for (const std::shared_ptr<RunRecord>& record : pending) harvest(record);
  {
    const std::scoped_lock lock(runs_mutex_);
    stop_harvester_ = true;
  }
  runs_cv_.notify_all();
  if (harvester_.joinable()) harvester_.join();
  // A submit that slipped past admission before begin_shutdown() may have
  // landed after the sweep above; bill those stragglers too.
  pending.clear();
  {
    const std::scoped_lock lock(runs_mutex_);
    for (const std::uint64_t id : pending_ids_) pending.push_back(runs_.at(id));
  }
  for (const std::shared_ptr<RunRecord>& record : pending) {
    if (future_terminal(*record, std::chrono::seconds(60))) harvest(record);
  }
}

DispatcherStats Dispatcher::stats() {
  DispatcherStats snapshot;
  snapshot.admission = admission_.stats();
  const std::scoped_lock lock(runs_mutex_);
  snapshot.runs_tracked = runs_.size();
  snapshot.runs_harvested = runs_harvested_;
  snapshot.shutting_down = shut_down_;
  return snapshot;
}

}  // namespace ebem::service
