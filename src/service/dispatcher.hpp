// service::Dispatcher — the transport-agnostic core of the service.
//
// One Dispatcher is the whole server minus the bytes: handle() maps one
// request line to one response line, thread-safe, so any number of
// connection threads (socket server) or in-process callers (loopback) share
// it. Behind handle() sit the TenantRegistry (per-tenant engines + warm
// caches), the AdmissionController (typed rejections in front of every
// submit), a run table of in-flight futures, and a harvester thread that
// watches those futures with deadlines (FutureBase::wait_for), bills the
// tenant's CostAccount with each terminal run's PhaseReport, retires the
// admission slot, and only then publishes the RunReport — so "done" implies
// the slot is free and the bill is posted, and billing happens whether or
// not a client ever asks for the report.
//
// shutdown() is graceful and idempotent: stop admitting (typed
// shutting_down rejections), drain every tenant engine, harvest and bill
// everything still in flight, then join the harvester. Reports and stats
// stay answerable after shutdown — the bill outlives the work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "src/engine/scheduler.hpp"
#include "src/service/admission.hpp"
#include "src/service/codec.hpp"
#include "src/service/tenant.hpp"

namespace ebem::service {

/// The dispatcher-wide picture (server stats endpoint, tests, bench gates).
struct DispatcherStats {
  std::size_t runs_tracked = 0;     ///< submitted runs still remembered
  std::uint64_t runs_harvested = 0;  ///< terminal runs billed and retired
  AdmissionStats admission;
  bool shutting_down = false;
};

class Dispatcher {
 public:
  explicit Dispatcher(const ServiceConfig& config);

  /// Calls shutdown().
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// One request line in, one response line out (no trailing newline).
  /// Never throws: every failure becomes a typed error response. Safe from
  /// any number of threads concurrently.
  [[nodiscard]] std::string handle(std::string_view line);

  /// Graceful stop: reject new submits, drain every tenant engine, harvest
  /// and bill all in-flight runs, join the harvester. Idempotent; stats and
  /// get_report keep answering afterwards.
  void shutdown();

  [[nodiscard]] DispatcherStats stats();

  [[nodiscard]] TenantRegistry& registry() { return registry_; }
  [[nodiscard]] AdmissionController& admission() { return admission_; }

 private:
  /// One submitted run: its future, its identity, and the harvest state
  /// machine. The record-level mutex serializes harvest claiming between
  /// the harvester thread and a waiting get_report — whichever sees the
  /// future turn terminal first does the (possibly slow) harvest work
  /// without holding any dispatcher-wide lock.
  struct RunRecord {
    std::uint64_t id = 0;
    TenantSession* session = nullptr;
    std::size_t elements = 0;
    bool factor_solve = false;
    engine::RunFuture run_future;
    engine::FactorFuture factor_future;

    std::mutex mutex;
    std::condition_variable cv;
    enum class Harvest { kPending, kInProgress, kDone } harvest = Harvest::kPending;
    RunReport report;  ///< published payload, valid once harvest == kDone
  };

  std::string handle_submit(const SubmitRequest& request);
  std::string handle_report(const ReportRequest& request);
  std::string handle_stats(const StatsRequest& request);

  /// True when the record's future is terminal (waiting up to `timeout`).
  static bool future_terminal(RunRecord& record, std::chrono::nanoseconds timeout);

  /// Claim and perform the harvest if still pending; wait for the claimant
  /// otherwise. Bills and retires the run *before* publishing its report,
  /// so on return (and for every waiter that observes kDone) the run is
  /// billed + retired. Requires the future to be terminal.
  void harvest(const std::shared_ptr<RunRecord>& record);

  /// Build the published RunReport from a terminal future (analysis or
  /// factor+solve flavor) — the only place wire numbers are derived.
  RunReport build_report(RunRecord& record);

  void harvester_loop();

  TenantRegistry registry_;
  AdmissionController admission_;

  std::mutex runs_mutex_;
  std::condition_variable runs_cv_;  ///< new work / shutdown for the harvester
  std::map<std::uint64_t, std::shared_ptr<RunRecord>> runs_;
  std::set<std::uint64_t> pending_ids_;  ///< not yet harvested
  std::uint64_t next_run_id_ = 1;
  std::uint64_t runs_harvested_ = 0;
  bool stop_harvester_ = false;
  bool shut_down_ = false;

  std::thread harvester_;
};

}  // namespace ebem::service
