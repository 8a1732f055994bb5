#include "harness/workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <variant>

#include "harness/stats.hpp"
#include "harness/trace.hpp"
#include "src/common/resource_usage.hpp"
#include "src/ebem.hpp"

namespace perfbench {
namespace {

using namespace ebem;

// ----------------------------------------------------------------- basics ---

/// Req and GPR must match the serial cache-off reference this closely.
constexpr double kParityTolerance = 1e-12;
/// Touch and step voltages are GPR minus a surface potential, so a 1e-12
/// difference in the leakage density can grow by the ratio GPR / touch.
constexpr double kSafetyTolerance = 1e-9;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Fault-clearing time of every safety criterion [s].
constexpr double kFaultDuration = 0.5;

/// splitmix64: every input is a pure function of (seed, stream, index).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index = 0)
      : state_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 1) * 0xBF58476D1CE4E5B9ULL ^
               (index + 1) * 0x94D049BB133111EBULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(CPU_COUNT(&set)));
  }
  return par::hardware_threads();
}

bool rel_close(double a, double b, double tolerance) {
  return std::abs(a - b) <= tolerance * std::max(std::abs(a), std::abs(b));
}

double ms(double seconds) { return 1e3 * seconds; }

double peak_rss_mb() { return static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0); }

void note(RunOutput& out, const char* format, ...) __attribute__((format(printf, 2, 3)));
void note(RunOutput& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  out.notes.emplace_back(buffer);
}

std::vector<geom::Conductor> rect_grid(std::size_t cells_x, std::size_t cells_y,
                                       std::size_t rods) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells_x);
  spec.length_y = 5.0 * static_cast<double>(cells_y);
  spec.cells_x = cells_x;
  spec.cells_y = cells_y;
  std::vector<geom::Conductor> grid = geom::make_rect_grid(spec);
  if (rods > 0) geom::add_rods(grid, geom::perimeter_rod_positions(spec, rods), spec.depth, {});
  return grid;
}

bem::BemModel mesh_model(const std::vector<geom::Conductor>& conductors,
                         const soil::LayeredSoil& soil) {
  return bem::BemModel(geom::Mesh::build(bem::split_at_interfaces(conductors, soil), {}), soil);
}

/// A seeded two-layer soil: resistive top layer over a conductive one, with
/// the interface between the grid plane (0.8 m) and the rod tips. The seed
/// scales both resistivities together: the reflection coefficient, and with
/// it the length of the image series every kernel evaluation sums, stays
/// fixed, so a run's cost does not depend on which seed it was given.
soil::LayeredSoil seeded_soil(Rng& rng) {
  const double scale = rng.uniform(0.5, 2.0);
  return soil::LayeredSoil::two_layer(1.0 / (200.0 * scale), 1.0 / (50.0 * scale), 1.5);
}

// ----------------------------------------------------------------- safety ---

/// The sampled surface rectangle of one verdict.
struct Patch {
  double x1 = 0.0;
  double y1 = 0.0;
  std::size_t n = 3;  ///< samples per axis
};

post::SafetyCriteria criteria_for(double surface_layer_resistivity, double soil_resistivity) {
  post::SafetyCriteria criteria;
  criteria.fault_duration = kFaultDuration;
  criteria.surface_resistivity = surface_layer_resistivity;
  criteria.soil_resistivity = soil_resistivity;
  return criteria;
}

/// IEEE-80 assessment of a unit-GPR solution rescaled to `gpr` (everything
/// is proportional to the GPR, so the leakage density scales with it).
post::SafetyAssessment assess(const bem::BemModel& model, const std::vector<double>& unit_sigma,
                              double gpr, const Patch& patch,
                              const post::SafetyCriteria& criteria) {
  std::vector<double> sigma(unit_sigma);
  for (double& s : sigma) s *= gpr;
  const post::PotentialEvaluator evaluator(model, std::move(sigma));
  return post::assess_safety(evaluator, gpr, 0.0, patch.x1, 0.0, patch.y1, patch.n, patch.n,
                             criteria);
}

/// Serial cache-off analysis of one model plus its unit-GPR touch and step
/// maxima (touch and step voltages are homogeneous of degree one in the GPR).
struct Reference {
  double req = 0.0;
  double sigma_l2 = 0.0;
  std::vector<double> unit_sigma;
  double unit_touch = 0.0;
  double unit_step = 0.0;
};

/// Compare one served verdict against its reference at the verdict's GPR.
bool verdict_matches(const Reference& ref, double served_req, double fault_current,
                     const post::SafetyAssessment& served) {
  const double ref_gpr = fault_current * ref.req;
  const double ref_touch = ref_gpr * ref.unit_touch;
  const double ref_step = ref_gpr * ref.unit_step;
  return rel_close(served_req, ref.req, kParityTolerance) &&
         rel_close(served.gpr, ref_gpr, kParityTolerance) &&
         rel_close(served.max_touch_voltage, ref_touch, kSafetyTolerance) &&
         rel_close(served.max_step_voltage, ref_step, kSafetyTolerance) &&
         served.touch_safe() == (ref_touch <= served.tolerable_touch) &&
         served.step_safe() == (ref_step <= served.tolerable_step);
}

/// References for every model, computed on cpu_count() threads, each with
/// its own serial cache-off engine. Runs outside the timed region and
/// outside setup_s.
std::vector<Reference> compute_references(const std::vector<const bem::BemModel*>& models,
                                          const std::vector<Patch>& patches) {
  std::vector<Reference> refs(models.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::mutex failure_mutex;
  const auto worker = [&] {
    try {
      engine::ExecutionConfig config;
      config.num_threads = 1;
      config.pipeline_width = 1;
      config.use_congruence_cache = false;
      engine::Engine engine(config);
      for (std::size_t i = next++; i < models.size(); i = next++) {
        const bem::AnalysisResult result = engine.analyze(*models[i]);
        Reference& ref = refs[i];
        ref.req = result.equivalent_resistance;
        double l2 = 0.0;
        for (const double s : result.sigma) l2 += s * s;
        ref.sigma_l2 = std::sqrt(l2);
        ref.unit_sigma = result.sigma;
        const post::SafetyAssessment unit =
            assess(*models[i], result.sigma, 1.0, patches[i], criteria_for(0.0, 100.0));
        ref.unit_touch = unit.max_touch_voltage;
        ref.unit_step = unit.max_step_voltage;
      }
    } catch (...) {
      const std::scoped_lock lock(failure_mutex);
      failure = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::min(cpu_count(), models.size()); ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& thread : threads) thread.join();
  if (failure) std::rethrow_exception(failure);
  return refs;
}

// --------------------------------------------------------- thread budget ---

/// Threads one phase keeps, by role, and how many of them can be runnable
/// at once. Asserted against the CPUs this process may use.
struct Census {
  std::string phase;
  std::vector<std::pair<std::string, std::size_t>> roles;
  std::size_t runnable = 0;
};

void enforce(const Census& census, std::size_t nproc, RunOutput& out) {
  std::string roles;
  std::size_t total = 0;
  for (const auto& [role, count] : census.roles) {
    roles += " " + role + "=" + std::to_string(count);
    total += count;
  }
  note(out, "threads %s: total=%zu runnable=%zu nproc=%zu |%s", census.phase.c_str(), total,
       census.runnable, nproc, roles.c_str());
  if (census.runnable > nproc) {
    throw std::runtime_error("thread budget: phase " + census.phase + " keeps " +
                             std::to_string(census.runnable) + " threads runnable on " +
                             std::to_string(nproc) + " CPUs");
  }
}

/// Engine-side census: the harness thread that submits and post-processes,
/// pipeline executors, and pool workers (the pool's caller is thread 0, so a
/// P-thread pool spawns P - 1 workers). An executor in a pool region and the
/// other executor in a serial section can both run.
Census engine_census(const std::string& phase, std::size_t pool_threads, std::size_t width) {
  Census census;
  census.phase = phase;
  census.roles = {{"harness", 1}, {"executors", width}, {"pool_workers", pool_threads - 1}};
  census.runnable = 1 + width + (pool_threads - 1);
  return census;
}

/// Pool width of the multi-thread phases: what is left of the CPUs after the
/// harness thread and the second pipeline executor.
std::size_t multi_thread_width(std::size_t nproc) { return nproc > 3 ? nproc - 2 : 1; }

// --------------------------------------------------------------- probes ---

/// Median wall time of an empty region on a pool of `threads` — the fork/join
/// floor every parallel_for pays.
double region_us(std::size_t threads) {
  par::ThreadPool pool(threads);
  std::vector<double> samples;
  std::atomic<std::size_t> sink{0};
  for (int i = 0; i < 2000; ++i) {
    const double start = now_seconds();
    pool.run([&](std::size_t id) { sink.fetch_add(id, std::memory_order_relaxed); });
    samples.push_back(now_seconds() - start);
  }
  return 1e6 * median(samples);
}

double kernel_build_ms(const std::vector<soil::LayeredSoil>& soils, SpanRecorder& recorder) {
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const soil::LayeredSoil& soil : soils) {
      const ScopedSpan span(recorder, "soil.kernel_build");
      const std::unique_ptr<soil::PointKernel> kernel = soil::make_kernel(soil);
      if (kernel == nullptr) throw std::runtime_error("soil::make_kernel returned null");
    }
  }
  return ms(median(recorder.self_times("soil.kernel_build")));
}

/// Per-pair cost of a cache hit and of an integrated pair on one model, at
/// one thread: a cache-off assembly integrates every pair; a repeated
/// cache-on assembly replays them.
struct PairCosts {
  double hit_ns = 0.0;
  double miss_ns = 0.0;
};

PairCosts pair_costs(const bem::BemModel& model, SpanRecorder& recorder) {
  engine::ExecutionConfig cold_config;
  cold_config.num_threads = 1;
  cold_config.use_congruence_cache = false;
  engine::Engine cold(cold_config);
  const double pairs = static_cast<double>(model.element_count()) *
                       static_cast<double>(model.element_count() + 1) / 2.0;
  std::vector<double> miss;
  for (int i = 0; i < 2; ++i) {
    const ScopedSpan span(recorder, "bem.assemble.cold");
    const double start = now_seconds();
    (void)cold.assemble(model);
    miss.push_back(now_seconds() - start);
  }
  engine::ExecutionConfig warm_config;
  warm_config.num_threads = 1;
  engine::Engine warm(warm_config);
  (void)warm.assemble(model);
  std::vector<double> hit;
  double hit_pairs = 0.0;
  for (int i = 0; i < 3; ++i) {
    const ScopedSpan span(recorder, "bem.assemble.warm");
    const double start = now_seconds();
    const bem::AssemblyResult result = warm.assemble(model);
    hit.push_back(now_seconds() - start);
    hit_pairs = static_cast<double>(result.cache_stats.hits + result.cache_stats.misses);
  }
  return {1e9 * median(hit) / std::max(hit_pairs, 1.0), 1e9 * median(miss) / pairs};
}

/// Factor and solve wall times of one model through the engine's factor
/// path: the factor run's own PhaseReport gives the factorization, a span
/// around FactoredSystem::solve gives the substitution.
struct FactorSolve {
  double factor_ms = 0.0;
  double solve_ms = 0.0;
};

FactorSolve factor_solve(engine::Engine& engine, const bem::BemModel& model,
                         SpanRecorder& recorder, int repeats) {
  std::vector<double> factor;
  for (int i = 0; i < repeats; ++i) {
    engine::FactorFuture future = engine.submit_factor(model);
    factor.push_back(future.report().wall_seconds(Phase::kLinearSolve));
    const engine::FactoredSystem system = future.take();
    const ScopedSpan span(recorder, "la.solve");
    if (system.solve().empty()) throw std::runtime_error("empty solve");
  }
  return {ms(median(factor)), ms(median(recorder.self_times("la.solve")))};
}

/// Metrics every workload reports in its traced run, preset to zero for the
/// layers it does not exercise. Order follows BENCHMARK.json.
std::vector<Metric> per_layer_template() {
  return {
      {"geom.mesh_ms", 0, "ms"},
      {"soil.kernel_build_ms", 0, "ms"},
      {"bem.assemble_ms", 0, "ms"},
      {"bem.pairs", 0, "count"},
      {"bem.pairs_integrated", 0, "count"},
      {"bem.cache_hit_rate", 0, "ratio"},
      {"bem.hit_ns_per_pair", 0, "ns"},
      {"bem.miss_ns_per_pair", 0, "ns"},
      {"bem.assemble_speedup", 0, "ratio"},
      {"bem.far_pairs_sampled_ratio", 0, "ratio"},
      {"bem.far_pairs_replayed_share", 0, "ratio"},
      {"la.factor_ms", 0, "ms"},
      {"la.solve_ms", 0, "ms"},
      {"la.stored_bytes_ratio", 0, "ratio"},
      {"engine.gate_wait_ms", 0, "ms"},
      {"engine.cache_drops", 0, "count"},
      {"engine.queue_wait_ms", 0, "ms"},
      {"engine.peak_outstanding", 0, "count"},
      {"post.safety_ms", 0, "ms"},
      {"campaign.peak_in_flight", 0, "count"},
      {"service.codec_us", 0, "us"},
      {"service.harvest_lag_ms", 0, "ms"},
      {"service.rejected", 0, "count"},
      {"service.capacity_rps", 0, "1/s"},
      {"parallel.region_us", 0, "us"},
      {"harness.gen_lag_p99_ms", 0, "ms"},
      {"harness.trace_residual_share", 0, "ratio"},
      {"harness.trace_overhead_share", 0, "ratio"},
  };
}

void set_metric(std::vector<Metric>& metrics, const std::string& name, double value) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

/// End-to-end metrics in BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0.0;
  double verdicts_per_s = 0.0;
  double verdicts_per_s_1t = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

void emit_end_to_end(const EndToEnd& e, RunOutput& out) {
  out.metrics = {
      {"setup_s", e.setup_s, "s"},
      {"verdicts_per_s", e.verdicts_per_s, "1/s"},
      {"verdicts_per_s_1t", e.verdicts_per_s_1t, "1/s"},
      {"verdict_p50_ms", e.p50_ms, "ms"},
      {"verdict_p90_ms", e.p90_ms, "ms"},
      {"ok_share",
       out.attempted > 0
           ? static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted)
           : 0.0,
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Latency percentiles of one phase as medians over blocks, samples in
/// completion order.
void latency_percentiles(const std::vector<double>& latencies_ms, const std::string& what,
                         EndToEnd& e, RunOutput& out) {
  note(out, "%s: %zu latency samples in blocks of %zu", what.c_str(), latencies_ms.size(),
       percentile_block(0.9));
  e.p50_ms = block_percentile(latencies_ms, 0.50, what);
  e.p90_ms = block_percentile(latencies_ms, 0.90, what);
}

/// Run `setup` kSetupRepeats times, tearing each session down before the
/// next, and keep the last one; setup_s is the median of their durations.
template <typename Setup>
auto repeated_setup(Setup&& setup, double& setup_s) {
  std::vector<double> seconds;
  for (int i = 1; i < kSetupRepeats; ++i) seconds.push_back(setup().second);
  auto [session, last] = setup();
  seconds.push_back(last);
  setup_s = median(seconds);
  return std::move(session);
}

void write_trace(const RunConfig& config, const SpanRecorder& recorder, RunOutput& out) {
  std::error_code error;
  std::filesystem::create_directories(config.trace_dir, error);
  const std::string path =
      config.trace_dir + "/" + config.workload + "-" + std::to_string(config.seed) + ".jsonl";
  if (error || !recorder.write_jsonl(path)) {
    note(out, "trace: could not write %s", path.c_str());
    return;
  }
  note(out, "trace: %zu spans written to %s", recorder.spans().size(), path.c_str());
}

// ----------------------------------------------------------- service probe ---
//
// Two tenants over the loopback socket, one connection each, sending small
// models open-loop from a seeded schedule at fixed offered rates. The warm
// tenant keeps one soil; the cold tenant sends a new soil with every
// request. Run from the traced design_ladder run: the service layer (codec,
// admission, dispatcher harvest) is measured, but its millisecond latencies
// swing with host scheduling by more than an end-to-end bound allows, so it
// is not a workload of its own.
//
// Each tenant's connection carries one request at a time (submit, then a
// waiting get_report), so a request due while its predecessor is still
// running is sent late.

constexpr std::array<double, 2> kServiceRates = {200.0, 1600.0};  // aggregate [1/s]
/// Requests per rate: the probe rate's generator-lag p99 needs >= 902; the
/// top rate, which measures capacity, gets more so that a host stall moves a
/// smaller share of it.
constexpr std::array<std::size_t, 2> kRequestsPerRate = {1000, 3000};
constexpr double kServiceLimitS = 0.100;  // latency limit the probe reports against
constexpr std::size_t kColdSoils = 32;
constexpr std::size_t kTenants = 2;
/// Share of each rate's requests sent by the warm and the cold tenant.
constexpr std::array<double, kTenants> kTenantShare = {0.5, 0.5};
/// Shares of the warm tenant's requests that check its medium and its large
/// design; the rest cycle through its three small designs.
constexpr double kMediumDesignShare = 0.32;
constexpr double kLargeDesignShare = 0.0375;

struct ServiceModel {
  std::string spec_json;  // the "model" object of a submit request
  std::unique_ptr<bem::BemModel> model;
  Patch patch;
  double surface_soil_resistivity = 0.0;
};

std::string model_json(std::size_t cells_x, std::size_t cells_y, const soil::LayeredSoil& soil) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"grid\":{\"length_x\":%.17g,\"length_y\":%.17g,\"cells_x\":%zu,"
                "\"cells_y\":%zu},\"soil\":{\"conductivities\":[%.17g,%.17g],"
                "\"thicknesses\":[%.17g]}}",
                5.0 * static_cast<double>(cells_x), 5.0 * static_cast<double>(cells_y), cells_x,
                cells_y, soil.conductivity(0), soil.conductivity(1), soil.layer(0).thickness);
  return buffer;
}

std::string submit_line(const std::string& tenant, const ServiceModel& model, bool factor_solve) {
  return std::string("{\"type\":\"") +
         (factor_solve ? "submit_factor_solve" : "submit_analysis") + "\",\"tenant\":\"" +
         tenant + "\",\"model\":" + model.spec_json + "}";
}

std::string report_line(const std::string& tenant, double run_id) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "{\"type\":\"get_report\",\"tenant\":\"%s\",\"run_id\":%.0f,\"wait_ms\":60000}",
                tenant.c_str(), run_id);
  return buffer;
}

double number(const service::Json& response, const char* key) {
  const service::Json* value = response.find(key);
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

std::string text(const service::Json& response, const char* key) {
  const service::Json* value = response.find(key);
  return value != nullptr && value->is_string() ? value->as_string() : std::string();
}

/// One scheduled request of one tenant.
struct Scheduled {
  std::size_t model = 0;
  bool factor_solve = false;
  double fault_current = 0.0;
  double due_offset = 0.0;  // seconds after the phase starts
};

struct Tenant {
  std::string name;
  std::vector<ServiceModel> models;
};

struct ServiceSession {
  std::vector<Tenant> tenants;
  std::unique_ptr<service::Dispatcher> dispatcher;
  std::unique_ptr<service::Server> server;
  std::vector<std::unique_ptr<service::Client>> clients;
};

std::size_t requests_of(std::size_t tenant, std::size_t rate_index) {
  return static_cast<std::size_t>(
      std::lround(kTenantShare[tenant] * static_cast<double>(kRequestsPerRate[rate_index])));
}

/// Evenly spaced due times per tenant at its share of the rate, the second
/// tenant offset by half its period. Every rate has the same composition in
/// the same positions — the warm tenant's medium (5x5) and large (8x8)
/// designs spread evenly through its schedule among its three small ones,
/// request kinds alternating — so the work does not depend on the seed,
/// which picks the small designs, the soils and the fault currents.
std::vector<Scheduled> schedule(std::uint64_t seed, std::size_t tenant, std::size_t rate_index,
                                std::size_t model_count) {
  const std::size_t n = requests_of(tenant, rate_index);
  const double period = 1.0 / (kTenantShare[tenant] * kServiceRates[rate_index]);
  Rng rng(seed, 40 + tenant, rate_index);
  double large = 0.5;
  double medium = 0.5;
  std::vector<Scheduled> out;
  for (std::size_t i = 0; i < n; ++i) {
    Scheduled s;
    if (tenant == 0) {
      large += kLargeDesignShare;
      medium += kMediumDesignShare;
      if (large >= 1.0) {
        large -= 1.0;
        s.model = model_count - 1;
      } else if (medium >= 1.0) {
        medium -= 1.0;
        s.model = model_count - 2;
      } else {
        s.model = rng.next() % (model_count - 2);
      }
    } else {
      s.model = i % model_count;
    }
    s.factor_solve = i % 2 == 1;
    s.fault_current = rng.uniform(300.0, 3000.0);
    s.due_offset = period * (static_cast<double>(i) + 0.5 * static_cast<double>(tenant));
    out.push_back(s);
  }
  return out;
}

ServiceModel make_service_model(std::size_t cells_x, std::size_t cells_y,
                                const soil::LayeredSoil& soil, SpanRecorder& recorder) {
  ServiceModel m;
  m.spec_json = model_json(cells_x, cells_y, soil);
  // Mesh through the same decode + build_model path the server takes.
  const service::Request request =
      service::decode_request("{\"type\":\"submit_analysis\",\"tenant\":\"x\",\"model\":" +
                              m.spec_json + "}");
  const ScopedSpan span(recorder, "geom.mesh");
  m.model = std::make_unique<bem::BemModel>(
      service::build_model(std::get<service::SubmitRequest>(request).model));
  m.patch = {5.0 * static_cast<double>(cells_x), 5.0 * static_cast<double>(cells_y), 3};
  m.surface_soil_resistivity = soil.resistivity(0);
  return m;
}

std::pair<ServiceSession, double> setup_service(std::uint64_t seed, SpanRecorder& recorder) {
  const double start = now_seconds();
  ServiceSession session;
  Rng rng(seed, 50);
  Tenant warm{"warm", {}};
  const soil::LayeredSoil warm_soil = seeded_soil(rng);
  // Three small designs, then the medium and the large one.
  for (const auto& [cx, cy] :
       {std::pair<std::size_t, std::size_t>{2, 2}, {3, 2}, {3, 3}, {5, 5}, {8, 8}}) {
    warm.models.push_back(make_service_model(cx, cy, warm_soil, recorder));
  }
  Tenant cold{"cold", {}};
  for (std::size_t i = 0; i < kColdSoils; ++i) {
    cold.models.push_back(make_service_model(2, 2, seeded_soil(rng), recorder));
  }
  session.tenants.push_back(std::move(warm));
  session.tenants.push_back(std::move(cold));

  service::ServiceConfig config;
  config.num_threads = 1;
  config.pipeline_width = 1;
  for (const Tenant& tenant : session.tenants) {
    service::TenantConfig tenant_config;
    tenant_config.name = tenant.name;
    tenant_config.quotas.max_outstanding_runs = 2;
    config.tenants.push_back(tenant_config);
  }
  session.dispatcher = std::make_unique<service::Dispatcher>(config);
  session.server = std::make_unique<service::Server>(*session.dispatcher, 0);
  for (std::size_t t = 0; t < kTenants; ++t) {
    session.clients.push_back(std::make_unique<service::Client>(session.server->port()));
  }
  // Warm-up round: every model of each tenant once.
  for (std::size_t t = 0; t < kTenants; ++t) {
    const Tenant& tenant = session.tenants[t];
    for (std::size_t i = 0; i < tenant.models.size(); ++i) {
      const service::Json submitted = service::decode_response(
          session.clients[t]->call(submit_line(tenant.name, tenant.models[i], false)));
      const service::Json report = service::decode_response(session.clients[t]->call(
          report_line(tenant.name, number(submitted, "run_id"))));
      if (text(report, "status") != "done") throw std::runtime_error("warm-up request failed");
    }
  }
  return {std::move(session), now_seconds() - start};
}

struct ServiceRecord {
  TimedRequest timing;
  std::size_t tenant = 0;
  double report_received = 0.0;
  double run_total = 0.0;
  double codec = 0.0;
};

/// One tenant's schedule at one rate, on its own client thread.
void drive_tenant(ServiceSession& session, const std::vector<Reference>& refs,
                  std::size_t tenant_index, const std::vector<Scheduled>& plan, double start,
                  std::uint64_t id_base, SpanRecorder& recorder,
                  std::vector<ServiceRecord>& records) {
  const Tenant& tenant = session.tenants[tenant_index];
  service::Client& client = *session.clients[tenant_index];
  const auto thread = static_cast<unsigned>(tenant_index + 1);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Scheduled& s = plan[i];
    const ServiceModel& model = tenant.models[s.model];
    ServiceRecord record;
    record.tenant = tenant_index;
    record.timing.ready = now_seconds();
    record.timing.due = start + s.due_offset;
    sleep_until_seconds(record.timing.due);
    record.timing.sent = now_seconds();
    const std::uint64_t id = id_base + i + 1;
    const int root = recorder.open("verdict", -1, id, thread);
    const auto codec = [&](auto&& body) {
      const double t0 = now_seconds();
      {
        const ScopedSpan span(recorder, "service.codec", root, id, thread);
        body();
      }
      record.codec += now_seconds() - t0;
    };
    try {
      std::string line;
      codec([&] { line = submit_line(tenant.name, model, s.factor_solve); });
      std::string response;
      {
        const ScopedSpan span(recorder, "service.call", root, id, thread);
        response = client.call(line);
      }
      service::Json submitted;
      codec([&] { submitted = service::decode_response(response); });
      if (text(submitted, "type") == "error") {
        throw std::runtime_error("rejected: " + text(submitted, "code"));
      }
      codec([&] { line = report_line(tenant.name, number(submitted, "run_id")); });
      {
        const ScopedSpan span(recorder, "service.call", root, id, thread);
        response = client.call(line);
      }
      service::Json report;
      codec([&] { report = service::decode_response(response); });
      record.report_received = now_seconds();
      if (text(report, "status") != "done") {
        throw std::runtime_error("run ended " + text(report, "status") + ": " +
                                 text(report, "error"));
      }
      const double req = number(report, "equivalent_resistance");
      record.run_total = number(report, "total_seconds");
      // The wire carries Req and the leakage norm, not the density; the
      // client-side IEEE-80 step uses the reference density at the served
      // GPR once the served norm has matched it.
      const Reference& ref = refs[tenant_index == 0 ? s.model
                                                    : session.tenants[0].models.size() + s.model];
      post::SafetyAssessment served;
      {
        const ScopedSpan span(recorder, "post.safety", root, id, thread);
        served = assess(*model.model, ref.unit_sigma, s.fault_current * req, model.patch,
                        criteria_for(2000.0, model.surface_soil_resistivity));
      }
      record.timing.ok = rel_close(number(report, "sigma_l2"), ref.sigma_l2, kParityTolerance) &&
                         verdict_matches(ref, req, s.fault_current, served);
      if (!record.timing.ok) {
        std::fprintf(stderr, "service probe: %s request %zu mismatched its reference\n",
                     tenant.name.c_str(), i);
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "service probe: %s request %zu failed: %s\n", tenant.name.c_str(), i,
                   error.what());
      record.timing.ok = false;
    }
    record.timing.done = now_seconds();
    recorder.close(root);
    records.push_back(record);
  }
}

struct RatePhase {
  std::vector<ServiceRecord> records;
  [[nodiscard]] std::size_t ok() const {
    return static_cast<std::size_t>(std::count_if(
        records.begin(), records.end(), [](const ServiceRecord& r) { return r.timing.ok; }));
  }
};

RatePhase run_rate(ServiceSession& session, const std::vector<Reference>& refs,
                   std::uint64_t seed, std::size_t rate_index, std::uint64_t id_base,
                   SpanRecorder& recorder) {
  RatePhase phase;
  std::vector<std::vector<Scheduled>> plans;
  for (std::size_t t = 0; t < kTenants; ++t) {
    plans.push_back(schedule(seed, t, rate_index, session.tenants[t].models.size()));
  }
  std::vector<std::vector<ServiceRecord>> records(kTenants);
  const double start = now_seconds() + 0.01;  // first due time, after the threads start
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] {
        drive_tenant(session, refs, t, plans[t], start,
                     id_base + t * kRequestsPerRate.back(), recorder, records[t]);
      });
    }
  }
  for (auto& tenant_records : records) {
    phase.records.insert(phase.records.end(), tenant_records.begin(), tenant_records.end());
  }
  return phase;
}

void count(const RatePhase& phase, RunOutput& out) {
  out.attempted += phase.records.size();
  out.failed += phase.records.size() - phase.ok();
}

/// Requests per block of the capacity estimate.
constexpr std::size_t kCapacityBlock = 100;

/// Sum over the connections of their completion rates while saturated: the
/// median over blocks of kCapacityBlock consecutive requests of ok verdicts
/// per second, so a host stall moves one block, not the estimate.
double capacity(const RatePhase& phase) {
  double total = 0.0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    std::vector<const ServiceRecord*> chain;
    for (const ServiceRecord& r : phase.records) {
      if (r.tenant == t) chain.push_back(&r);
    }
    std::vector<double> rates;
    double block_start = chain.empty() ? 0.0 : chain.front()->timing.sent;
    std::size_t ok = 0;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      ok += chain[i]->timing.ok ? 1 : 0;
      if ((i + 1) % kCapacityBlock == 0) {
        rates.push_back(static_cast<double>(ok) / (chain[i]->timing.done - block_start));
        block_start = chain[i]->timing.done;
        ok = 0;
      }
    }
    total += median(rates);
  }
  return total;
}

Census service_census() {
  Census census;
  census.phase = "service";
  census.roles = {{"client", kTenants},      {"connection", kTenants}, {"executors", kTenants},
                  {"harvester", 1},          {"acceptor", 1},          {"pool_workers", 0},
                  {"harness_main_joined", 1}};
  // Each tenant's chain (client -> connection -> executor -> connection ->
  // client) holds one request at a time and hands it on synchronously, so
  // one thread per chain has work; the harvester polls; the acceptor and the
  // joined main thread stay parked.
  census.runnable = kTenants + 1;
  return census;
}

double median_of(const RatePhase& phase, const std::function<double(const ServiceRecord&)>& f) {
  std::vector<double> values;
  for (const ServiceRecord& r : phase.records) {
    if (r.timing.ok) values.push_back(f(r));
  }
  return median(values);
}

/// The service layer, measured from the traced design_ladder run: both
/// tenants at the probe rate (codec, harvest lag, admission, generator lag),
/// then at the top rate (capacity). Its verdicts are checked like every
/// other; its spans go to their own trace file.
void service_probe(const RunConfig& config, std::vector<Metric>& m, RunOutput& out) {
  SpanRecorder off(false);
  ServiceSession session = setup_service(config.seed, off).first;
  std::vector<const bem::BemModel*> models;
  std::vector<Patch> patches;
  for (const Tenant& tenant : session.tenants) {
    for (const ServiceModel& model : tenant.models) {
      models.push_back(model.model.get());
      patches.push_back(model.patch);
    }
  }
  const std::vector<Reference> refs = compute_references(models, patches);
  note(out, "service probe: tenants warm (5 designs, one soil) and cold (%zu soils), "
       "pool_threads 1, pipeline_width 1, %zu requests at %.0f/s, %zu at %.0f/s",
       kColdSoils, kRequestsPerRate[0], kServiceRates[0], kRequestsPerRate[1],
       kServiceRates[1]);
  enforce(service_census(), cpu_count(), out);
  SpanRecorder recorder(true);
  const std::uint64_t rejected_before = session.dispatcher->stats().admission.rejected;
  const RatePhase traced = run_rate(session, refs, config.seed, 0, 0, recorder);
  const RatePhase top =
      run_rate(session, refs, config.seed, 1, kTenants * kRequestsPerRate.back(), off);
  count(traced, out);
  count(top, out);
  std::vector<double> latency_ms;
  std::vector<TimedRequest> timings;
  for (const ServiceRecord& r : traced.records) {
    latency_ms.push_back(ms(due_latency(r.timing)));
    timings.push_back(r.timing);
  }
  note(out, "service probe: at %.0f/s, latency from the due time p50 %.2f p99 %.2f ms, "
       "%.4f of requests ok within %.0f ms", kServiceRates[0],
       percentile(latency_ms, 0.5, "service latency"),
       percentile(latency_ms, 0.99, "service latency"), within_limit_share(timings, kServiceLimitS),
       ms(kServiceLimitS));
  set_metric(m, "service.codec_us",
             1e6 * median_of(traced, [](const ServiceRecord& r) { return r.codec; }));
  set_metric(m, "service.harvest_lag_ms", ms(median_of(traced, [](const ServiceRecord& r) {
               return r.report_received - r.timing.sent - r.run_total - r.codec;
             })));
  set_metric(m, "service.rejected",
             static_cast<double>(session.dispatcher->stats().admission.rejected -
                                 rejected_before));
  set_metric(m, "service.capacity_rps", capacity(top));
  std::vector<double> lag_ms;
  for (const ServiceRecord& r : traced.records) lag_ms.push_back(ms(generator_lag(r.timing)));
  set_metric(m, "harness.gen_lag_p99_ms", percentile(lag_ms, 0.99, "service generator lag"));
  RunConfig trace_config = config;
  trace_config.workload += "-service";
  write_trace(trace_config, recorder, out);
}

// ----------------------------------------------------------- design_ladder ---
//
// The paper's CAD loop: one engine, one two-layer soil, a fixed ladder of
// nearby designs re-evaluated round after round for a seeded fault current
// and surface-layer resistivity. Every rung shares the 5 m pitch, so after
// the untimed warm-up round nearly every element pair is a congruence-cache
// hit: the warm lookup/scatter path, pipelining and mid-size Cholesky
// dominate.

constexpr std::size_t kLadderWindow = 4;   // verdicts in flight (closed loop)

struct Rung {
  std::vector<geom::Conductor> conductors;
  Patch patch;
};

std::vector<Rung> ladder_rungs() {
  std::vector<Rung> rungs;
  for (std::size_t cx = 2; cx <= 12; ++cx) {
    for (std::size_t cy = std::max<std::size_t>(2, cx - 2); cy <= cx; ++cy) {
      rungs.push_back({rect_grid(cx, cy, 0),
                       {5.0 * static_cast<double>(cx), 5.0 * static_cast<double>(cy), 3}});
    }
  }
  for (const std::size_t rods : {4u, 8u, 12u, 16u}) {
    rungs.push_back({rect_grid(12, 12, rods), {60.0, 60.0, 3}});
  }
  return rungs;
}

struct RoundInputs {
  double fault_current = 0.0;          // [A]
  double surface_resistivity = 0.0;    // crushed-rock layer [Ohm m]
};

RoundInputs ladder_round(std::uint64_t seed, std::uint64_t round) {
  Rng rng(seed, 11, round);
  return {rng.uniform(300.0, 3000.0), rng.uniform(500.0, 3000.0)};
}

struct LadderSession {
  soil::LayeredSoil soil = soil::LayeredSoil::uniform(0.01);
  std::vector<bem::BemModel> models;
  std::vector<Patch> patches;
  std::unique_ptr<engine::Engine> multi;
  std::unique_ptr<engine::Study> multi_study;
  std::unique_ptr<engine::Engine> single;
  std::unique_ptr<engine::Study> single_study;
};

std::unique_ptr<engine::Engine> ladder_engine(std::size_t pool_threads) {
  engine::ExecutionConfig config;
  config.num_threads = pool_threads;
  config.pipeline_width = 2;
  config.max_pending_runs = 2 * kLadderWindow;
  return std::make_unique<engine::Engine>(config);
}

void warm_round(engine::Study& study, const std::vector<bem::BemModel>& models) {
  std::vector<engine::RunFuture> futures;
  for (const bem::BemModel& model : models) futures.push_back(study.submit(model));
  for (engine::RunFuture& future : futures) (void)future.get();
}

std::pair<LadderSession, double> setup_ladder(std::uint64_t seed, std::size_t width,
                                              SpanRecorder& recorder) {
  const double start = now_seconds();
  LadderSession session;
  Rng rng(seed, 10);
  session.soil = seeded_soil(rng);
  for (const Rung& rung : ladder_rungs()) {
    const ScopedSpan span(recorder, "geom.mesh");
    session.models.push_back(mesh_model(rung.conductors, session.soil));
    session.patches.push_back(rung.patch);
  }
  session.multi = ladder_engine(width);
  session.multi_study = std::make_unique<engine::Study>(*session.multi);
  session.single = ladder_engine(1);
  session.single_study = std::make_unique<engine::Study>(*session.single);
  warm_round(*session.multi_study, session.models);
  warm_round(*session.single_study, session.models);
  return {std::move(session), now_seconds() - start};
}

struct LadderVerdict {
  double submitted = 0.0;
  double done = 0.0;
  double run_wall = 0.0;       // the run's own phase walls
  double assembly_wall = 0.0;
  double safety = 0.0;
  double gate_wait = 0.0;
  double drops = 0.0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  bool ok = false;
};

struct LadderPhase {
  std::vector<LadderVerdict> verdicts;
  std::vector<double> round_rates;  // ok verdicts per second of each round
  double start = 0.0;
  double end = 0.0;
  std::size_t rounds = 0;
  [[nodiscard]] double wall() const { return end - start; }
  [[nodiscard]] std::size_t ok() const {
    return static_cast<std::size_t>(std::count_if(
        verdicts.begin(), verdicts.end(), [](const LadderVerdict& v) { return v.ok; }));
  }
};

/// Whole rounds until `budget` seconds have passed and `min_samples`
/// verdicts were submitted; at most kLadderWindow verdicts in flight,
/// harvested in submission order.
LadderPhase run_ladder_phase(engine::Study& study, const LadderSession& session,
                             const std::vector<Reference>& refs, std::uint64_t seed,
                             std::uint64_t& next_round, double budget, std::size_t min_samples,
                             SpanRecorder& recorder) {
  struct Pending {
    std::size_t rung = 0;
    RoundInputs inputs;
    engine::RunFuture future;
    double submitted = 0.0;
    int root = -1;
    std::uint64_t id = 0;
  };
  double round_start = 0.0;
  std::size_t round_ok = 0;
  LadderPhase phase;
  phase.start = now_seconds();
  round_start = phase.start;
  std::deque<Pending> in_flight;
  std::size_t rung = 0;
  RoundInputs inputs = ladder_round(seed, next_round);
  bool generating = true;
  std::size_t submitted = 0;
  const std::size_t rung_count = session.models.size();
  const double rho1 = session.soil.resistivity(0);
  while (true) {
    while (generating && in_flight.size() < kLadderWindow) {
      Pending pending;
      pending.rung = rung;
      pending.inputs = inputs;
      pending.id = next_round * rung_count + rung + 1;
      pending.submitted = now_seconds();
      pending.root = recorder.open("verdict", -1, pending.id, 0);
      {
        const ScopedSpan span(recorder, "engine.submit", pending.root, pending.id);
        pending.future = study.submit(session.models[rung]);
      }
      in_flight.push_back(std::move(pending));
      ++submitted;
      if (++rung == rung_count) {
        rung = 0;
        ++phase.rounds;
        ++next_round;
        inputs = ladder_round(seed, next_round);
        generating = now_seconds() - phase.start < budget || submitted < min_samples;
      }
    }
    if (in_flight.empty()) break;
    Pending pending = std::move(in_flight.front());
    in_flight.pop_front();
    LadderVerdict verdict;
    verdict.submitted = pending.submitted;
    try {
      const bem::AnalysisResult* result = nullptr;
      {
        const ScopedSpan span(recorder, "engine.wait", pending.root, pending.id);
        result = &pending.future.get();
      }
      const PhaseReport& report = pending.future.report();
      verdict.run_wall = report.total_wall_seconds();
      verdict.assembly_wall = report.wall_seconds(Phase::kMatrixGeneration);
      verdict.gate_wait = report.counter(engine::kGateWaitSecondsCounter);
      verdict.drops = report.counter(engine::kCacheDropsCounter);
      verdict.hits = result->cache_stats.hits;
      verdict.misses = result->cache_stats.misses;
      const double safety_start = now_seconds();
      post::SafetyAssessment served;
      {
        const ScopedSpan span(recorder, "post.safety", pending.root, pending.id);
        const double gpr = pending.inputs.fault_current * result->equivalent_resistance;
        served = assess(session.models[pending.rung], result->sigma, gpr,
                        session.patches[pending.rung],
                        criteria_for(pending.inputs.surface_resistivity, rho1));
      }
      verdict.safety = now_seconds() - safety_start;
      verdict.ok = verdict_matches(refs[pending.rung], result->equivalent_resistance,
                                   pending.inputs.fault_current, served);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "design_ladder: verdict %llu failed: %s\n",
                   static_cast<unsigned long long>(pending.id), error.what());
      verdict.ok = false;
    }
    verdict.done = now_seconds();
    recorder.close(pending.root);
    phase.verdicts.push_back(verdict);
    round_ok += verdict.ok ? 1 : 0;
    if (pending.rung + 1 == rung_count) {
      // Rounds follow each other through the pipeline, so a round lasts from
      // the previous round's last verdict to its own.
      phase.round_rates.push_back(static_cast<double>(round_ok) / (verdict.done - round_start));
      round_start = verdict.done;
      round_ok = 0;
    }
  }
  phase.end = now_seconds();
  return phase;
}

void count(const LadderPhase& phase, RunOutput& out) {
  out.attempted += phase.verdicts.size();
  out.failed += phase.verdicts.size() - phase.ok();
}

std::vector<double> ladder_latencies_ms(const LadderPhase& phase) {
  std::vector<double> latencies;
  for (const LadderVerdict& v : phase.verdicts) latencies.push_back(ms(v.done - v.submitted));
  return latencies;
}

double mean_assembly_ms(const LadderPhase& phase) {
  double sum = 0.0;
  for (const LadderVerdict& v : phase.verdicts) sum += v.assembly_wall;
  return phase.verdicts.empty() ? 0.0 : ms(sum / static_cast<double>(phase.verdicts.size()));
}

RunOutput run_design_ladder(const RunConfig& config) {
  RunOutput out;
  const std::size_t nproc = cpu_count();
  const std::size_t width = multi_thread_width(nproc);
  SpanRecorder recorder(config.trace);
  EndToEnd e;

  LadderSession session = repeated_setup(
      [&] { return setup_ladder(config.seed, width, recorder); }, e.setup_s);
  std::vector<const bem::BemModel*> models;
  for (const bem::BemModel& model : session.models) models.push_back(&model);
  const std::vector<Reference> refs = compute_references(models, session.patches);
  note(out, "design_ladder: %zu rungs (%zu..%zu elements), pool_threads %zu and 1, "
       "pipeline_width 2, window %zu",
       session.models.size(), session.models.front().element_count(),
       session.models.back().element_count(), width, kLadderWindow);
  enforce(engine_census("ladder_multi", width, 2), nproc, out);
  enforce(engine_census("ladder_1t", 1, 2), nproc, out);

  std::uint64_t round = 1;  // round 0 is the warm-up
  if (!config.trace) {
    const LadderPhase multi = run_ladder_phase(*session.multi_study, session, refs, config.seed,
                                               round, 0.6 * config.seconds,
                                               min_samples_for(0.9), recorder);
    const LadderPhase single = run_ladder_phase(*session.single_study, session, refs,
                                                config.seed, round, 0.4 * config.seconds, 0,
                                                recorder);
    count(multi, out);
    count(single, out);
    note(out, "design_ladder: multi %zu rounds %zu verdicts %.2f s; 1t %zu rounds %zu verdicts "
         "%.2f s", multi.rounds, multi.verdicts.size(), multi.wall(), single.rounds,
         single.verdicts.size(), single.wall());
    e.verdicts_per_s = median(multi.round_rates);
    e.verdicts_per_s_1t = median(single.round_rates);
    latency_percentiles(ladder_latencies_ms(multi), "design_ladder multi", e, out);
    emit_end_to_end(e, out);
    return out;
  }

  // Traced run: an untraced pass first for the overhead baseline.
  SpanRecorder off(false);
  const LadderPhase baseline = run_ladder_phase(*session.multi_study, session, refs,
                                                config.seed, round, 0.3 * config.seconds, 0, off);
  const LadderPhase multi = run_ladder_phase(*session.multi_study, session, refs, config.seed,
                                             round, 0.3 * config.seconds, 0, recorder);
  const LadderPhase single = run_ladder_phase(*session.single_study, session, refs, config.seed,
                                              round, 0.2 * config.seconds, 0, recorder);
  count(baseline, out);
  count(multi, out);
  count(single, out);
  std::vector<Metric> m = per_layer_template();
  set_metric(m, "geom.mesh_ms", ms(median(recorder.self_times("geom.mesh"))));
  set_metric(m, "soil.kernel_build_ms", kernel_build_ms({session.soil}, recorder));
  std::vector<double> assembly;
  std::vector<double> queue_wait;
  double hits = 0.0;
  double pairs = 0.0;
  double gate = 0.0;
  double drops = 0.0;
  for (const LadderVerdict& v : multi.verdicts) {
    assembly.push_back(ms(v.assembly_wall));
    queue_wait.push_back(ms(v.done - v.submitted - v.run_wall - v.safety));
    hits += static_cast<double>(v.hits);
    pairs += static_cast<double>(v.hits + v.misses);
    gate += v.gate_wait;
    drops += v.drops;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, multi.verdicts.size()));
  set_metric(m, "bem.assemble_ms", median(assembly));
  set_metric(m, "bem.pairs", pairs / n);
  set_metric(m, "bem.pairs_integrated", (pairs - hits) / n);
  set_metric(m, "bem.cache_hit_rate", pairs > 0.0 ? hits / pairs : 0.0);
  const PairCosts costs = pair_costs(session.models.back(), recorder);
  set_metric(m, "bem.hit_ns_per_pair", costs.hit_ns);
  set_metric(m, "bem.miss_ns_per_pair", costs.miss_ns);
  set_metric(m, "bem.assemble_speedup", mean_assembly_ms(single) / mean_assembly_ms(multi));
  const FactorSolve fs = factor_solve(*session.multi, session.models.back(), recorder, 5);
  set_metric(m, "la.factor_ms", fs.factor_ms);
  set_metric(m, "la.solve_ms", fs.solve_ms);
  set_metric(m, "la.stored_bytes_ratio", 1.0);
  set_metric(m, "engine.gate_wait_ms", ms(gate / n));
  set_metric(m, "engine.cache_drops", drops);
  set_metric(m, "engine.queue_wait_ms", median(queue_wait));
  set_metric(m, "engine.peak_outstanding",
             static_cast<double>(session.multi->scheduler_stats().peak_outstanding));
  set_metric(m, "post.safety_ms", ms(median(recorder.self_times("post.safety"))));
  set_metric(m, "parallel.region_us", region_us(width));
  set_metric(m, "harness.trace_residual_share",
             unattributed_share(recorder.spans(), 0, multi.start, multi.end));
  set_metric(m, "harness.trace_overhead_share",
             1.0 - median(multi.round_rates) / median(baseline.round_rates));
  write_trace(config, recorder, out);
  service_probe(config, m, out);
  out.metrics = std::move(m);
  return out;
}

// ----------------------------------------------------------- soil_campaign ---
//
// campaign::Runner over a stratified two-layer soil ensemble on one fixed
// grid. Every scenario changes the physics, so each one drops the warm
// cache, writes it afresh, waits at the assembly gate and integrates cold
// kernels — the write side of the cache design_ladder reads.

constexpr std::size_t kCampaignCells = 6;       // 6 x 6 cells, 84 elements
constexpr std::size_t kCampaignScenarios = 64;  // one round = one campaign
constexpr std::size_t kCampaignWindow = 2;  // one run per pipeline executor
constexpr double kCampaignFaultCurrent = 1000.0;   // [A]
constexpr double kCampaignSurfaceLayer = 3000.0;   // [Ohm m]

/// Forwards to the sweep and stamps the Runner's calls: the first model(i)
/// call is made just before scenario i is submitted, the second when its
/// result is committed, and surface_soil_resistivity(i) right before its
/// safety assessment.
class StampedSource final : public campaign::ScenarioSource {
 public:
  explicit StampedSource(const campaign::SoilSweep& sweep)
      : sweep_(sweep), submitted_(sweep.size()), assessed_(sweep.size()),
        model_calls_(sweep.size()) {}

  [[nodiscard]] std::size_t size() const override { return sweep_.size(); }
  [[nodiscard]] bem::BemModel model(std::size_t index) const override {
    if (model_calls_[index]++ == 0) submitted_[index] = now_seconds();
    return sweep_.model(index);
  }
  [[nodiscard]] double surface_soil_resistivity(std::size_t index) const override {
    assessed_[index] = now_seconds();
    return sweep_.surface_soil_resistivity(index);
  }

  void reset() const { std::fill(model_calls_.begin(), model_calls_.end(), 0); }
  [[nodiscard]] double latency(std::size_t index) const {
    return assessed_[index] - submitted_[index];
  }

 private:
  const campaign::SoilSweep& sweep_;
  mutable std::vector<double> submitted_;
  mutable std::vector<double> assessed_;
  mutable std::vector<int> model_calls_;
};

struct CampaignSession {
  std::unique_ptr<campaign::SoilSweep> sweep;
  std::vector<bem::BemModel> models;  // scenario models, for references
  std::unique_ptr<engine::Engine> multi;
  std::unique_ptr<engine::Study> multi_study;
  std::unique_ptr<campaign::Runner> multi_runner;
  std::unique_ptr<engine::Engine> single;
  std::unique_ptr<engine::Study> single_study;
  std::unique_ptr<campaign::Runner> single_runner;
};

campaign::CampaignOptions campaign_options() {
  campaign::CampaignOptions options;
  options.window = kCampaignWindow;
  options.fault_current = kCampaignFaultCurrent;
  campaign::SafetyPatch patch;
  patch.x1 = 5.0 * static_cast<double>(kCampaignCells);
  patch.y1 = patch.x1;
  patch.nx = 3;
  patch.ny = 3;
  patch.criteria.fault_duration = kFaultDuration;
  patch.criteria.surface_resistivity = kCampaignSurfaceLayer;
  options.safety = patch;
  return options;
}

std::unique_ptr<engine::Engine> campaign_engine(std::size_t pool_threads) {
  engine::ExecutionConfig config;
  config.num_threads = pool_threads;
  config.pipeline_width = 2;
  config.max_pending_runs = 2 * kCampaignWindow;
  return std::make_unique<engine::Engine>(config);
}

std::pair<CampaignSession, double> setup_campaign(std::uint64_t seed, std::size_t width,
                                                  SpanRecorder& recorder) {
  const double start = now_seconds();
  CampaignSession session;
  Rng rng(seed, 20);
  const soil::LayeredSoil nominal = seeded_soil(rng);
  const std::vector<geom::Conductor> grid = rect_grid(kCampaignCells, kCampaignCells, 0);
  session.sweep = std::make_unique<campaign::SoilSweep>(
      grid, geom::MeshOptions{},
      // The wide spread on the layer depth gives the scenarios distinct cost
      // classes (the shallowest interfaces put the grid in the lower layer),
      // so p90 sits inside a class and moves with its cost rather than with
      // host jitter; a 15% spread measured about twice the run-to-run spread.
      campaign::SoilEnsemble(campaign::SoilDistribution::relative(nominal, 0.1, 0.1, 0.3),
                             kCampaignScenarios, seed));
  for (std::size_t i = 0; i < kCampaignScenarios; ++i) {
    const ScopedSpan span(recorder, "geom.mesh");
    session.models.push_back(session.sweep->model(i));
  }
  session.multi = campaign_engine(width);
  session.multi_study = std::make_unique<engine::Study>(*session.multi);
  session.multi_runner =
      std::make_unique<campaign::Runner>(*session.multi_study, campaign_options());
  session.single = campaign_engine(1);
  session.single_study = std::make_unique<engine::Study>(*session.single);
  session.single_runner =
      std::make_unique<campaign::Runner>(*session.single_study, campaign_options());
  (void)session.multi_runner->run(*session.sweep);
  (void)session.single_runner->run(*session.sweep);
  return {std::move(session), now_seconds() - start};
}

/// What every round must reproduce: the sorted per-scenario Req and GPR,
/// and the touch/step violation counts.
struct CampaignReference {
  std::vector<double> sorted_req;
  std::size_t touch_violations = 0;
  std::size_t step_violations = 0;
};

CampaignReference campaign_reference(const CampaignSession& session,
                                     const std::vector<Reference>& refs) {
  CampaignReference out;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    out.sorted_req.push_back(refs[i].req);
    const double gpr = kCampaignFaultCurrent * refs[i].req;
    const post::SafetyCriteria criteria =
        criteria_for(kCampaignSurfaceLayer, session.sweep->surface_soil_resistivity(i));
    if (gpr * refs[i].unit_touch > post::tolerable_touch_voltage(criteria)) {
      ++out.touch_violations;
    }
    if (gpr * refs[i].unit_step > post::tolerable_step_voltage(criteria)) ++out.step_violations;
  }
  std::sort(out.sorted_req.begin(), out.sorted_req.end());
  return out;
}

/// Every order statistic of an exact-mode summary: with p = k / (n - 1) the
/// R-7 quantile lands on the k-th sorted sample.
bool round_matches(const campaign::CampaignResult& result, const CampaignReference& ref) {
  const std::size_t n = ref.sorted_req.size();
  if (result.completed != n || result.touch_violations != ref.touch_violations ||
      result.step_violations != ref.step_violations) {
    return false;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double p = static_cast<double>(k) / static_cast<double>(n - 1);
    const double req = ref.sorted_req[k];
    if (!rel_close(result.resistance.quantile(p), req, kParityTolerance) ||
        !rel_close(result.gpr.quantile(p), kCampaignFaultCurrent * req, kParityTolerance)) {
      return false;
    }
  }
  return true;
}

struct CampaignPhase {
  std::vector<double> latencies;  // seconds, every scenario of every round
  std::vector<double> round_rates;  // ok verdicts per second of each round
  std::size_t verdicts = 0;
  std::size_t ok = 0;
  std::size_t rounds = 0;
  double start = 0.0;
  double end = 0.0;
  PhaseReport phases;
  bem::CongruenceCacheStats cache;
  std::size_t peak_in_flight = 0;
  [[nodiscard]] double wall() const { return end - start; }
};

CampaignPhase run_campaign_phase(campaign::Runner& runner, const CampaignSession& session,
                                 const CampaignReference& ref, double budget,
                                 std::size_t min_samples, SpanRecorder& recorder) {
  const StampedSource source(*session.sweep);
  CampaignPhase phase;
  phase.start = now_seconds();
  do {
    source.reset();
    bool ok = false;
    campaign::CampaignResult result;
    const ScopedSpan round(recorder, "round");
    const double round_start = now_seconds();
    try {
      const ScopedSpan span(recorder, "campaign.run", round.index());
      result = runner.run(source);
      ok = round_matches(result, ref);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "soil_campaign: round failed: %s\n", error.what());
    }
    if (!ok) std::fprintf(stderr, "soil_campaign: round %zu mismatched\n", phase.rounds);
    phase.round_rates.push_back(ok ? static_cast<double>(source.size()) /
                                         (now_seconds() - round_start)
                                   : 0.0);
    for (std::size_t i = 0; i < source.size(); ++i) phase.latencies.push_back(source.latency(i));
    phase.verdicts += source.size();
    phase.ok += ok ? source.size() : 0;
    phase.phases.merge(result.phases);
    phase.cache.hits += result.cache.hits;
    phase.cache.misses += result.cache.misses;
    phase.peak_in_flight = std::max(phase.peak_in_flight, result.peak_in_flight);
    ++phase.rounds;
  } while (now_seconds() - phase.start < budget || phase.verdicts < min_samples);
  phase.end = now_seconds();
  return phase;
}

void count(const CampaignPhase& phase, RunOutput& out) {
  out.attempted += phase.verdicts;
  out.failed += phase.verdicts - phase.ok;
}

/// A compressed trench analysis: the layers the dropped trench workload
/// would have measured (CompressedTileStore, ACA far field, clustering,
/// large factorizations), checked against a dense analysis to epsilon.
void trench_probe(std::uint64_t seed, std::size_t width, std::vector<Metric>& m,
                  SpanRecorder& recorder, RunOutput& out) {
  constexpr double kEpsilon = 1e-8;
  Rng rng(seed, 30);
  const soil::LayeredSoil soil = seeded_soil(rng);
  const bem::BemModel model = mesh_model(rect_grid(120, 8, 0), soil);
  engine::ExecutionConfig config;
  config.num_threads = width;
  config.pipeline_width = 2;
  config.storage.tile_size = 32;
  config.storage.compression = {.epsilon = kEpsilon, .min_block = 32, .max_rank = 64,
                                .min_rank_budget = 8,
                                .ordering = la::DofOrdering::kGeometric};
  engine::Engine compressed(config);
  bem::AnalysisResult result;
  {
    const ScopedSpan span(recorder, "trench.analyze");
    result = compressed.analyze(model);
  }
  const FactorSolve fs = factor_solve(compressed, model, recorder, 1);
  engine::ExecutionConfig dense_config;
  dense_config.num_threads = width;
  engine::Engine dense(dense_config);
  const double dense_req = dense.analyze(model).equivalent_resistance;
  const bool ok = rel_close(result.equivalent_resistance, dense_req, kEpsilon);
  ++out.attempted;
  if (!ok) ++out.failed;
  const bem::FarFieldStats& far = result.far_field;
  const double dense_pairs = static_cast<double>(far.pairs_near + far.pairs_skipped);
  set_metric(m, "bem.far_pairs_sampled_ratio",
             static_cast<double>(far.pairs_sampled) / std::max(dense_pairs, 1.0));
  set_metric(m, "bem.far_pairs_replayed_share",
             far.pairs_sampled > 0 ? static_cast<double>(far.pairs_replayed) /
                                         static_cast<double>(far.pairs_sampled)
                                   : 0.0);
  set_metric(m, "la.stored_bytes_ratio", result.compression.ratio());
  set_metric(m, "la.factor_ms", fs.factor_ms);
  set_metric(m, "la.solve_ms", fs.solve_ms);
  note(out, "trench probe: %zu elements, %zu low-rank blocks, Req %.12g vs dense %.12g (%s)",
       model.element_count(), result.compression.low_rank_blocks, result.equivalent_resistance,
       dense_req, ok ? "ok" : "MISMATCH");
}

RunOutput run_soil_campaign(const RunConfig& config) {
  RunOutput out;
  const std::size_t nproc = cpu_count();
  const std::size_t width = multi_thread_width(nproc);
  SpanRecorder recorder(config.trace);
  EndToEnd e;

  CampaignSession session = repeated_setup(
      [&] { return setup_campaign(config.seed, width, recorder); }, e.setup_s);
  std::vector<const bem::BemModel*> models;
  for (const bem::BemModel& model : session.models) models.push_back(&model);
  const std::vector<Patch> patches(
      models.size(), Patch{5.0 * kCampaignCells, 5.0 * kCampaignCells, 3});
  const std::vector<Reference> refs = compute_references(models, patches);
  const CampaignReference ref = campaign_reference(session, refs);
  note(out, "soil_campaign: %zu scenarios per round on a %zux%zu grid (%zu elements), "
       "pool_threads %zu and 1, pipeline_width 2, window %zu",
       kCampaignScenarios, kCampaignCells, kCampaignCells, session.models.front().element_count(),
       width, kCampaignWindow);
  enforce(engine_census("campaign_multi", width, 2), nproc, out);
  enforce(engine_census("campaign_1t", 1, 2), nproc, out);

  if (!config.trace) {
    const CampaignPhase multi = run_campaign_phase(*session.multi_runner, session, ref,
                                                   0.6 * config.seconds, min_samples_for(0.9),
                                                   recorder);
    const CampaignPhase single = run_campaign_phase(*session.single_runner, session, ref,
                                                    0.4 * config.seconds, 0, recorder);
    count(multi, out);
    count(single, out);
    note(out, "soil_campaign: multi %zu rounds %.2f s; 1t %zu rounds %.2f s", multi.rounds,
         multi.wall(), single.rounds, single.wall());
    e.verdicts_per_s = median(multi.round_rates);
    e.verdicts_per_s_1t = median(single.round_rates);
    std::vector<double> latencies_ms;
    for (const double latency : multi.latencies) latencies_ms.push_back(ms(latency));
    latency_percentiles(latencies_ms, "soil_campaign multi", e, out);
    emit_end_to_end(e, out);
    return out;
  }

  SpanRecorder off(false);
  const CampaignPhase baseline = run_campaign_phase(*session.multi_runner, session, ref,
                                                    0.25 * config.seconds, 0, off);
  const CampaignPhase multi = run_campaign_phase(*session.multi_runner, session, ref,
                                                 0.25 * config.seconds, 0, recorder);
  const CampaignPhase single = run_campaign_phase(*session.single_runner, session, ref,
                                                  0.15 * config.seconds, 0, recorder);
  count(baseline, out);
  count(multi, out);
  count(single, out);
  std::vector<Metric> m = per_layer_template();
  set_metric(m, "geom.mesh_ms", ms(median(recorder.self_times("geom.mesh"))));
  std::vector<soil::LayeredSoil> soils;
  for (const bem::BemModel& model : session.models) soils.push_back(model.soil());
  set_metric(m, "soil.kernel_build_ms", kernel_build_ms(soils, recorder));
  const double n = static_cast<double>(multi.verdicts);
  const double assembly_s = multi.phases.wall_seconds(Phase::kMatrixGeneration);
  set_metric(m, "bem.assemble_ms", ms(assembly_s / n));
  const double pairs = static_cast<double>(multi.cache.hits + multi.cache.misses);
  set_metric(m, "bem.pairs", pairs / n);
  set_metric(m, "bem.pairs_integrated", static_cast<double>(multi.cache.misses) / n);
  set_metric(m, "bem.cache_hit_rate", multi.cache.hit_rate());
  const PairCosts costs = pair_costs(session.models.front(), recorder);
  set_metric(m, "bem.hit_ns_per_pair", costs.hit_ns);
  set_metric(m, "bem.miss_ns_per_pair", costs.miss_ns);
  set_metric(m, "bem.assemble_speedup",
             (single.phases.wall_seconds(Phase::kMatrixGeneration) /
              static_cast<double>(single.verdicts)) /
                 (assembly_s / n));
  set_metric(m, "engine.gate_wait_ms",
             ms(multi.phases.counter(engine::kGateWaitSecondsCounter) / n));
  set_metric(m, "engine.cache_drops", multi.phases.counter(engine::kCacheDropsCounter));
  double latency_sum = 0.0;
  for (const double latency : multi.latencies) latency_sum += latency;
  set_metric(m, "engine.queue_wait_ms",
             ms((latency_sum - multi.phases.total_wall_seconds()) / n));
  set_metric(m, "engine.peak_outstanding",
             static_cast<double>(session.multi->scheduler_stats().peak_outstanding));
  for (std::size_t i = 0; i < 16; ++i) {
    const ScopedSpan span(recorder, "post.safety");
    (void)assess(session.models[i], refs[i].unit_sigma, kCampaignFaultCurrent * refs[i].req,
                 patches[i],
                 criteria_for(kCampaignSurfaceLayer, session.sweep->surface_soil_resistivity(i)));
  }
  set_metric(m, "post.safety_ms", ms(median(recorder.self_times("post.safety"))));
  set_metric(m, "campaign.peak_in_flight", static_cast<double>(multi.peak_in_flight));
  set_metric(m, "parallel.region_us", region_us(width));
  set_metric(m, "harness.trace_residual_share",
             unattributed_share(recorder.spans(), 0, multi.start, multi.end));
  set_metric(m, "harness.trace_overhead_share",
             1.0 - median(multi.round_rates) / median(baseline.round_rates));
  trench_probe(config.seed, width, m, recorder, out);
  out.metrics = std::move(m);
  write_trace(config, recorder, out);
  return out;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"design_ladder", "soil_campaign"};
}

RunOutput run_workload(const RunConfig& config) {
  if (config.workload == "design_ladder") return run_design_ladder(config);
  if (config.workload == "soil_campaign") return run_soil_campaign(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
