#include "src/post/safety.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"

namespace ebem::post {

double derating_factor(const SafetyCriteria& criteria) {
  if (criteria.surface_resistivity <= 0.0) return 1.0;
  // IEEE Std 80-2000 eq. (27), the empirical approximation of C_s.
  return 1.0 - (0.09 * (1.0 - criteria.soil_resistivity / criteria.surface_resistivity)) /
                   (2.0 * criteria.surface_layer_thickness + 0.09);
}

namespace {
double dalziel_k(const SafetyCriteria& criteria) {
  return criteria.body_weight_50kg ? 0.116 : 0.157;
}
double effective_surface_rho(const SafetyCriteria& criteria) {
  return criteria.surface_resistivity > 0.0 ? criteria.surface_resistivity
                                            : criteria.soil_resistivity;
}
}  // namespace

double tolerable_touch_voltage(const SafetyCriteria& criteria) {
  EBEM_EXPECT(criteria.fault_duration > 0.0, "fault duration must be positive");
  const double cs = derating_factor(criteria);
  const double rho_s = effective_surface_rho(criteria);
  // E_touch = (1000 + 1.5 Cs rho_s) * k / sqrt(t_s)  (IEEE Std 80 eq. 32/33).
  return (1000.0 + 1.5 * cs * rho_s) * dalziel_k(criteria) / std::sqrt(criteria.fault_duration);
}

double tolerable_step_voltage(const SafetyCriteria& criteria) {
  EBEM_EXPECT(criteria.fault_duration > 0.0, "fault duration must be positive");
  const double cs = derating_factor(criteria);
  const double rho_s = effective_surface_rho(criteria);
  // E_step = (1000 + 6 Cs rho_s) * k / sqrt(t_s)  (IEEE Std 80 eq. 29/30).
  return (1000.0 + 6.0 * cs * rho_s) * dalziel_k(criteria) / std::sqrt(criteria.fault_duration);
}

SafetyAssessment assess_safety(const PotentialEvaluator& evaluator, double gpr, double x0,
                               double x1, double y0, double y1, std::size_t nx, std::size_t ny,
                               const SafetyCriteria& criteria) {
  EBEM_EXPECT(gpr > 0.0, "GPR must be positive");
  SafetyAssessment assessment;
  assessment.gpr = gpr;
  assessment.tolerable_touch = tolerable_touch_voltage(criteria);
  assessment.tolerable_step = tolerable_step_voltage(criteria);

  EBEM_EXPECT(nx >= 2 && ny >= 2, "surface grid needs at least 2x2 samples");
  EBEM_EXPECT(x1 > x0 && y1 > y0, "surface grid bounds must be increasing");
  const double dx = (x1 - x0) / static_cast<double>(nx - 1);
  const double dy = (y1 - y0) / static_cast<double>(ny - 1);

  // One batch: the nx * ny surface samples (row-major, as surface_grid
  // lays them out), then the step probes 1 m away in +x and +y from each.
  const std::size_t samples = nx * ny;
  std::vector<geom::Vec3> points;
  points.reserve(3 * samples);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      points.push_back({x0 + dx * static_cast<double>(i), y0 + dy * static_cast<double>(j), 0.0});
    }
  }
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double x = x0 + dx * static_cast<double>(i);
      const double y = y0 + dy * static_cast<double>(j);
      points.push_back({x + 1.0, y, 0.0});
      points.push_back({x, y + 1.0, 0.0});
    }
  }
  const std::vector<double> potentials = evaluator.at(points);
  const double* stepped = potentials.data() + samples;

  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double x = x0 + dx * static_cast<double>(i);
      const double y = y0 + dy * static_cast<double>(j);
      const double v = potentials[j * nx + i];
      const double touch = gpr - v;
      if (touch > assessment.max_touch_voltage) {
        assessment.max_touch_voltage = touch;
        assessment.worst_touch_point = {x, y, 0.0};
      }
      const std::size_t base = 2 * (j * nx + i);
      for (std::size_t dir = 0; dir < 2; ++dir) {
        const double step = std::abs(v - stepped[base + dir]);
        if (step > assessment.max_step_voltage) {
          assessment.max_step_voltage = step;
          assessment.worst_step_point = {x, y, 0.0};
        }
      }
    }
  }
  return assessment;
}

double mesh_voltage(const PotentialEvaluator& evaluator, double gpr, double x0, double x1,
                    double y0, double y1, std::size_t nx, std::size_t ny) {
  const PotentialEvaluator::SurfaceGrid grid = evaluator.surface_grid(x0, x1, y0, y1, nx, ny);
  double worst = 0.0;
  for (double v : grid.values) worst = std::max(worst, gpr - v);
  return worst;
}

}  // namespace ebem::post
