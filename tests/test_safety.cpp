// IEEE Std 80 safety parameters: tolerable limits and field assessment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/bem/analysis.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/post/safety.hpp"

namespace ebem::post {
namespace {

TEST(SafetyLimits, NoSurfaceLayerDeratingIsUnity) {
  SafetyCriteria criteria;
  criteria.surface_resistivity = 0.0;
  EXPECT_DOUBLE_EQ(derating_factor(criteria), 1.0);
}

TEST(SafetyLimits, DeratingMatchesIeeeExample) {
  // IEEE Std 80-2000 worked example: rho = 100, rho_s = 2500, h_s = 0.1:
  // Cs = 1 - 0.09 (1 - 100/2500) / (2*0.1 + 0.09) ~= 0.702.
  SafetyCriteria criteria;
  criteria.soil_resistivity = 100.0;
  criteria.surface_resistivity = 2500.0;
  criteria.surface_layer_thickness = 0.1;
  EXPECT_NEAR(derating_factor(criteria), 0.702, 0.002);
}

TEST(SafetyLimits, TouchLimitMatchesIeeeExample) {
  // With the Cs above and t_s = 0.5 s, 50 kg body:
  // E_touch = (1000 + 1.5 * 0.702 * 2500) * 0.116 / sqrt(0.5).
  SafetyCriteria criteria;
  criteria.soil_resistivity = 100.0;
  criteria.surface_resistivity = 2500.0;
  criteria.surface_layer_thickness = 0.1;
  criteria.fault_duration = 0.5;
  const double cs = derating_factor(criteria);
  const double expected = (1000.0 + 1.5 * cs * 2500.0) * 0.116 / std::sqrt(0.5);
  EXPECT_NEAR(tolerable_touch_voltage(criteria), expected, 1e-9);
  EXPECT_NEAR(expected, 595.0, 10.0);  // the standard's ballpark number
}

TEST(SafetyLimits, StepLimitExceedsTouchLimit) {
  // The step path (foot-to-foot) tolerates more than the touch path.
  SafetyCriteria criteria;
  criteria.surface_resistivity = 2500.0;
  EXPECT_GT(tolerable_step_voltage(criteria), tolerable_touch_voltage(criteria));
}

TEST(SafetyLimits, ShorterFaultAllowsHigherVoltage) {
  SafetyCriteria fast;
  fast.fault_duration = 0.1;
  SafetyCriteria slow;
  slow.fault_duration = 1.0;
  EXPECT_GT(tolerable_touch_voltage(fast), tolerable_touch_voltage(slow));
}

TEST(SafetyLimits, HeavierBodyTolerance) {
  SafetyCriteria light;
  SafetyCriteria heavy;
  heavy.body_weight_50kg = false;
  EXPECT_GT(tolerable_touch_voltage(heavy), tolerable_touch_voltage(light));
}

TEST(SafetyLimits, InvalidDurationRejected) {
  SafetyCriteria criteria;
  criteria.fault_duration = 0.0;
  EXPECT_THROW((void)tolerable_touch_voltage(criteria), ebem::InvalidArgument);
}

struct Solved {
  bem::BemModel model;
  bem::AnalysisResult result;
};

Solved solve_grid(double gpr) {
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  bem::BemModel model(geom::Mesh::build(geom::make_rect_grid(spec)),
                      soil::LayeredSoil::uniform(0.02));
  bem::AnalysisOptions options;
  options.gpr = gpr;
  bem::AnalysisResult result = bem::analyze(model, options);
  return {std::move(model), std::move(result)};
}

TEST(SafetyAssessment, TouchVoltageBoundedByGpr) {
  const Solved solved = solve_grid(10e3);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const SafetyAssessment a =
      assess_safety(evaluator, 10e3, -10.0, 30.0, -10.0, 30.0, 9, 9, {});
  EXPECT_GT(a.max_touch_voltage, 0.0);
  EXPECT_LT(a.max_touch_voltage, 10e3);
  EXPECT_GT(a.max_step_voltage, 0.0);
  EXPECT_LT(a.max_step_voltage, a.max_touch_voltage);
}

TEST(SafetyAssessment, WorstTouchIsAwayFromGridCenter) {
  const Solved solved = solve_grid(10e3);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const SafetyAssessment a =
      assess_safety(evaluator, 10e3, -10.0, 30.0, -10.0, 30.0, 9, 9, {});
  // The surface potential sags (touch voltage grows) away from the grid.
  const double dist = std::hypot(a.worst_touch_point.x - 10.0, a.worst_touch_point.y - 10.0);
  EXPECT_GT(dist, 10.0);
}

TEST(SafetyAssessment, MeshVoltageInsideGridIsLowerThanPatchWorstCase) {
  const Solved solved = solve_grid(10e3);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const double inside = mesh_voltage(evaluator, 10e3, 2.0, 18.0, 2.0, 18.0, 9, 9);
  const SafetyAssessment wide =
      assess_safety(evaluator, 10e3, -20.0, 40.0, -20.0, 40.0, 9, 9, {});
  EXPECT_GT(inside, 0.0);
  EXPECT_LT(inside, wide.max_touch_voltage);
}

TEST(SafetyAssessment, SafeFlagsFollowLimits) {
  const Solved solved = solve_grid(100.0);  // tiny GPR: everything safe
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  SafetyCriteria criteria;
  criteria.surface_resistivity = 2500.0;
  const SafetyAssessment a =
      assess_safety(evaluator, 100.0, 0.0, 20.0, 0.0, 20.0, 5, 5, criteria);
  EXPECT_TRUE(a.touch_safe());
  EXPECT_TRUE(a.step_safe());
}

TEST(SafetyAssessment, HighGprTripsLimits) {
  const Solved solved = solve_grid(50e3);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const SafetyAssessment a =
      assess_safety(evaluator, 50e3, -30.0, 50.0, -30.0, 50.0, 9, 9, {});
  EXPECT_FALSE(a.touch_safe());
}

TEST(SafetyAssessment, BatchedProbesMatchPointByPointEvaluation) {
  // assess_safety evaluates the surface samples and step probes as one
  // batch; the maxima must equal a point-by-point evaluation to the bit.
  const Solved solved = solve_grid(10e3);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const double x0 = -10.0, x1 = 30.0, y0 = -5.0, y1 = 25.0;
  const std::size_t nx = 3, ny = 4;
  const SafetyAssessment a = assess_safety(evaluator, 10e3, x0, x1, y0, y1, nx, ny, {});
  const double dx = (x1 - x0) / static_cast<double>(nx - 1);
  const double dy = (y1 - y0) / static_cast<double>(ny - 1);
  double touch = 0.0;
  double step = 0.0;
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double x = x0 + dx * static_cast<double>(i);
      const double y = y0 + dy * static_cast<double>(j);
      const double v = evaluator.at(geom::Vec3{x, y, 0.0});
      touch = std::max(touch, 10e3 - v);
      step = std::max(step, std::abs(v - evaluator.at(geom::Vec3{x + 1.0, y, 0.0})));
      step = std::max(step, std::abs(v - evaluator.at(geom::Vec3{x, y + 1.0, 0.0})));
    }
  }
  EXPECT_EQ(a.max_touch_voltage, touch);
  EXPECT_EQ(a.max_step_voltage, step);
}

}  // namespace
}  // namespace ebem::post
