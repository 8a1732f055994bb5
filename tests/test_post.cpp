// Post-processing: surface potentials, profiles, grids, contours.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/error.hpp"
#include "src/bem/analysis.hpp"
#include "src/common/math_utils.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/post/contour.hpp"
#include "src/post/surface_potential.hpp"

namespace ebem::post {
namespace {

struct Solved {
  bem::BemModel model;
  bem::AnalysisResult result;
};

Solved solve_square_grid(const soil::LayeredSoil& soil, double gpr = 1.0,
                         double element_length = 0.0) {
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  spec.depth = 0.8;
  geom::MeshOptions mesh_options;
  mesh_options.target_element_length = element_length;
  bem::BemModel model(geom::Mesh::build(geom::make_rect_grid(spec), mesh_options), soil);
  bem::AnalysisOptions options;
  options.gpr = gpr;
  bem::AnalysisResult result = bem::analyze(model, options);
  return {std::move(model), std::move(result)};
}

TEST(PotentialEvaluator, SurfacePotentialAboveGridNearGpr) {
  // Right above a dense shallow grid the surface potential approaches the
  // GPR (it can never exceed it).
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02), 10e3);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const double v = evaluator.at({10.0, 10.0, 0.0});
  EXPECT_LT(v, 10e3);
  EXPECT_GT(v, 0.6 * 10e3);
}

TEST(PotentialEvaluator, PotentialOnElectrodeSurfaceMatchesGpr) {
  // The boundary condition V = GPR on the electrode surface is what the
  // Galerkin system enforces (weakly): with a refined mesh, the potential a
  // wire radius away from a bar axis sits within a few percent of the GPR.
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02), 1.0, 1.25);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  // Point just beside the middle of the (10, y) bar at burial depth.
  const double v = evaluator.at({10.0 + 0.006, 10.0, -0.8});
  // Weak (Galerkin) enforcement plus the thin-wire regularization leave a
  // few-percent pointwise residual at this mesh density.
  EXPECT_NEAR(v, 1.0, 0.08);
}

TEST(PotentialEvaluator, FarFieldMatchesPointSourceMonopole) {
  // Far away the whole grid is a monopole: V ~ I / (2 pi gamma r).
  const double gamma = 0.02;
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(gamma), 1.0);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const double r = 500.0;
  const double v = evaluator.at({10.0 + r, 10.0, 0.0});
  const double expected = solved.result.total_current / (2.0 * kPi * gamma * r);
  EXPECT_NEAR(v, expected, 0.05 * expected);
}

TEST(PotentialEvaluator, DecaysMonotonicallyOutsideGrid) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  double previous = evaluator.at({21.0, 10.0, 0.0});
  for (double x : {25.0, 30.0, 40.0, 60.0, 100.0}) {
    const double v = evaluator.at({x, 10.0, 0.0});
    EXPECT_LT(v, previous) << x;
    previous = v;
  }
}

TEST(PotentialEvaluator, BatchMatchesPointwise) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const std::vector<geom::Vec3> points{{0, 0, 0}, {5, 5, 0}, {30, -10, 0}, {10, 10, -0.4}};
  const std::vector<double> batch = evaluator.at(points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], evaluator.at(points[i]));
  }
}

TEST(PotentialEvaluator, BatchIsBitwiseEqualToPointwiseAcrossLayerCounts) {
  // The batched path shares each element's image sweep across the points of
  // one field layer; every point must still see exactly the arithmetic of a
  // one-point evaluation. Points straddle the layers of each soil, so the
  // per-layer grouping is exercised too. Sigma is arbitrary: the identity
  // holds for any density, and the 3-layer kernel is too slow to solve here
  // (a loose spectral tolerance keeps it quick; accuracy is not under test).
  geom::RectGridSpec spec;
  spec.length_x = 10.0;
  spec.length_y = 10.0;
  spec.cells_x = 1;
  spec.cells_y = 1;
  const geom::Mesh mesh = geom::Mesh::build(geom::make_rect_grid(spec));
  const soil::LayeredSoil soils[] = {
      soil::LayeredSoil::uniform(0.02),
      soil::LayeredSoil::two_layer(0.005, 0.016, 1.0),
      soil::LayeredSoil({soil::Layer{1.0 / 400.0, 1.5}, soil::Layer{1.0 / 25.0, 3.0},
                         soil::Layer{1.0 / 250.0, 0.0}}),
  };
  std::vector<geom::Vec3> points;
  for (int k = 0; k < 9; ++k) points.push_back({-3.0 + 2.1 * k, 1.3 * (k % 5), 0.0});
  for (const double depth : {-0.4, -1.2, -5.0}) points.push_back({4.0, 3.0, depth});
  for (const soil::LayeredSoil& soil : soils) {
    const bem::BemModel model(mesh, soil);
    std::vector<double> sigma(model.dof_count(bem::BasisKind::kLinear));
    for (std::size_t i = 0; i < sigma.size(); ++i) sigma[i] = 1.0 + 0.1 * static_cast<double>(i);
    PotentialOptions options;
    options.hankel.tolerance = 1e-3;
    const PotentialEvaluator evaluator(model, sigma, options);
    const std::vector<double> batch = evaluator.at(points);
    ASSERT_EQ(batch.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(batch[i], evaluator.at(points[i]))
          << soil.layer_count() << "-layer soil, point " << i;
    }
  }
}

TEST(PotentialEvaluator, SurfacePointsAgreeWithTheUnfoldedImageFamily) {
  // Surface points sum the surface-folded image family; a point a hair
  // below the surface (same geometry to the last bit) sums the full one.
  const Solved solved = solve_square_grid(soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  for (const geom::Vec3 x : {geom::Vec3{0, 0, 0}, geom::Vec3{7, 3, 0}, geom::Vec3{35, -10, 0}}) {
    const double folded = evaluator.at(x);
    const double full = evaluator.at(geom::Vec3{x.x, x.y, -1e-300});
    EXPECT_NEAR(folded, full, 1e-13 * std::abs(full));
  }
}

TEST(PotentialEvaluator, ParallelEvaluationMatchesSequential) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  PotentialOptions parallel_options;
  parallel_options.num_threads = 4;
  const PotentialEvaluator sequential(solved.model, solved.result.sigma);
  const PotentialEvaluator parallel(solved.model, solved.result.sigma, parallel_options);
  std::vector<geom::Vec3> points;
  for (int i = 0; i < 40; ++i) points.push_back({0.7 * i, 0.3 * i, 0.0});
  const auto a = sequential.at(points);
  const auto b = parallel.at(points);
  for (std::size_t i = 0; i < points.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(PotentialEvaluator, SurfaceGridLayoutAndSymmetry) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const auto grid = evaluator.surface_grid(-5.0, 25.0, -5.0, 25.0, 13, 13);
  EXPECT_EQ(grid.values.size(), 13u * 13u);
  EXPECT_DOUBLE_EQ(grid.dx, 30.0 / 12.0);
  // The square grid is symmetric under x <-> y (up to quadrature-level
  // differences between x- and y-oriented elements).
  for (std::size_t j = 0; j < 13; ++j) {
    for (std::size_t i = 0; i < 13; ++i) {
      EXPECT_NEAR(grid.at(i, j), grid.at(j, i), 1e-5 * std::abs(grid.at(i, j)));
    }
  }
  // Peak near the grid center sample.
  const auto max_it = std::max_element(grid.values.begin(), grid.values.end());
  const std::size_t idx = static_cast<std::size_t>(max_it - grid.values.begin());
  const std::size_t ci = idx % 13;
  const std::size_t cj = idx / 13;
  EXPECT_NEAR(static_cast<double>(ci), 6.0, 1.01);
  EXPECT_NEAR(static_cast<double>(cj), 6.0, 1.01);
}

TEST(PotentialEvaluator, ProfileEndpointsMatchPointEvaluation) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const geom::Vec3 a{-10, 10, 0};
  const geom::Vec3 b{30, 10, 0};
  const auto profile = evaluator.profile(a, b, 9);
  ASSERT_EQ(profile.size(), 9u);
  EXPECT_DOUBLE_EQ(profile.front(), evaluator.at(a));
  EXPECT_DOUBLE_EQ(profile.back(), evaluator.at(b));
}

TEST(PotentialEvaluator, TwoLayerSurfacePotentialsDifferFromUniform) {
  // Fig. 5.2's message: layer structure visibly changes surface potentials.
  const Solved uniform = solve_square_grid(soil::LayeredSoil::uniform(0.016), 1.0);
  const Solved layered =
      solve_square_grid(soil::LayeredSoil::two_layer(0.005, 0.016, 1.0), 1.0);
  const PotentialEvaluator eu(uniform.model, uniform.result.sigma);
  const PotentialEvaluator el(layered.model, layered.result.sigma);
  const double vu = eu.at({10, 10, 0});
  const double vl = el.at({10, 10, 0});
  EXPECT_GT(std::abs(vu - vl) / vu, 0.02);
}

TEST(PotentialEvaluator, SigmaSizeValidated) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  std::vector<double> wrong(solved.result.sigma);
  wrong.pop_back();
  EXPECT_THROW(PotentialEvaluator(solved.model, wrong), ebem::InvalidArgument);
}

TEST(Contour, CsvHasHeaderAndAllRows) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const auto grid = evaluator.surface_grid(0.0, 20.0, 0.0, 20.0, 5, 4);
  std::ostringstream os;
  write_contour_csv(os, grid);
  const std::string text = os.str();
  EXPECT_EQ(text.find("x,y,potential"), 0u);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1 + 5 * 4);
}

TEST(Contour, AsciiShowsHighBandOverGrid) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02), 10e3);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const auto grid = evaluator.surface_grid(-20.0, 40.0, -20.0, 40.0, 31, 31);
  const std::string art = ascii_contour(grid);
  EXPECT_NE(art.find('@'), std::string::npos);   // hot spot over the grid
  EXPECT_NE(art.find("bands:"), std::string::npos);
  // 31 rows plus the legend line.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 32);
}

}  // namespace
}  // namespace ebem::post
