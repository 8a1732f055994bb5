// Potential evaluation at arbitrary points once the leakage current is
// known — paper eq. (4.2): V(x) = sum_i sigma_i V_i(x).
//
// Drawing the earth-surface potential contours of Figs. 5.2/5.4 needs this
// at thousands of points; the paper names it the second massively
// parallelizable stage, so evaluation is parallel over points. Points are
// evaluated in batches — the surface points, then the buried points of each
// soil layer — and each element's image sweep is built once per batch
// (Integrator::potential_influence_batch; surface points sum the folded
// image family). Every point keeps the element-then-local-DoF summation
// order of a one-point evaluation, so the values do not depend on how
// points are batched.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/bem/element.hpp"
#include "src/geom/vec3.hpp"
#include "src/parallel/schedule.hpp"

namespace ebem::post {

struct PotentialOptions {
  bem::IntegratorOptions integrator;
  soil::SeriesOptions series;
  soil::HankelOptions hankel{.tolerance = 1e-7};  ///< for 3+ layer soils
  std::size_t num_threads = 1;
  par::Schedule schedule = par::Schedule::dynamic(4);
};

/// Evaluates V at points given a solved leakage distribution.
class PotentialEvaluator {
 public:
  PotentialEvaluator(const bem::BemModel& model, std::vector<double> sigma,
                     const PotentialOptions& options = {});

  /// Potential at one point (x.z <= 0; use z = 0 for the earth surface).
  [[nodiscard]] double at(geom::Vec3 x) const;

  /// Potentials at many points, batched, parallel over blocks of points;
  /// bitwise equal to calling at() per point.
  [[nodiscard]] std::vector<double> at(const std::vector<geom::Vec3>& points) const;

  /// Potentials on a regular surface grid (z = 0): rows sweep y, columns x.
  struct SurfaceGrid {
    double x0 = 0.0, y0 = 0.0;
    double dx = 0.0, dy = 0.0;
    std::size_t nx = 0, ny = 0;
    std::vector<double> values;  ///< row-major, values[j * nx + i]

    [[nodiscard]] double at(std::size_t i, std::size_t j) const { return values[j * nx + i]; }
  };
  [[nodiscard]] SurfaceGrid surface_grid(double x0, double x1, double y0, double y1,
                                         std::size_t nx, std::size_t ny) const;

  /// Potential profile along the straight segment a->b (n samples inclusive).
  [[nodiscard]] std::vector<double> profile(geom::Vec3 a, geom::Vec3 b, std::size_t n) const;

  [[nodiscard]] const bem::BemModel& model() const { return model_; }
  [[nodiscard]] const std::vector<double>& sigma() const { return sigma_; }

 private:
  /// Serial batched evaluation of `points` (see the header comment).
  [[nodiscard]] std::vector<double> evaluate(std::span<const geom::Vec3> points) const;

  const bem::BemModel& model_;
  std::vector<double> sigma_;
  PotentialOptions options_;
  std::unique_ptr<soil::PointKernel> kernel_;
  bem::Integrator integrator_;
};

}  // namespace ebem::post
