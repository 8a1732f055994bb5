#include "src/post/surface_potential.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/parallel/parallel_for.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/soil/kernel_factory.hpp"

namespace ebem::post {

namespace {

bem::IntegratorOptions evaluator_integrator_options(const bem::BemModel& model,
                                                    const PotentialOptions& options) {
  bem::IntegratorOptions integrator = options.integrator;
  if (model.soil().layer_count() > 2) {
    integrator.inner = bem::InnerIntegration::kSubtracted;
  }
  return integrator;
}

}  // namespace

PotentialEvaluator::PotentialEvaluator(const bem::BemModel& model, std::vector<double> sigma,
                                       const PotentialOptions& options)
    : model_(model),
      sigma_(std::move(sigma)),
      options_(options),
      kernel_(soil::make_kernel(model.soil(), options.series, options.hankel)),
      integrator_(*kernel_, evaluator_integrator_options(model, options)) {
  EBEM_EXPECT(sigma_.size() == model.dof_count(options.integrator.basis),
              "sigma size does not match the model's DoF count");
}

std::vector<double> PotentialEvaluator::evaluate(std::span<const geom::Vec3> points) const {
  const bem::BasisKind basis = options_.integrator.basis;
  const std::size_t locals = model_.local_dof_count(basis);
  // Batches never mix surface and buried points (see
  // Integrator::potential_influence_batch): group [0] is the surface, group
  // [1 + c] the buried points of layer c.
  const soil::LayeredSoil& soil = model_.soil();
  std::vector<std::vector<std::size_t>> groups(1 + soil.layer_count());
  for (std::size_t k = 0; k < points.size(); ++k) {
    const double z = points[k].z;
    groups[z == 0.0 ? 0 : 1 + soil.layer_of(std::min(z, 0.0))].push_back(k);
  }

  std::vector<double> values(points.size(), 0.0);
  std::vector<double> soa;
  for (std::size_t group = 0; group < groups.size(); ++group) {
    const std::vector<std::size_t>& members = groups[group];
    const std::size_t layer = group == 0 ? 0 : group - 1;
    const std::size_t count = members.size();
    if (count == 0) continue;
    soa.assign(6 * count, 0.0);
    double* xs = soa.data();
    double* ys = xs + count;
    double* zs = ys + count;
    double* out0 = zs + count;
    double* out1 = out0 + count;
    double* sums = out1 + count;
    for (std::size_t k = 0; k < count; ++k) {
      xs[k] = points[members[k]].x;
      ys[k] = points[members[k]].y;
      zs[k] = points[members[k]].z;
    }
    for (std::size_t e = 0; e < model_.element_count(); ++e) {
      integrator_.potential_influence_batch(model_.elements()[e], layer, xs, ys, zs, count,
                                            out0, out1);
      const double sigma0 = sigma_[model_.global_dof(basis, e, 0)];
      if (locals == 1) {
        for (std::size_t k = 0; k < count; ++k) sums[k] += out0[k] * sigma0;
      } else {
        const double sigma1 = sigma_[model_.global_dof(basis, e, 1)];
        for (std::size_t k = 0; k < count; ++k) {
          sums[k] += out0[k] * sigma0;
          sums[k] += out1[k] * sigma1;
        }
      }
    }
    for (std::size_t k = 0; k < count; ++k) values[members[k]] = sums[k];
  }
  return values;
}

double PotentialEvaluator::at(geom::Vec3 x) const { return evaluate({&x, 1})[0]; }

std::vector<double> PotentialEvaluator::at(const std::vector<geom::Vec3>& points) const {
  if (options_.num_threads <= 1) return evaluate(points);
  // Blocks of points, so each worker still shares every image sweep across
  // a batch.
  constexpr std::size_t kBlock = 32;
  const std::size_t blocks = (points.size() + kBlock - 1) / kBlock;
  std::vector<double> values(points.size(), 0.0);
  par::ThreadPool pool(options_.num_threads);
  par::parallel_for(pool, blocks, options_.schedule, [&](std::size_t b) {
    const std::size_t begin = b * kBlock;
    const std::size_t count = std::min(kBlock, points.size() - begin);
    const std::vector<double> block =
        evaluate(std::span<const geom::Vec3>(points).subspan(begin, count));
    std::copy(block.begin(), block.end(), values.begin() + static_cast<std::ptrdiff_t>(begin));
  });
  return values;
}

PotentialEvaluator::SurfaceGrid PotentialEvaluator::surface_grid(double x0, double x1, double y0,
                                                                 double y1, std::size_t nx,
                                                                 std::size_t ny) const {
  EBEM_EXPECT(nx >= 2 && ny >= 2, "surface grid needs at least 2x2 samples");
  EBEM_EXPECT(x1 > x0 && y1 > y0, "surface grid bounds must be increasing");
  SurfaceGrid grid;
  grid.x0 = x0;
  grid.y0 = y0;
  grid.nx = nx;
  grid.ny = ny;
  grid.dx = (x1 - x0) / static_cast<double>(nx - 1);
  grid.dy = (y1 - y0) / static_cast<double>(ny - 1);
  std::vector<geom::Vec3> points;
  points.reserve(nx * ny);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      points.push_back({x0 + grid.dx * static_cast<double>(i),
                        y0 + grid.dy * static_cast<double>(j), 0.0});
    }
  }
  grid.values = at(points);
  return grid;
}

std::vector<double> PotentialEvaluator::profile(geom::Vec3 a, geom::Vec3 b, std::size_t n) const {
  EBEM_EXPECT(n >= 2, "profile needs at least two samples");
  std::vector<geom::Vec3> points;
  points.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(n - 1);
    points.push_back(a + t * (b - a));
  }
  return at(points);
}

}  // namespace ebem::post
