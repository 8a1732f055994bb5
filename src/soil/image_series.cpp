#include "src/soil/image_series.hpp"

#include <atomic>
#include <cmath>

#include "src/common/error.hpp"
#include "src/common/math_utils.hpp"
#include "src/common/simd.hpp"

namespace ebem::soil {

namespace {

/// Vectorized core of the image sum: sum_l w_l / sqrt(rho2 + (xz - z_l)^2)
/// with z_l = mirror_l * xiz + offset_l, over the SoA term arrays.
EBEM_SIMD_MULTIVERSION
double image_sum(const double* EBEM_RESTRICT weight, const double* EBEM_RESTRICT mirror,
                 const double* EBEM_RESTRICT offset, std::size_t count, double rho2, double xz,
                 double xiz) {
  double sum = 0.0;
  EBEM_SIMD_LOOP_REDUCE(+ : sum)
  for (std::size_t l = 0; l < count; ++l) {
    const double dz = xz - (mirror[l] * xiz + offset[l]);
    sum += weight[l] / std::sqrt(rho2 + dz * dz);
  }
  return sum;
}

}  // namespace

ImageKernel::ImageKernel(const LayeredSoil& soil, const SeriesOptions& options)
    : soil_(soil), options_(options) {
  static std::atomic<std::uint64_t> next_epoch{1};
  epoch_ = next_epoch.fetch_add(1, std::memory_order_relaxed);
  EBEM_EXPECT(options.tolerance > 0.0 && options.tolerance < 1.0,
              "series tolerance must be in (0, 1)");
  EBEM_EXPECT(options.max_reflections >= 1, "need at least one reflection");
  if (soil_.layer_count() == 1) {
    build_uniform();
  } else if (soil_.layer_count() == 2) {
    build_two_layer();
  } else {
    EBEM_EXPECT(false,
                "image-series kernel supports 1 or 2 layers; use HankelKernel for deeper stacks");
  }
  build_soa();
  build_surface_terms();
}

void ImageKernel::build_surface_terms() {
  for (std::size_t b = 0; b < soil_.layer_count(); ++b) {
    const std::vector<ImageTerm>& terms = terms_[b][0];
    std::vector<bool> folded(terms.size(), false);
    for (std::size_t t = 0; t < terms.size(); ++t) {
      if (folded[t]) continue;
      ImageTerm term = terms[t];
      // The builders emit each surface mirror a few terms after its
      // partner, so this scan is short in practice.
      for (std::size_t p = t + 1; p < terms.size(); ++p) {
        if (!folded[p] && terms[p].mirror == -term.mirror && terms[p].offset == -term.offset) {
          term.weight += terms[p].weight;
          folded[p] = true;
          break;
        }
      }
      surface_terms_[b].push_back(term);
    }
  }
}

void ImageKernel::build_soa() {
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t c = 0; c < 2; ++c) {
      TermSoA& soa = soa_[b][c];
      soa.weight.reserve(terms_[b][c].size());
      soa.mirror.reserve(terms_[b][c].size());
      soa.offset.reserve(terms_[b][c].size());
      for (const ImageTerm& term : terms_[b][c]) {
        soa.weight.push_back(term.weight);
        soa.mirror.push_back(term.mirror);
        soa.offset.push_back(term.offset);
      }
    }
  }
}

void ImageKernel::build_uniform() {
  // Classical half-space result: the source plus its mirror across the
  // insulating surface ("the series are reduced to only two summands").
  terms_[0][0] = {{1.0, 1.0, 0.0}, {1.0, -1.0, 0.0}};
}

std::size_t ImageKernel::reflections_needed() const {
  const double kappa = std::abs(soil_.reflection_coefficient());
  if (kappa == 0.0) return 0;
  // Smallest n with kappa^n < tolerance.
  const double n = std::log(options_.tolerance) / std::log(kappa);
  const auto needed = static_cast<std::size_t>(std::ceil(std::max(n, 0.0)));
  return std::min(needed, options_.max_reflections);
}

void ImageKernel::build_two_layer() {
  const double kappa = soil_.reflection_coefficient();
  const double h = soil_.interface_depth(0);  // upper-layer thickness H
  const std::size_t n_max = reflections_needed();

  // b=0, c=0 (source and field in the upper layer).
  {
    auto& t = terms_[0][0];
    t.push_back({1.0, 1.0, 0.0});   // primary
    t.push_back({1.0, -1.0, 0.0});  // surface mirror
    double w = 1.0;
    for (std::size_t n = 1; n <= n_max; ++n) {
      w *= kappa;
      const double off = 2.0 * static_cast<double>(n) * h;
      t.push_back({w, 1.0, off});
      t.push_back({w, -1.0, off});
      t.push_back({w, 1.0, -off});
      t.push_back({w, -1.0, -off});
    }
  }
  // b=0, c=1 (source above the interface, field below).
  {
    auto& t = terms_[0][1];
    double w = 1.0 + kappa;
    for (std::size_t n = 0; n <= n_max; ++n) {
      const double off = 2.0 * static_cast<double>(n) * h;
      t.push_back({w, 1.0, off});
      t.push_back({w, -1.0, off});
      w *= kappa;
    }
  }
  // b=1, c=0 (source below the interface, field above).
  {
    auto& t = terms_[1][0];
    double w = 1.0 - kappa;
    for (std::size_t n = 0; n <= n_max; ++n) {
      const double off = 2.0 * static_cast<double>(n) * h;
      t.push_back({w, 1.0, -off});
      t.push_back({w, -1.0, off});
      w *= kappa;
    }
  }
  // b=1, c=1 (source and field in the lower layer).
  {
    auto& t = terms_[1][1];
    t.push_back({1.0, 1.0, 0.0});                // primary
    t.push_back({-kappa, -1.0, -2.0 * h});       // mirror across the interface
    double w = 1.0 - kappa * kappa;
    for (std::size_t n = 0; n <= n_max; ++n) {
      t.push_back({w, -1.0, 2.0 * static_cast<double>(n) * h});
      w *= kappa;
    }
  }
}

const std::vector<ImageTerm>& ImageKernel::terms(std::size_t b, std::size_t c) const {
  EBEM_EXPECT(b < soil_.layer_count() && c < soil_.layer_count(), "layer index out of range");
  return terms_[b][c];
}

const std::vector<ImageTerm>& ImageKernel::surface_terms(std::size_t b) const {
  EBEM_EXPECT(b < soil_.layer_count(), "layer index out of range");
  return surface_terms_[b];
}

double ImageKernel::prefactor(std::size_t b) const {
  return 1.0 / (4.0 * kPi * soil_.conductivity(b));
}

double ImageKernel::evaluate(geom::Vec3 x, geom::Vec3 xi) const {
  return evaluate_regularized(x, xi, 0.0);
}

double ImageKernel::evaluate_regularized(geom::Vec3 x, geom::Vec3 xi, double radius) const {
  const std::size_t b = soil_.layer_of(xi.z);
  const std::size_t c = soil_.layer_of(x.z);
  const double rho2 = square(x.x - xi.x) + square(x.y - xi.y) + square(radius);
  const TermSoA& soa = soa_[b][c];
  return prefactor(b) *
         image_sum(soa.weight.data(), soa.mirror.data(), soa.offset.data(), soa.weight.size(),
                   rho2, x.z, xi.z);
}

void ImageKernel::evaluate_regularized_batch(geom::Vec3 x, const geom::Vec3* xi,
                                             std::size_t count, double radius,
                                             double* out) const {
  const std::size_t c = soil_.layer_of(x.z);
  const double radius2 = square(radius);
  for (std::size_t k = 0; k < count; ++k) {
    // Per-source layer lookup on purpose: an inner quadrature's nodes all
    // lie on one element, but nothing in the interface promises that.
    const std::size_t b = soil_.layer_of(xi[k].z);
    const double rho2 = square(x.x - xi[k].x) + square(x.y - xi[k].y) + radius2;
    const TermSoA& soa = soa_[b][c];
    out[k] = prefactor(b) *
             image_sum(soa.weight.data(), soa.mirror.data(), soa.offset.data(),
                       soa.weight.size(), rho2, x.z, xi[k].z);
  }
}

}  // namespace ebem::soil
