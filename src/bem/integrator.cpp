#include "src/bem/integrator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/bem/congruence_cache.hpp"
#include "src/bem/segment_integrals.hpp"
#include "src/common/error.hpp"
#include "src/common/math_utils.hpp"
#include "src/quad/gauss.hpp"

namespace ebem::bem {

namespace {

/// Per-thread reusable image-sweep workspace, keyed on the exact source
/// geometry, kernel, layer pair and whether the family is the surface-folded
/// one (field points at z = 0; see ImageKernel::surface_terms). Building the
/// sweep is the per-pair setup cost of the analytic path; hoisting it into
/// this thread_local buffer removes the churn from every element_pair call,
/// and the key check turns consecutive evaluations against the same source
/// — the batched entry point and every ACA row/column sample — into a
/// single build per (source, field layer).
struct SweepScratch {
  ImageSegmentSweep sweep;
  std::uint64_t kernel_epoch = 0;  ///< 0 never matches a live kernel
  geom::Vec3 a, b;
  double radius = -1.0;
  std::size_t source_layer = static_cast<std::size_t>(-1);
  std::size_t field_layer = static_cast<std::size_t>(-1);
  bool surface = false;
};

const ImageSegmentSweep& term_sweep(const soil::ImageKernel& kernel, const BemElement& source,
                                    std::size_t field_layer, bool surface = false) {
  thread_local SweepScratch scratch;
  // Exact comparisons on purpose: any difference rebuilds, a stale hit is
  // impossible (the kernel is identified by its process-unique epoch, not
  // its address), and the fixed-source case the batch/sampling paths
  // produce is the one that hits.
  const bool hit = scratch.kernel_epoch == kernel.epoch() &&
                   scratch.field_layer == field_layer && scratch.surface == surface &&
                   scratch.source_layer == source.layer && scratch.radius == source.radius &&
                   scratch.a.x == source.a.x && scratch.a.y == source.a.y &&
                   scratch.a.z == source.a.z && scratch.b.x == source.b.x &&
                   scratch.b.y == source.b.y && scratch.b.z == source.b.z;
  if (hit) return scratch.sweep;
  ImageSegmentSweep& sweep = scratch.sweep;
  sweep.clear();
  // Every image of the straight source segment shares its x/y geometry
  // (images remap only z), so the whole family is one base plus three
  // per-term scalars — no per-image make_segment_frame.
  const geom::Vec3 axis = source.b - source.a;
  const double length = geom::norm(axis);
  EBEM_EXPECT(length > 0.0, "source segment must have positive length");
  sweep.ax = source.a.x;
  sweep.ay = source.a.y;
  sweep.ux = axis.x / length;
  sweep.uy = axis.y / length;
  sweep.length = length;
  sweep.radius2 = square(source.radius);
  const double uz = axis.z / length;
  const auto& terms =
      surface ? kernel.surface_terms(source.layer) : kernel.terms(source.layer, field_layer);
  sweep.az.reserve(terms.size());
  sweep.muz.reserve(terms.size());
  sweep.weight.reserve(terms.size());
  for (const soil::ImageTerm& term : terms) {
    sweep.az.push_back(term.mirror * source.a.z + term.offset);
    sweep.muz.push_back(term.mirror * uz);
    sweep.weight.push_back(term.weight);
  }
  scratch.kernel_epoch = kernel.epoch();
  scratch.a = source.a;
  scratch.b = source.b;
  scratch.radius = source.radius;
  scratch.source_layer = source.layer;
  scratch.field_layer = field_layer;
  scratch.surface = surface;
  return scratch.sweep;
}

}  // namespace

Integrator::Integrator(const soil::PointKernel& kernel, const IntegratorOptions& options)
    : kernel_(kernel),
      image_kernel_(dynamic_cast<const soil::ImageKernel*>(&kernel)),
      options_(options) {
  EBEM_EXPECT(options.outer_gauss_points >= 1, "need at least one outer Gauss point");
  EBEM_EXPECT(options.inner_gauss_points >= 1, "need at least one inner Gauss point");
  EBEM_EXPECT(options.inner != InnerIntegration::kAnalytic || image_kernel_ != nullptr,
              "analytic inner integration requires an image-series kernel (1-2 layer soil); "
              "use InnerIntegration::kGauss for deeper stacks");
}

std::array<double, 2> Integrator::inner_integrals(geom::Vec3 field_point,
                                                  const BemElement& source,
                                                  std::size_t field_layer) const {
  std::array<double, 2> result{0.0, 0.0};

  if (options_.inner == InnerIntegration::kAnalytic) {
    const ImageSegmentSweep& sweep =
        term_sweep(*image_kernel_, source, field_layer);
    const bool linear = options_.basis == BasisKind::kLinear;
    if (options_.segment_eval == SegmentEval::kBatched) {
      accumulate_image_sweep(sweep, &field_point.x, &field_point.y, &field_point.z, 1, linear,
                             &result[0], &result[1]);
    } else {
      accumulate_image_sweep_reference(sweep, &field_point.x, &field_point.y, &field_point.z, 1,
                                       linear, &result[0], &result[1]);
    }
    const double prefactor = image_kernel_->prefactor(source.layer);
    result[0] *= prefactor;
    result[1] *= prefactor;
    return result;
  }

  // Generic paths: Gauss quadrature of the regularized point kernel
  // (prefactor included by the kernel), optionally with the singular q/r
  // part peeled off and integrated in closed form. The subtraction is
  // error-neutral by construction (what is subtracted under the quadrature
  // is added back exactly); choosing q as the kernel's local singular
  // strength makes the quadratured remainder smooth.
  double singular_strength = 0.0;
  if (options_.inner == InnerIntegration::kSubtracted) {
    const soil::LayeredSoil& soil = kernel_.soil_model();
    singular_strength = 1.0 / (2.0 * kPi * (soil.conductivity(source.layer) +
                                            soil.conductivity(field_layer)));
  }

  const quad::Rule& rule = quad::cached_gauss_legendre(options_.inner_gauss_points);
  const double half = 0.5 * source.length;
  // One batched kernel call for all inner nodes: kernels with vectorizable
  // structure (the image series) sum their terms in SoA form per node, the
  // rest fall back to the per-node virtual loop.
  thread_local std::vector<geom::Vec3> xi_nodes;
  thread_local std::vector<double> g_values;
  xi_nodes.resize(rule.size());
  g_values.resize(rule.size());
  for (std::size_t q = 0; q < rule.size(); ++q) {
    const double t = 0.5 * (1.0 + rule.nodes[q]);  // in [0, 1]
    xi_nodes[q] = source.a + t * (source.b - source.a);
  }
  kernel_.evaluate_regularized_batch(field_point, xi_nodes.data(), rule.size(), source.radius,
                                     g_values.data());
  for (std::size_t q = 0; q < rule.size(); ++q) {
    const double t = 0.5 * (1.0 + rule.nodes[q]);
    const geom::Vec3& xi = xi_nodes[q];
    double g = g_values[q];
    if (singular_strength != 0.0) {
      const double r_reg = std::sqrt(square(field_point.x - xi.x) + square(field_point.y - xi.y) +
                                     square(field_point.z - xi.z) + square(source.radius));
      g -= singular_strength / r_reg;
    }
    const double weight = rule.weights[q] * half * g;
    if (options_.basis == BasisKind::kLinear) {
      result[0] += weight * (1.0 - t);
      result[1] += weight * t;
    } else {
      result[0] += weight;
    }
  }
  if (singular_strength != 0.0) {
    const SegmentPotentials s =
        segment_potentials(field_point, source.a, source.b, source.radius);
    if (options_.basis == BasisKind::kLinear) {
      result[0] += singular_strength * shape_start_integral(s, source.length);
      result[1] += singular_strength * shape_end_integral(s, source.length);
    } else {
      result[0] += singular_strength * s.i0;
    }
  }
  return result;
}

LocalMatrix Integrator::element_pair(const BemElement& field, const BemElement& source) const {
  if (options_.inner == InnerIntegration::kAnalytic) {
    return element_pair_analytic(field, source);
  }

  const quad::Rule& rule = quad::cached_gauss_legendre(options_.outer_gauss_points);
  const double half = 0.5 * field.length;

  LocalMatrix local;
  for (std::size_t q = 0; q < rule.size(); ++q) {
    const double t = 0.5 * (1.0 + rule.nodes[q]);
    const geom::Vec3 chi = field.a + t * (field.b - field.a);
    const std::array<double, 2> inner = inner_integrals(chi, source, field.layer);
    const double weight = rule.weights[q] * half;
    if (options_.basis == BasisKind::kLinear) {
      const double w0 = weight * (1.0 - t);
      const double w1 = weight * t;
      local.value[0][0] += w0 * inner[0];
      local.value[0][1] += w0 * inner[1];
      local.value[1][0] += w1 * inner[0];
      local.value[1][1] += w1 * inner[1];
    } else {
      local.value[0][0] += weight * inner[0];
    }
  }
  return local;
}

LocalMatrix Integrator::element_pair_analytic(const BemElement& field,
                                              const BemElement& source) const {
  const quad::Rule& rule = quad::cached_gauss_legendre(options_.outer_gauss_points);
  const std::size_t points = rule.size();
  const double half = 0.5 * field.length;

  // Per-thread scratch: outer Gauss points of the field element in SoA form
  // and the inner-integral accumulators, reused across the triangle loop.
  thread_local std::vector<double> scratch;
  scratch.resize(5 * points);
  double* xs = scratch.data();
  double* ys = xs + points;
  double* zs = ys + points;
  double* acc0 = zs + points;
  double* acc1 = acc0 + points;
  std::fill(acc0, acc1 + points, 0.0);
  for (std::size_t q = 0; q < points; ++q) {
    const double t = 0.5 * (1.0 + rule.nodes[q]);
    xs[q] = field.a.x + t * (field.b.x - field.a.x);
    ys[q] = field.a.y + t * (field.b.y - field.a.y);
    zs[q] = field.a.z + t * (field.b.z - field.a.z);
  }

  // One fused SIMD sweep over (image term x outer Gauss point): the image
  // sweep comes from the per-thread workspace (built once per source and
  // field layer, reused verbatim when the source repeats) and every term is
  // applied to the whole Gauss-point batch before moving to the next image.
  const bool linear = options_.basis == BasisKind::kLinear;
  const ImageSegmentSweep& sweep =
      term_sweep(*image_kernel_, source, field.layer);
  if (options_.segment_eval == SegmentEval::kBatched) {
    accumulate_image_sweep(sweep, xs, ys, zs, points, linear, acc0, acc1);
  } else {
    accumulate_image_sweep_reference(sweep, xs, ys, zs, points, linear, acc0, acc1);
  }

  const double prefactor = image_kernel_->prefactor(source.layer);
  LocalMatrix local;
  for (std::size_t q = 0; q < points; ++q) {
    const double t = 0.5 * (1.0 + rule.nodes[q]);
    const double weight = rule.weights[q] * half;
    const double inner0 = prefactor * acc0[q];
    if (linear) {
      const double inner1 = prefactor * acc1[q];
      const double w0 = weight * (1.0 - t);
      const double w1 = weight * t;
      local.value[0][0] += w0 * inner0;
      local.value[0][1] += w0 * inner1;
      local.value[1][0] += w1 * inner0;
      local.value[1][1] += w1 * inner1;
    } else {
      local.value[0][0] += weight * inner0;
    }
  }
  return local;
}

LocalMatrix Integrator::element_pair(const BemElement& field, const BemElement& source,
                                     CongruenceCache* cache, bool* was_hit) const {
  if (was_hit != nullptr) *was_hit = false;
  if (cache == nullptr) return element_pair(field, source);
  // Role-canonical key: well-separated pairs share one entry with their
  // swapped-role congruent copies (replayed transposed); near pairs keep the
  // ordered key, where the transpose identity is only quadrature-accurate.
  const CanonicalPairSignature signature =
      make_canonical_pair_signature(field, source, cache->quantum());
  LocalMatrix block;
  if (cache->lookup(signature, block)) {
    if (was_hit != nullptr) *was_hit = true;
    return block;
  }
  block = element_pair(field, source);
  cache->insert(signature, block);
  return block;
}

void Integrator::element_pair_batch(const BemElement& source,
                                    std::span<const BemElement* const> fields,
                                    LocalMatrix* out) const {
  // The batching win lives in term_frames(): with the source fixed, the
  // image frames survive across fields (rebuilt only when the field layer
  // changes), so each additional field costs just its outer sweep. The
  // generic-quadrature paths have no per-source setup to share.
  for (std::size_t k = 0; k < fields.size(); ++k) {
    out[k] = element_pair(*fields[k], source);
  }
}

void Integrator::element_pair_batch(const BemElement& source,
                                    std::span<const BemElement* const> fields, LocalMatrix* out,
                                    CongruenceCache* cache, std::size_t* replayed) const {
  if (cache == nullptr) {
    element_pair_batch(source, fields, out);
    return;
  }
  // Same replay discipline as the cached element_pair: canonical signature
  // first, integrate only the misses. The shared per-source workspace still
  // amortizes across the misses of one batch, so a cold batch costs what the
  // uncached entry does and a warm one costs only the signature lookups.
  std::size_t hits = 0;
  for (std::size_t k = 0; k < fields.size(); ++k) {
    bool was_hit = false;
    out[k] = element_pair(*fields[k], source, cache, &was_hit);
    hits += was_hit ? 1 : 0;
  }
  if (replayed != nullptr) *replayed += hits;
}

std::array<double, 2> Integrator::potential_influence(geom::Vec3 x,
                                                      const BemElement& source) const {
  const std::size_t field_layer = kernel_.soil_model().layer_of(std::min(x.z, 0.0));
  std::array<double, 2> influence{};
  potential_influence_batch(source, field_layer, &x.x, &x.y, &x.z, 1, &influence[0],
                            &influence[1]);
  return influence;
}

void Integrator::potential_influence_batch(const BemElement& source, std::size_t field_layer,
                                           const double* xs, const double* ys,
                                           const double* zs, std::size_t count, double* out0,
                                           double* out1) const {
  std::fill(out0, out0 + count, 0.0);
  std::fill(out1, out1 + count, 0.0);
  if (options_.inner != InnerIntegration::kAnalytic) {
    // The quadrature paths have no per-source setup to share.
    for (std::size_t k = 0; k < count; ++k) {
      const std::array<double, 2> inner =
          inner_integrals({xs[k], ys[k], zs[k]}, source, field_layer);
      out0[k] = inner[0];
      out1[k] = inner[1];
    }
    return;
  }
  // inner_integrals' analytic branch with the points batched. A batch that
  // lies wholly on the earth's surface runs the surface-folded family:
  // every image coincides there with its mirror across the surface.
  const bool surface =
      field_layer == 0 && std::all_of(zs, zs + count, [](double z) { return z == 0.0; });
  const ImageSegmentSweep& sweep = term_sweep(*image_kernel_, source, field_layer, surface);
  const bool linear = options_.basis == BasisKind::kLinear;
  if (options_.segment_eval == SegmentEval::kBatched) {
    accumulate_image_sweep(sweep, xs, ys, zs, count, linear, out0, out1);
  } else {
    accumulate_image_sweep_reference(sweep, xs, ys, zs, count, linear, out0, out1);
  }
  const double prefactor = image_kernel_->prefactor(source.layer);
  for (std::size_t k = 0; k < count; ++k) {
    out0[k] *= prefactor;
    out1[k] *= prefactor;
  }
}

}  // namespace ebem::bem
