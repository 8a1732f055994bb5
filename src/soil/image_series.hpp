// Method-of-images Green's function for uniform and two-layer soils.
//
// This is the paper's eq. (3.2): the kernel k_bc(x, xi) is an infinite
// series of 1/r terms, one per image of the source point xi, with weights
// psi_l(kappa) that depend only on the reflection coefficient
// kappa = (gamma_1 - gamma_2)/(gamma_1 + gamma_2) and on which layers hold
// the source (b) and the field point (c). Every image position is an affine
// map of the source z-coordinate, z' = mirror * z_s + offset with
// mirror = +/-1 — which is what lets the BEM integrator apply its analytic
// segment integrals term by term (the image of a straight segment is a
// straight segment).
//
// Image families (surface at z = 0, upper-layer thickness H, source z_s < 0;
// derivation via Hankel transform, cross-validated against soil/hankel_kernel):
//   b=0,c=0: 1 at z_s and -z_s; kappa^n at {±z_s ± 2nH} (4 images), n>=1
//   b=0,c=1: (1+kappa) kappa^n at {2nH + z_s, 2nH - z_s}, n>=0
//   b=1,c=0: (1-kappa) kappa^n at {z_s - 2nH, -z_s + 2nH}, n>=0
//   b=1,c=1: 1 at z_s; -kappa at -z_s - 2H; (1-kappa^2) kappa^n at
//            {-z_s + 2nH}, n>=0
// For uniform soil the series collapses to the classical two summands
// (source + its mirror across the surface).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/geom/vec3.hpp"
#include "src/soil/point_kernel.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::soil {

/// One image of a point source: the image sits at z' = mirror * z_s + offset
/// (same x, y) and contributes weight / r to the kernel series.
struct ImageTerm {
  double weight = 0.0;
  double mirror = 1.0;  ///< +1 or -1
  double offset = 0.0;  ///< [m]
};

struct SeriesOptions {
  /// Image families are truncated once |kappa|^n drops below this relative
  /// tolerance (the paper's "summed until a tolerance is fulfilled").
  double tolerance = 1e-9;
  /// Hard cap on n per family (the paper's "upper limit of summands").
  std::size_t max_reflections = 128;

  friend bool operator==(const SeriesOptions&, const SeriesOptions&) = default;
};

/// Point Green's function for a uniform or two-layer soil: evaluate(x, xi)
/// returns the potential at x per unit current injected at xi, including the
/// 1/(4 pi gamma_b) prefactor of eq. (3.1).
class ImageKernel final : public PointKernel {
 public:
  explicit ImageKernel(const LayeredSoil& soil, const SeriesOptions& options = {});

  /// Potential at x per unit point current at xi (both with z <= 0).
  [[nodiscard]] double evaluate(geom::Vec3 x, geom::Vec3 xi) const;

  /// Same, with the thin-wire regularization r -> sqrt(r^2 + radius^2).
  [[nodiscard]] double evaluate_regularized(geom::Vec3 x, geom::Vec3 xi,
                                            double radius) const override;

  /// SoA override: the image sum per source runs over the precomputed
  /// weight/mirror/offset arrays in one vectorized sweep (the scalar entry
  /// uses the same sweep with one source, so both agree exactly).
  void evaluate_regularized_batch(geom::Vec3 x, const geom::Vec3* xi, std::size_t count,
                                  double radius, double* out) const override;

  [[nodiscard]] const LayeredSoil& soil_model() const override { return soil_; }

  /// The precomputed image family for (source layer b, field layer c).
  [[nodiscard]] const std::vector<ImageTerm>& terms(std::size_t b, std::size_t c) const;

  /// The family for (source layer b, field layer 0) as seen from field
  /// points on the earth's surface (z = 0). Each image at depth z pairs
  /// with its mirror across the surface at -z (mirror and offset negated),
  /// and both lie at the same distance from any point with z = 0, so each
  /// pair is folded into one term carrying the summed weight: half the
  /// evaluations for surface potentials. Only valid for z = 0.
  [[nodiscard]] const std::vector<ImageTerm>& surface_terms(std::size_t b) const;

  /// 1/(4 pi gamma_b) prefactor for sources in layer b.
  [[nodiscard]] double prefactor(std::size_t b) const;

  [[nodiscard]] const LayeredSoil& soil() const { return soil_; }
  [[nodiscard]] const SeriesOptions& options() const { return options_; }

  /// Process-unique instance id. Memoization that keys on a kernel must use
  /// this, not the object address: a new kernel allocated where a destroyed
  /// one lived would otherwise replay stale cached state (the integrator's
  /// per-thread image-frame workspace hit exactly that hazard).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  /// Structure-of-arrays mirror of one image family, what the vectorized
  /// evaluation sweeps actually read (the AoS terms() stays the public and
  /// integrator-facing form; both are built once in the constructor).
  struct TermSoA {
    std::vector<double> weight;
    std::vector<double> mirror;
    std::vector<double> offset;
  };

  void build_uniform();
  void build_two_layer();
  void build_soa();
  void build_surface_terms();
  [[nodiscard]] std::size_t reflections_needed() const;

  LayeredSoil soil_;
  SeriesOptions options_;
  std::uint64_t epoch_ = 0;
  // terms_[b][c]; only [0][0] populated for uniform soil.
  std::vector<ImageTerm> terms_[2][2];
  TermSoA soa_[2][2];
  std::vector<ImageTerm> surface_terms_[2];
};

}  // namespace ebem::soil
