// Closed-form single-layer potential integrals over straight segments.
//
// These are the "highly efficient analytical integration techniques" of the
// paper (§4.2, ref [4]): for a field point P and a straight source segment,
// the inner integrals
//   I0 = Integral_0^L            dt / r(P, xi(t))
//   I1 = Integral_0^L        t * dt / r(P, xi(t))
// have closed forms once the kernel is regularized with the thin-wire
// radius, r = sqrt(|P - xi|^2 + a^2). Linear shape functions are linear
// combinations of I0 and I1, so every elemental coefficient of eq. (4.5)
// reduces to an outer quadrature over these closed forms — term by image
// term, because the image of a straight segment is a straight segment.
//
// The batched integrator evaluates one segment against many field points
// (all outer Gauss points of an element pair) in structure-of-arrays form,
// with a branch-free kernel that vectorizes (see src/common/simd.hpp):
// with t0 the axis coordinate of the perpendicular foot, u1 = L - t0,
// r0/r1 the distances to the segment ends and s = r0 + r1,
//   I0 = log((r1 + u1)/(r0 - t0)) = log1p(L * (A + C) / (s * A))
//   I1 = L * (L - 2 t0) / s + t0 * I0
// where A = r0 - t0 and C = r1 + u1 are each computed cancellation-free by
// switching to perp2 / (r + |.|) on the branch where the direct form
// cancels. The scalar segment_potentials is a batch of one of the same
// kernel, so batched and scalar results are identical by construction; the
// original asinh formulation is kept as segment_potentials_reference for
// cross-checks and as the benchmark baseline.
//
// The hottest call shape of all — every mirrored image of one source
// against every outer Gauss point — gets a dedicated fused entry: all
// images of a straight segment share its horizontal geometry (same x/y
// start, same horizontal axis, same length and radius), so a sweep is one
// shared base plus three small per-term arrays, and the per-point
// horizontal products are hoisted out of the term loop entirely.
#pragma once

#include <cstddef>
#include <vector>

#include "src/geom/vec3.hpp"

namespace ebem::bem {

/// Result of the analytic inner integration against a source segment.
struct SegmentPotentials {
  double i0 = 0.0;  ///< integral of 1/r
  double i1 = 0.0;  ///< integral of t/r (t = arc length from segment start)
};

/// Field-point-independent part of the segment integrals: unit axis, length
/// and squared regularization radius, computed once per (image) segment.
struct SegmentFrame {
  geom::Vec3 a;         ///< segment start
  geom::Vec3 u;         ///< unit axis (b - a) / |b - a|
  double length = 0.0;  ///< |b - a|
  double radius2 = 0.0; ///< thin-wire regularization radius squared
};

/// Precompute the frame of the segment `a`->`b` with regularization `radius`.
/// Throws if the segment is degenerate.
[[nodiscard]] SegmentFrame make_segment_frame(geom::Vec3 a, geom::Vec3 b, double radius);

/// Analytic I0, I1 for field point `p` against a precomputed segment frame.
/// Exactly a batch of one of segment_potentials_batch.
[[nodiscard]] SegmentPotentials segment_potentials(const SegmentFrame& frame, geom::Vec3 p);

/// Analytic I0, I1 for field point `p` against the segment `a`->`b` with
/// thin-wire regularization radius `radius` (> 0 for self/near interactions;
/// 0 is allowed when p is off the segment axis).
[[nodiscard]] SegmentPotentials segment_potentials(geom::Vec3 p, geom::Vec3 a, geom::Vec3 b,
                                                   double radius);

/// Batched analytic I0, I1: one segment frame against `count` field points
/// given in structure-of-arrays form. Vectorized; throws like the scalar
/// entry if any point lies on an unregularized axis (outputs are garbage in
/// that case — the exception is the result).
void segment_potentials_batch(const SegmentFrame& frame, const double* xs, const double* ys,
                              const double* zs, std::size_t count, double* out_i0,
                              double* out_i1);

/// The original asinh/sqrt formulation, kept as an independent cross-check
/// of the production kernel and as the "scalar" baseline of bench_kernels.
/// Agrees with segment_potentials to ~1e-14 relative away from the
/// conditioning edge (it, not the log1p form, loses digits for far points
/// beyond the segment ends).
[[nodiscard]] SegmentPotentials segment_potentials_reference(const SegmentFrame& frame,
                                                             geom::Vec3 p);

/// Structure-of-arrays description of every mirrored image of one straight
/// source segment. Images only remap z (z -> mirror * z + offset), so they
/// all share the base's x/y start, horizontal axis components, length and
/// regularization; the per-term state is the start depth, the signed
/// vertical axis component and the series weight.
struct ImageSegmentSweep {
  double ax = 0.0;      ///< base start x (shared by every image)
  double ay = 0.0;      ///< base start y
  double ux = 0.0;      ///< unit-axis x component (shared)
  double uy = 0.0;      ///< unit-axis y component
  double length = 0.0;
  double radius2 = 0.0;
  std::vector<double> az;      ///< per image: start depth, mirror * a.z + offset
  std::vector<double> muz;     ///< per image: mirror * u.z
  std::vector<double> weight;  ///< per image: series weight

  [[nodiscard]] std::size_t size() const { return az.size(); }

  void clear() {
    az.clear();
    muz.clear();
    weight.clear();
  }
};

/// Fused image-term sweep: accumulate the weighted inner integrals of every
/// image in `sweep` against `count` field points (SoA). For a linear basis,
///   acc0[q] += sum_t w_t * (I0 - I1/L)   (start-node shape integral)
///   acc1[q] += sum_t w_t * I1/L          (end-node shape integral)
/// and for a constant basis acc0[q] += sum_t w_t * I0 with acc1 untouched.
/// Throws like segment_potentials if any (image, point) pairing hits an
/// unregularized axis.
void accumulate_image_sweep(const ImageSegmentSweep& sweep, const double* xs, const double* ys,
                            const double* zs, std::size_t count, bool linear_basis,
                            double* acc0, double* acc1);

/// Reference sweep: same contract as accumulate_image_sweep, evaluated term
/// by term and point by point through segment_potentials_reference. This is
/// the pre-SIMD code path, selectable via IntegratorOptions::segment_eval —
/// the cross-check and the benchmark baseline, never the production path.
void accumulate_image_sweep_reference(const ImageSegmentSweep& sweep, const double* xs,
                                      const double* ys, const double* zs, std::size_t count,
                                      bool linear_basis, double* acc0, double* acc1);

/// Integral of the linear shape function attached to the start node
/// (N(t) = 1 - t/L) divided by r: I0 - I1 / L.
[[nodiscard]] inline double shape_start_integral(const SegmentPotentials& s, double length) {
  return s.i0 - s.i1 / length;
}

/// Integral of the linear shape function attached to the end node
/// (N(t) = t/L) divided by r: I1 / L.
[[nodiscard]] inline double shape_end_integral(const SegmentPotentials& s, double length) {
  return s.i1 / length;
}

}  // namespace ebem::bem
