// Image-series kernel: the physics core of the reproduction.
//
// Validation strategy (DESIGN.md §7): exact limits (uniform, kappa -> 0,
// H -> infinity), exact reciprocity, interface continuity, surface Neumann
// condition, and cross-validation against the independent Hankel oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.hpp"
#include "src/common/math_utils.hpp"
#include "src/soil/hankel_kernel.hpp"
#include "src/soil/image_series.hpp"

namespace ebem::soil {
namespace {

using geom::Vec3;

double uniform_reference(double gamma, Vec3 x, Vec3 xi) {
  const double direct =
      std::sqrt(square(x.x - xi.x) + square(x.y - xi.y) + square(x.z - xi.z));
  const double mirror =
      std::sqrt(square(x.x - xi.x) + square(x.y - xi.y) + square(x.z + xi.z));
  return (1.0 / direct + 1.0 / mirror) / (4.0 * kPi * gamma);
}

TEST(ImageKernel, UniformSoilHasExactlyTwoSummands) {
  const ImageKernel kernel(LayeredSoil::uniform(0.02));
  EXPECT_EQ(kernel.terms(0, 0).size(), 2u);
}

TEST(ImageKernel, UniformSoilMatchesClassicalMirrorFormula) {
  const double gamma = 0.016;
  const ImageKernel kernel(LayeredSoil::uniform(gamma));
  const Vec3 xi{0, 0, -0.8};
  for (const Vec3 x : {Vec3{3, 0, -0.5}, Vec3{0, 10, -2.0}, Vec3{1, 1, 0.0}, Vec3{-4, 2, -0.8}}) {
    EXPECT_NEAR(kernel.evaluate(x, xi), uniform_reference(gamma, x, xi), 1e-14);
  }
}

TEST(ImageKernel, EqualLayersCollapseToUniform) {
  const double gamma = 0.01;
  const ImageKernel two(LayeredSoil::two_layer(gamma, gamma, 1.0));
  const ImageKernel one(LayeredSoil::uniform(gamma));
  // Pick points in every layer combination; kappa = 0 must reproduce the
  // uniform kernel exactly.
  const Vec3 sources[] = {{0, 0, -0.5}, {0, 0, -2.5}};
  const Vec3 fields[] = {{2, 1, -0.3}, {2, 1, -3.0}, {5, 0, 0.0}};
  for (const Vec3& xi : sources) {
    for (const Vec3& x : fields) {
      EXPECT_NEAR(two.evaluate(x, xi), one.evaluate(x, xi), 1e-13)
          << "xi.z=" << xi.z << " x.z=" << x.z;
    }
  }
}

TEST(ImageKernel, DeepInterfaceApproachesUniformUpperLayer) {
  // The n >= 1 images sit at distances ~ 2nH, so the deviation from the
  // uniform kernel falls like 1/H: check monotone decay and the far limit.
  const ImageKernel uniform(LayeredSoil::uniform(0.01));
  const Vec3 xi{0, 0, -0.8};
  const Vec3 x{4, 0, -0.5};
  const double reference = uniform.evaluate(x, xi);
  double previous_error = 1e300;
  for (double h : {20.0, 200.0, 2000.0}) {
    const ImageKernel layered(LayeredSoil::two_layer(0.01, 0.05, h));
    const double error = std::abs(layered.evaluate(x, xi) - reference) / reference;
    EXPECT_LT(error, previous_error) << h;
    previous_error = error;
  }
  EXPECT_LT(previous_error, 3e-3);
}

struct LayerCase {
  Vec3 x;
  Vec3 xi;
  const char* name;
};

class ImageVsHankel : public ::testing::TestWithParam<LayerCase> {};

TEST_P(ImageVsHankel, CrossValidatesAgainstHankelOracle) {
  const LayerCase& c = GetParam();
  // Barbera-like contrast (kappa ~ -0.52).
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const ImageKernel image(soil, {1e-12, 4096});
  const HankelKernel hankel(soil);
  const double a = image.evaluate(c.x, c.xi);
  const double b = hankel.evaluate(c.x, c.xi);
  EXPECT_NEAR(a, b, 1e-6 * std::abs(b)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    LayerCombinations, ImageVsHankel,
    ::testing::Values(LayerCase{{3, 0, -0.5}, {0, 0, -0.8}, "upper_to_upper"},
                      LayerCase{{2, 1, -2.5}, {0, 0, -0.8}, "upper_to_lower"},
                      LayerCase{{2, 1, -0.5}, {0, 0, -1.8}, "lower_to_upper"},
                      LayerCase{{2, 1, -2.0}, {0, 0, -1.5}, "lower_to_lower"},
                      LayerCase{{5, 0, 0.0}, {0, 0, -0.8}, "surface_field"},
                      LayerCase{{0.5, 0, -0.9}, {0, 0, -0.95}, "near_interface"},
                      LayerCase{{20, 5, 0.0}, {0, 0, -2.5}, "far_surface_deep_source"}),
    [](const auto& info) { return info.param.name; });

TEST(ImageKernel, PositiveContrastAlsoMatchesHankel) {
  // Conductive-over-resistive (kappa > 0), the Balaidos B/C sign.
  const LayeredSoil soil = LayeredSoil::two_layer(0.02, 0.0025, 0.7);
  const ImageKernel image(soil, {1e-12, 4096});
  const HankelKernel hankel(soil);
  for (const auto& [x, xi] :
       {std::pair{Vec3{2, 0, -0.4}, Vec3{0, 0, -0.5}}, {Vec3{2, 0, -1.4}, Vec3{0, 0, -0.5}},
        {Vec3{2, 0, -0.4}, Vec3{0, 0, -1.5}}, {Vec3{2, 0, -2.4}, Vec3{0, 0, -1.5}}}) {
    EXPECT_NEAR(image.evaluate(x, xi), hankel.evaluate(x, xi),
                3e-6 * std::abs(hankel.evaluate(x, xi)));
  }
}

class ReciprocityCase : public ::testing::TestWithParam<std::pair<Vec3, Vec3>> {};

TEST_P(ReciprocityCase, GreensFunctionIsSymmetric) {
  const auto& [x, xi] = GetParam();
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const ImageKernel kernel(soil, {1e-14, 8192});
  const double forward = kernel.evaluate(x, xi);
  const double backward = kernel.evaluate(xi, x);
  EXPECT_NEAR(forward, backward, 1e-12 * std::abs(forward));
}

INSTANTIATE_TEST_SUITE_P(PointPairs, ReciprocityCase,
                         ::testing::Values(std::pair{Vec3{3, 0, -0.5}, Vec3{0, 0, -0.8}},
                                           std::pair{Vec3{2, 1, -2.5}, Vec3{0, 0, -0.8}},
                                           std::pair{Vec3{2, 1, -2.0}, Vec3{0, 1, -1.5}},
                                           std::pair{Vec3{0.3, 0.3, -0.99}, Vec3{0, 0, -1.01}}));

TEST(ImageKernel, PotentialContinuousAcrossInterface) {
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const ImageKernel kernel(soil, {1e-13, 8192});
  const Vec3 xi{0, 0, -0.8};
  for (double rho : {0.5, 2.0, 10.0}) {
    const double above = kernel.evaluate({rho, 0, -1.0 + 1e-9}, xi);
    const double below = kernel.evaluate({rho, 0, -1.0 - 1e-9}, xi);
    EXPECT_NEAR(above, below, 1e-6 * std::abs(above)) << rho;
  }
}

TEST(ImageKernel, CurrentFluxContinuousAcrossInterface) {
  // gamma_1 dV1/dz == gamma_2 dV2/dz at the interface (finite differences).
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const ImageKernel kernel(soil, {1e-13, 8192});
  const Vec3 xi{0, 0, -0.8};
  const double h = 1e-6;
  for (double rho : {1.0, 4.0}) {
    const double grad_up =
        (kernel.evaluate({rho, 0, -1.0 + 2 * h}, xi) - kernel.evaluate({rho, 0, -1.0 + h}, xi)) /
        h;
    const double grad_dn =
        (kernel.evaluate({rho, 0, -1.0 - h}, xi) - kernel.evaluate({rho, 0, -1.0 - 2 * h}, xi)) /
        h;
    const double flux_up = 0.005 * grad_up;
    const double flux_dn = 0.016 * grad_dn;
    EXPECT_NEAR(flux_up, flux_dn, 2e-3 * std::abs(flux_up)) << rho;
  }
}

TEST(ImageKernel, SurfaceTermsFoldEveryImageWithItsSurfaceMirror) {
  // At z = 0 an image and its mirror across the surface are equidistant
  // from the field point: the folded family keeps one of each pair with the
  // summed weight, so it halves the series and sums the same potential.
  for (const LayeredSoil& soil :
       {LayeredSoil::uniform(0.01), LayeredSoil::two_layer(1.0 / 200.0, 1.0 / 50.0, 1.5)}) {
    const ImageKernel kernel(soil);
    for (std::size_t b = 0; b < soil.layer_count(); ++b) {
      const std::vector<ImageTerm>& full = kernel.terms(b, 0);
      const std::vector<ImageTerm>& folded = kernel.surface_terms(b);
      EXPECT_EQ(2 * folded.size(), full.size()) << "source layer " << b;
      const Vec3 xi{0.3, -0.2, b == 0 ? -0.8 : -2.4};
      const Vec3 x{4.0, 1.5, 0.0};
      double full_sum = 0.0;
      double folded_sum = 0.0;
      for (const ImageTerm& t : full) {
        full_sum += t.weight / distance(x, {xi.x, xi.y, t.mirror * xi.z + t.offset});
      }
      for (const ImageTerm& t : folded) {
        folded_sum += t.weight / distance(x, {xi.x, xi.y, t.mirror * xi.z + t.offset});
      }
      EXPECT_NEAR(folded_sum, full_sum, 1e-14 * std::abs(full_sum)) << "source layer " << b;
    }
  }
}

TEST(ImageKernel, SurfaceIsInsulating) {
  // dV/dz = 0 at z = 0 (air is a perfect insulator): central difference of
  // the even extension vanishes by construction, so probe one-sided.
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const ImageKernel kernel(soil, {1e-13, 8192});
  const Vec3 xi{0, 0, -0.8};
  const double h = 1e-4;
  for (double rho : {1.0, 5.0}) {
    const double v0 = kernel.evaluate({rho, 0, 0.0}, xi);
    const double v1 = kernel.evaluate({rho, 0, -h}, xi);
    const double v2 = kernel.evaluate({rho, 0, -2 * h}, xi);
    // One-sided second-order derivative estimate at the surface.
    const double dv_dz = (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * h);
    EXPECT_NEAR(dv_dz / v0, 0.0, 1e-4) << rho;
  }
}

TEST(ImageKernel, KernelDecaysWithDistance) {
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const ImageKernel kernel(soil);
  const Vec3 xi{0, 0, -0.8};
  double previous = kernel.evaluate({1, 0, 0}, xi);
  for (double rho : {2.0, 5.0, 10.0, 50.0, 200.0}) {
    const double v = kernel.evaluate({rho, 0, 0}, xi);
    EXPECT_LT(v, previous);
    previous = v;
  }
}

TEST(ImageKernel, FarFieldSeesEffectiveHalfSpace) {
  // Far from a shallow source the two-layer response approaches the lower
  // half-space response: V ~ 1/(2 pi gamma_2 r).
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const ImageKernel kernel(soil, {1e-12, 4096});
  const Vec3 xi{0, 0, -0.8};
  const double r = 2000.0;
  const double v = kernel.evaluate({r, 0, 0}, xi);
  const double expected = 1.0 / (2.0 * kPi * 0.016 * r);
  EXPECT_NEAR(v, expected, 0.05 * expected);
}

TEST(ImageKernel, RegularizedEvaluationBoundsSingularity) {
  const ImageKernel kernel(LayeredSoil::uniform(0.01));
  const Vec3 xi{0, 0, -1.0};
  // On the source point the regularized kernel stays finite: the direct
  // term becomes 1/radius and the mirror sits at the regularized distance
  // sqrt(radius^2 + (2 z_s)^2).
  const double v = kernel.evaluate_regularized(xi, xi, 0.01);
  EXPECT_TRUE(std::isfinite(v));
  const double expected =
      (1.0 / 0.01 + 1.0 / std::sqrt(0.01 * 0.01 + 4.0)) / (4.0 * kPi * 0.01);
  EXPECT_NEAR(v, expected, 1e-9);
}

TEST(ImageKernel, TruncationFollowsTolerance) {
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const ImageKernel loose(soil, {1e-3, 4096});
  const ImageKernel tight(soil, {1e-12, 4096});
  EXPECT_LT(loose.terms(0, 0).size(), tight.terms(0, 0).size());
  // Values agree within the looser tolerance.
  const Vec3 x{2, 0, -0.5};
  const Vec3 xi{0, 0, -0.8};
  EXPECT_NEAR(loose.evaluate(x, xi), tight.evaluate(x, xi), 2e-3 * tight.evaluate(x, xi));
}

TEST(ImageKernel, MaxReflectionsCapsSeriesLength) {
  const LayeredSoil soil = LayeredSoil::two_layer(0.0025, 0.02, 1.0);  // |kappa| ~ 0.78
  const ImageKernel capped(soil, {1e-15, 5});
  // b=0,c=0 family: 2 + 4 * n_max terms.
  EXPECT_EQ(capped.terms(0, 0).size(), 2u + 4u * 5u);
}

TEST(ImageKernel, UpperToLowerFamilySizes) {
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const ImageKernel kernel(soil, {1e-9, 4096});
  // Same-layer upper family has ~2x the images per reflection of the
  // cross-layer families — the cost asymmetry behind Table 6.3's model C.
  EXPECT_GT(kernel.terms(0, 0).size(), kernel.terms(0, 1).size());
  EXPECT_GT(kernel.terms(0, 0).size(), kernel.terms(1, 1).size());
}

TEST(ImageKernel, ThreeLayersRejected) {
  const LayeredSoil soil({Layer{0.01, 1.0}, Layer{0.005, 1.0}, Layer{0.02, 0.0}});
  EXPECT_THROW(ImageKernel{soil}, ebem::InvalidArgument);
}

TEST(ImageKernel, InvalidOptionsRejected) {
  const LayeredSoil soil = LayeredSoil::uniform(0.01);
  EXPECT_THROW(ImageKernel(soil, {0.0, 100}), ebem::InvalidArgument);
  EXPECT_THROW(ImageKernel(soil, {1e-9, 0}), ebem::InvalidArgument);
}

}  // namespace
}  // namespace ebem::soil
