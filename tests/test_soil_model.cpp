// Layered soil model bookkeeping.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::soil {
namespace {

TEST(LayeredSoil, UniformBasics) {
  const LayeredSoil soil = LayeredSoil::uniform(0.016);
  EXPECT_EQ(soil.layer_count(), 1u);
  EXPECT_TRUE(soil.is_uniform());
  EXPECT_DOUBLE_EQ(soil.conductivity(0), 0.016);
  EXPECT_DOUBLE_EQ(soil.resistivity(0), 62.5);
  EXPECT_EQ(soil.layer_of(-100.0), 0u);
  EXPECT_EQ(soil.layer_of(0.0), 0u);
}

TEST(LayeredSoil, TwoLayerLayerOf) {
  const LayeredSoil soil = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  EXPECT_EQ(soil.layer_count(), 2u);
  EXPECT_FALSE(soil.is_uniform());
  EXPECT_EQ(soil.layer_of(-0.5), 0u);
  EXPECT_EQ(soil.layer_of(-1.0), 0u);  // interface belongs to the upper layer
  EXPECT_EQ(soil.layer_of(-1.0001), 1u);
  EXPECT_EQ(soil.layer_of(-50.0), 1u);
  EXPECT_DOUBLE_EQ(soil.interface_depth(0), 1.0);
}

TEST(LayeredSoil, ReflectionCoefficientSignAndRange) {
  // gamma_1 < gamma_2 (resistive over conductive): kappa < 0.
  const LayeredSoil barbera = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  EXPECT_NEAR(barbera.reflection_coefficient(), (0.005 - 0.016) / (0.005 + 0.016), 1e-15);
  EXPECT_LT(barbera.reflection_coefficient(), 0.0);
  // Conductive over resistive: kappa > 0.
  const LayeredSoil inverse = LayeredSoil::two_layer(0.016, 0.005, 1.0);
  EXPECT_GT(inverse.reflection_coefficient(), 0.0);
  // Equal layers: kappa = 0.
  const LayeredSoil equal = LayeredSoil::two_layer(0.01, 0.01, 1.0);
  EXPECT_DOUBLE_EQ(equal.reflection_coefficient(), 0.0);
  // |kappa| < 1 always.
  EXPECT_LT(std::abs(barbera.reflection_coefficient()), 1.0);
}

TEST(LayeredSoil, ThreeLayerStack) {
  const LayeredSoil soil({Layer{0.01, 1.0}, Layer{0.005, 2.0}, Layer{0.02, 0.0}});
  EXPECT_EQ(soil.layer_count(), 3u);
  EXPECT_DOUBLE_EQ(soil.interface_depth(0), 1.0);
  EXPECT_DOUBLE_EQ(soil.interface_depth(1), 3.0);
  EXPECT_EQ(soil.layer_of(-0.5), 0u);
  EXPECT_EQ(soil.layer_of(-2.0), 1u);
  EXPECT_EQ(soil.layer_of(-3.5), 2u);
}

TEST(LayeredSoil, Validation) {
  EXPECT_THROW(LayeredSoil({}), ebem::InvalidArgument);
  EXPECT_THROW(LayeredSoil::uniform(0.0), ebem::InvalidArgument);
  EXPECT_THROW(LayeredSoil::uniform(-1.0), ebem::InvalidArgument);
  EXPECT_THROW(LayeredSoil::two_layer(0.01, 0.02, 0.0), ebem::InvalidArgument);
  EXPECT_THROW(LayeredSoil({Layer{0.01, 0.0}, Layer{0.02, 0.0}}), ebem::InvalidArgument);
}

TEST(LayeredSoil, LayerOfRejectsAirPoints) {
  const LayeredSoil soil = LayeredSoil::uniform(0.01);
  EXPECT_THROW((void)soil.layer_of(1.0), ebem::InvalidArgument);
}

TEST(LayeredSoil, ReflectionCoefficientRequiresTwoLayers) {
  EXPECT_THROW((void)LayeredSoil::uniform(0.01).reflection_coefficient(), ebem::InvalidArgument);
}

}  // namespace
}  // namespace ebem::soil
