// Geometry primitives and grid builders.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.hpp"
#include "src/common/math_utils.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/vec3.hpp"

namespace ebem::geom {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(2.0 * a, (Vec3{2, 4, 6}));
  EXPECT_EQ(a / 2.0, (Vec3{0.5, 1, 1.5}));
}

TEST(Vec3, DotCrossNorm) {
  const Vec3 x{1, 0, 0};
  const Vec3 y{0, 1, 0};
  EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
  EXPECT_EQ(cross(x, y), (Vec3{0, 0, 1}));
  EXPECT_DOUBLE_EQ(norm(Vec3{3, 4, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance(Vec3{1, 1, 1}, Vec3{1, 1, 4}), 3.0);
}

TEST(Vec3, NormalizedRejectsZero) {
  EXPECT_THROW((void)normalized(Vec3{}), InvalidArgument);
  const Vec3 u = normalized(Vec3{0, 0, 5});
  EXPECT_DOUBLE_EQ(u.z, 1.0);
}

TEST(Conductor, LengthMidpointArea) {
  const Conductor c{{0, 0, -1}, {4, 0, -1}, 0.01};
  EXPECT_DOUBLE_EQ(c.length(), 4.0);
  EXPECT_EQ(c.midpoint(), (Vec3{2, 0, -1}));
  EXPECT_NEAR(c.surface_area(), 2.0 * kPi * 0.01 * 4.0, 1e-12);
}

TEST(RectGrid, ConductorCountAndLength) {
  RectGridSpec spec;
  spec.length_x = 80.0;
  spec.length_y = 60.0;
  spec.cells_x = 8;
  spec.cells_y = 6;
  const auto grid = make_rect_grid(spec);
  // x-parallel: (cells_y+1) rows of cells_x pieces; y-parallel symmetric.
  EXPECT_EQ(grid.size(), (6u + 1) * 8u + (8u + 1) * 6u);
  EXPECT_NEAR(total_length(grid), 7.0 * 80.0 + 9.0 * 60.0, 1e-9);
}

TEST(RectGrid, AllConductorsAtDepth) {
  RectGridSpec spec;
  spec.length_x = 10.0;
  spec.length_y = 10.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  spec.depth = 0.8;
  for (const Conductor& c : make_rect_grid(spec)) {
    EXPECT_DOUBLE_EQ(c.a.z, -0.8);
    EXPECT_DOUBLE_EQ(c.b.z, -0.8);
  }
}

TEST(RectGrid, ValidatesInput) {
  RectGridSpec spec;  // zero extents
  EXPECT_THROW(make_rect_grid(spec), InvalidArgument);
  spec.length_x = 1.0;
  spec.length_y = 1.0;
  spec.depth = -1.0;
  EXPECT_THROW(make_rect_grid(spec), InvalidArgument);
}

TEST(TriangularGrid, EveryEndpointInsideTriangle) {
  TriangularGridSpec spec;
  spec.leg_x = 89.0;
  spec.leg_y = 143.0;
  spec.cells_x = 10;
  spec.cells_y = 16;
  for (const Conductor& c : make_triangular_grid(spec)) {
    for (const Vec3& p : {c.a, c.b}) {
      EXPECT_LE(p.x / spec.leg_x + p.y / spec.leg_y, 1.0 + 1e-6);
      EXPECT_GE(p.x, -1e-9);
      EXPECT_GE(p.y, -1e-9);
    }
  }
}

TEST(TriangularGrid, CoversRoughlyHalfTheRectangleLength) {
  TriangularGridSpec spec;
  spec.leg_x = 100.0;
  spec.leg_y = 100.0;
  spec.cells_x = 10;
  spec.cells_y = 10;
  const auto tri = make_triangular_grid(spec);
  RectGridSpec rect;
  rect.length_x = 100.0;
  rect.length_y = 100.0;
  rect.cells_x = 10;
  rect.cells_y = 10;
  const double rect_length = total_length(make_rect_grid(rect));
  const double tri_length = total_length(tri);
  // Triangle holds ~half the bars plus the hypotenuse.
  EXPECT_GT(tri_length, 0.45 * rect_length);
  EXPECT_LT(tri_length, 0.75 * rect_length);
}

TEST(TriangularGrid, NoDegenerateConductors) {
  TriangularGridSpec spec;
  spec.leg_x = 89.0;
  spec.leg_y = 143.0;
  spec.cells_x = 15;
  spec.cells_y = 24;
  for (const Conductor& c : make_triangular_grid(spec)) {
    EXPECT_GT(c.length(), 1e-6);
  }
}

TEST(Rods, AppendedAtRequestedPositions) {
  std::vector<Conductor> grid;
  RodSpec rod;
  rod.length = 1.5;
  rod.radius = 0.007;
  add_rods(grid, {{1.0, 2.0, 0.0}, {3.0, 4.0, 0.0}}, 0.8, rod);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].a, (Vec3{1.0, 2.0, -0.8}));
  EXPECT_EQ(grid[0].b, (Vec3{1.0, 2.0, -2.3}));
  EXPECT_DOUBLE_EQ(grid[1].length(), 1.5);
}

TEST(Rods, PerimeterPositionsLieOnPerimeter) {
  RectGridSpec spec;
  spec.length_x = 40.0;
  spec.length_y = 20.0;
  const auto positions = perimeter_rod_positions(spec, 12);
  ASSERT_EQ(positions.size(), 12u);
  for (const Vec3& p : positions) {
    const bool on_x_edge = almost_equal(p.y, 0.0, 0, 1e-9) || almost_equal(p.y, 20.0, 0, 1e-9);
    const bool on_y_edge = almost_equal(p.x, 0.0, 0, 1e-9) || almost_equal(p.x, 40.0, 0, 1e-9);
    EXPECT_TRUE(on_x_edge || on_y_edge) << p.x << "," << p.y;
  }
}

TEST(GridStats, ReportsCountsAndBounds) {
  RectGridSpec spec;
  spec.length_x = 10.0;
  spec.length_y = 20.0;
  spec.cells_x = 1;
  spec.cells_y = 2;
  spec.depth = 0.5;
  const auto grid = make_rect_grid(spec);
  const GridStats stats = grid_stats(grid);
  EXPECT_EQ(stats.conductor_count, grid.size());
  EXPECT_NEAR(stats.total_length, 3.0 * 10.0 + 2.0 * 20.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.min_z, -0.5);
  EXPECT_DOUBLE_EQ(stats.max_z, -0.5);
  EXPECT_NEAR(stats.area_bbox, 200.0, 1e-9);
}

}  // namespace
}  // namespace ebem::geom
