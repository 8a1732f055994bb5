// Tests for the common substrate: contracts, timers, phase report.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/error.hpp"
#include "src/common/math_utils.hpp"
#include "src/common/phase_report.hpp"
#include "src/common/timer.hpp"

namespace ebem {
namespace {

TEST(Error, ExpectThrowsInvalidArgument) {
  EXPECT_THROW(EBEM_EXPECT(false, "boom"), InvalidArgument);
  EXPECT_NO_THROW(EBEM_EXPECT(true, "fine"));
}

TEST(Error, EnsureThrowsInternalError) {
  EXPECT_THROW(EBEM_ENSURE(false, "bug"), InternalError);
  EXPECT_NO_THROW(EBEM_ENSURE(true, "fine"));
}

TEST(Error, MessageCarriesContext) {
  try {
    EBEM_EXPECT(1 == 2, "the message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(MathUtils, AlmostEqual) {
  EXPECT_TRUE(almost_equal(1.0, 1.0));
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-15));
  EXPECT_FALSE(almost_equal(1.0, 1.001));
  EXPECT_TRUE(almost_equal(0.0, 0.0));
  EXPECT_TRUE(almost_equal(1e308, 1e308));
}

TEST(MathUtils, Square) {
  EXPECT_DOUBLE_EQ(square(3.0), 9.0);
  EXPECT_DOUBLE_EQ(square(-2.5), 6.25);
}

TEST(Timers, WallTimerAdvances) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(timer.seconds(), 0.005);
  timer.reset();
  EXPECT_LT(timer.seconds(), 0.5);
}

TEST(Timers, CpuTimerMeasuresWork) {
  CpuTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  EXPECT_GT(timer.seconds(), 0.0);
}

TEST(PhaseReport, AccumulatesAndTotals) {
  PhaseReport report;
  report.add(Phase::kMatrixGeneration, 2.0, 1.5);
  report.add(Phase::kMatrixGeneration, 1.0, 0.5);
  report.add(Phase::kLinearSolve, 0.25, 0.25);
  EXPECT_DOUBLE_EQ(report.wall_seconds(Phase::kMatrixGeneration), 3.0);
  EXPECT_DOUBLE_EQ(report.cpu_seconds(Phase::kMatrixGeneration), 2.0);
  EXPECT_DOUBLE_EQ(report.total_wall_seconds(), 3.25);
  EXPECT_DOUBLE_EQ(report.total_cpu_seconds(), 2.25);
}

TEST(PhaseReport, CpuFraction) {
  PhaseReport report;
  EXPECT_DOUBLE_EQ(report.cpu_fraction(Phase::kLinearSolve), 0.0);
  report.add(Phase::kMatrixGeneration, 0.0, 3.0);
  report.add(Phase::kLinearSolve, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(report.cpu_fraction(Phase::kMatrixGeneration), 0.75);
}

TEST(PhaseReport, ToStringNamesEveryPhase) {
  PhaseReport report;
  const std::string text = report.to_string();
  for (const char* name : {"Data Input", "Data Preprocessing", "Matrix Generation",
                           "Linear System Solving", "Results Storage", "Total"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(PhaseReport, CountersAccumulateByName) {
  PhaseReport report;
  EXPECT_DOUBLE_EQ(report.counter("Congruence cache hits"), 0.0);
  report.add_counter("Congruence cache hits", 100.0);
  report.add_counter("Congruence cache misses", 7.0);
  report.add_counter("Congruence cache hits", 23.0);
  EXPECT_DOUBLE_EQ(report.counter("Congruence cache hits"), 123.0);
  EXPECT_DOUBLE_EQ(report.counter("Congruence cache misses"), 7.0);
  ASSERT_EQ(report.counters().size(), 2u);
  // First-added order is preserved.
  EXPECT_EQ(report.counters()[0].first, "Congruence cache hits");
}

TEST(PhaseReport, ToStringIncludesCounters) {
  PhaseReport report;
  EXPECT_EQ(report.to_string().find("cache"), std::string::npos);
  report.add_counter("Congruence cache hits", 42.0);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("Congruence cache hits"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(PhaseReport, PhaseNames) {
  EXPECT_STREQ(phase_name(Phase::kDataInput), "Data Input");
  EXPECT_STREQ(phase_name(Phase::kResultsStorage), "Results Storage");
}

}  // namespace
}  // namespace ebem
