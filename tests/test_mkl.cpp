// M/K/L matrix derivation vs the paper's Table 5, plus invariants.
#include <gtest/gtest.h>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/mkl.hpp"

namespace {

using sealpaa::adders::lpaa;
using sealpaa::analysis::MklMatrices;
using sealpaa::analysis::Vector8;

struct Table5Row {
  int lpaa;
  std::array<int, 8> m;
  std::array<int, 8> k;
  std::array<int, 8> l;
};

// Verbatim from the paper's Table 5.
const Table5Row kTable5[] = {
    {1, {0, 0, 0, 1, 0, 1, 1, 1}, {1, 1, 0, 0, 0, 0, 0, 0}, {1, 1, 0, 1, 0, 1, 1, 1}},
    {2, {0, 0, 0, 1, 0, 1, 1, 0}, {0, 1, 1, 0, 1, 0, 0, 0}, {0, 1, 1, 1, 1, 1, 1, 0}},
    {3, {0, 0, 0, 1, 0, 1, 1, 0}, {0, 1, 0, 0, 1, 0, 0, 0}, {0, 1, 0, 1, 1, 1, 1, 0}},
    {4, {0, 0, 0, 0, 0, 1, 1, 1}, {1, 1, 0, 0, 0, 0, 0, 0}, {1, 1, 0, 0, 0, 1, 1, 1}},
    {5, {0, 0, 0, 0, 0, 1, 0, 1}, {1, 0, 1, 0, 0, 0, 0, 0}, {1, 0, 1, 0, 0, 1, 0, 1}},
    {6, {0, 0, 0, 1, 0, 1, 0, 1}, {1, 0, 1, 0, 1, 0, 0, 0}, {1, 0, 1, 1, 1, 1, 0, 1}},
    {7, {0, 0, 0, 0, 0, 0, 1, 1}, {1, 1, 1, 0, 1, 0, 0, 0}, {1, 1, 1, 0, 1, 0, 1, 1}},
};

void expect_vector(const Vector8& actual, const std::array<int, 8>& expected,
                   const std::string& what) {
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(actual[i], static_cast<double>(expected[i]))
        << what << " entry " << i;
  }
}

TEST(MklTable5, AllSevenLpaasMatchThePaper) {
  for (const Table5Row& row : kTable5) {
    const MklMatrices mkl = MklMatrices::from_cell(lpaa(row.lpaa));
    expect_vector(mkl.m, row.m, "LPAA" + std::to_string(row.lpaa) + " M");
    expect_vector(mkl.k, row.k, "LPAA" + std::to_string(row.lpaa) + " K");
    expect_vector(mkl.l, row.l, "LPAA" + std::to_string(row.lpaa) + " L");
  }
}

TEST(MklInvariants, LEqualsMPlusK) {
  for (const auto& cell : sealpaa::adders::all_builtin_cells()) {
    const MklMatrices mkl = MklMatrices::from_cell(cell);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_DOUBLE_EQ(mkl.l[i], mkl.m[i] + mkl.k[i])
          << cell.name() << " row " << i;
    }
  }
}

TEST(MklInvariants, AccurateCellHasAllOnesL) {
  const MklMatrices mkl =
      MklMatrices::from_cell(sealpaa::adders::accurate());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(mkl.l[i], 1.0);
  // M selects the majority-carry rows 3, 5, 6, 7.
  expect_vector(mkl.m, {0, 0, 0, 1, 0, 1, 1, 1}, "AccuFA M");
}

TEST(MklInvariants, OnesInLEqualEightMinusErrorCases) {
  for (const auto& cell : sealpaa::adders::all_builtin_cells()) {
    const MklMatrices mkl = MklMatrices::from_cell(cell);
    int ones = 0;
    for (double x : mkl.l) ones += x != 0.0 ? 1 : 0;
    EXPECT_EQ(ones, 8 - cell.error_case_count()) << cell.name();
  }
}

TEST(MklRender, PaperStyleString) {
  const MklMatrices mkl = MklMatrices::from_cell(lpaa(1));
  EXPECT_EQ(MklMatrices::render(mkl.m), "[0,0,0,1,0,1,1,1]");
  EXPECT_EQ(MklMatrices::render(mkl.k), "[1,1,0,0,0,0,0,0]");
  EXPECT_EQ(MklMatrices::render(mkl.l), "[1,1,0,1,0,1,1,1]");
}

TEST(Ipm, EntriesSumToSuccessMass) {
  using sealpaa::analysis::CarryState;
  using sealpaa::analysis::input_probability_matrix;
  using sealpaa::analysis::operand_weights;
  const CarryState carry{0.3, 0.45};  // deliberately < 1 total
  const Vector8 ipm =
      input_probability_matrix(operand_weights(0.7, 0.2), carry);
  double total = 0.0;
  for (double x : ipm) total += x;
  EXPECT_NEAR(total, carry.success_mass(), 1e-15);
}

TEST(Ipm, MatchesManualExpansionForPaperExampleStage0) {
  // Stage 0 of Table 4: P(A)=0.9, P(B)=0.8, carry (0.5, 0.5).
  using sealpaa::analysis::CarryState;
  using sealpaa::analysis::dot;
  using sealpaa::analysis::input_probability_matrix;
  using sealpaa::analysis::operand_weights;
  const Vector8 ipm = input_probability_matrix(operand_weights(0.9, 0.8),
                                               CarryState{0.5, 0.5});
  const MklMatrices mkl = MklMatrices::from_cell(lpaa(1));
  EXPECT_NEAR(dot(ipm, mkl.m), 0.85, 1e-12);
  EXPECT_NEAR(dot(ipm, mkl.k), 0.02, 1e-12);
}

}  // namespace
