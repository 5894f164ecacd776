// Extension X9: head-to-head of the three approximate-adder *families*
// the paper touches — cell-level LPAA chains (§2.1), block-level LLAA
// (GeAr, §2.2) and the segmented LOA — at comparable approximation
// degrees, all analyzed exactly (no simulation anywhere in this table).
#include <iostream>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/joint.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/gear/gear.hpp"
#include "sealpaa/multibit/loa.hpp"
#include "sealpaa/util/format.hpp"
#include "sealpaa/util/table.hpp"

int main() {
  using namespace sealpaa;
  const std::size_t bits = 16;
  const auto profile = multibit::InputProfile::uniform_with_cin(bits, 0.5, 0.0);

  std::cout << util::banner(
      "X9: LPAA chains vs GeAr vs LOA at 16 bits, p = 0.5 (all exact "
      "analysis)");

  util::TextTable table({"Design", "Family", "P(E) value-level",
                         "Critical path (bits/levels)"});
  table.set_align(2, util::Align::Right);
  table.set_align(3, util::Align::Right);

  // Cell-level: LPAA6 on the k LSBs, exact above (k = 4, 8).
  for (int k : {4, 8}) {
    std::vector<adders::AdderCell> stages;
    for (int i = 0; i < k; ++i) stages.push_back(adders::lpaa(6));
    for (int i = k; i < static_cast<int>(bits); ++i) {
      stages.push_back(adders::accurate());
    }
    const multibit::AdderChain chain(stages);
    const auto joint = analysis::JointCarryAnalyzer::analyze(chain, profile);
    table.add_row({"LPAA6 x" + std::to_string(k) + " | AccuFA above",
                   "cell-level LPAA",
                   util::prob6(1.0 - joint.p_value_correct),
                   std::to_string(bits) + " (full ripple)"});
  }

  // Block-level: GeAr configurations with matching carry chains.
  for (const gear::GearConfig& config :
       {gear::GearConfig(16, 2, 2), gear::GearConfig(16, 4, 4),
        gear::GearConfig::aca(16, 6), gear::GearConfig::etaii(16, 8)}) {
    const auto analysis = gear::GearAnalyzer::analyze(config, profile);
    table.add_row({config.describe(), "block-level LLAA",
                   util::prob6(analysis.p_error_exact_dp),
                   std::to_string(config.critical_path_bits())});
  }

  // Segmented: LOA with l approximate low bits, the chain
  // OR^l · AccuFA^(16-l) (the profile's carry-in is 0, as LOA has none).
  for (std::size_t l : {4u, 8u, 12u}) {
    const auto joint = analysis::JointCarryAnalyzer::analyze(
        multibit::loa_chain(bits, l), profile);
    table.add_row({"LOA(16, l=" + std::to_string(l) + ")", "segmented",
                   util::prob6(1.0 - joint.p_value_correct),
                   std::to_string(bits - l) + " + OR"});
  }

  std::cout << table;
  std::cout << "\nAll three families reduce to exact O(N) dynamic programs "
               "in this library: M/K/L recursion for cell-level, the "
               "joint-carry window DP for GeAr/ACA/ETAII, and for LOA, the "
               "cell chain OR^l | AccuFA above, the joint-carry chain DP "
               "the LPAA rows use.  GeAr buys far lower P(E) per unit of "
               "critical-path reduction; LOA buys area/power instead (its "
               "OR part has no carry logic at all).\n";
  return 0;
}
