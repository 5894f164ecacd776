// Netlist optimization: equivalence preservation, gate-count reduction,
// specific folding rules, idempotence.
#include <gtest/gtest.h>

#include <string>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/gear/gear.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/rtl/optimize.hpp"
#include "sealpaa/rtl/synth.hpp"

namespace {

using sealpaa::adders::accurate;
using sealpaa::adders::lpaa;
using sealpaa::multibit::AdderChain;
using sealpaa::rtl::GateKind;
using sealpaa::rtl::Netlist;
using sealpaa::rtl::optimize;
using sealpaa::rtl::synthesize_cell;
using sealpaa::rtl::synthesize_chain;

/// "i3"-style port name.  Built by appending: gcc 12 reports a false
/// -Wrestrict on "literal" + std::string&&.
std::string indexed(const char* prefix, int i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

void expect_equivalent(const Netlist& a, const Netlist& b,
                       std::uint64_t seed) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  sealpaa::prob::Xoshiro256StarStar rng(seed);
  const std::size_t trials =
      a.inputs().size() <= 10 ? (1ULL << a.inputs().size()) : 300;
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<bool> inputs;
    for (std::size_t i = 0; i < a.inputs().size(); ++i) {
      const bool bit = a.inputs().size() <= 10 ? ((t >> i) & 1ULL) != 0
                                               : rng.bernoulli(0.5);
      inputs.push_back(bit);
    }
    EXPECT_EQ(a.evaluate(inputs), b.evaluate(inputs)) << "trial " << t;
  }
}

TEST(Optimize, PreservesEveryCellFunction) {
  for (const auto& cell : sealpaa::adders::all_builtin_cells()) {
    const Netlist raw = synthesize_cell(cell);
    const Netlist opt = optimize(raw);
    expect_equivalent(raw, opt, 601);
    EXPECT_LE(opt.logic_gate_count(), raw.logic_gate_count()) << cell.name();
  }
}

TEST(Optimize, PreservesChainsAndGear) {
  const Netlist chain =
      synthesize_chain(AdderChain::homogeneous(lpaa(2), 6));
  expect_equivalent(chain, optimize(chain), 607);

  const Netlist gear =
      sealpaa::rtl::synthesize_gear(sealpaa::gear::GearConfig(8, 2, 2));
  expect_equivalent(gear, optimize(gear), 613);
}

TEST(Optimize, SharesCommonSubexpressions) {
  Netlist netlist;
  const int a = netlist.add_input("a");
  const int b = netlist.add_input("b");
  const int x1 = netlist.add_binary(GateKind::And, a, b);
  const int x2 = netlist.add_binary(GateKind::And, b, a);  // commuted dup
  const int y = netlist.add_binary(GateKind::Or, x1, x2);  // Or(x, x) -> x
  netlist.set_output("y", y);
  const Netlist opt = optimize(netlist);
  EXPECT_EQ(opt.logic_gate_count(), 1u);  // single AND survives
  expect_equivalent(netlist, opt, 617);
}

TEST(Optimize, FoldsConstantsAndIdentities) {
  Netlist netlist;
  const int a = netlist.add_input("a");
  const int zero = netlist.add_const(false);
  const int one = netlist.add_const(true);
  const int and0 = netlist.add_binary(GateKind::And, a, zero);  // -> 0
  const int or0 = netlist.add_binary(GateKind::Or, a, zero);    // -> a
  const int xor1 = netlist.add_binary(GateKind::Xor, a, one);   // -> !a
  const int xorself = netlist.add_binary(GateKind::Xor, a, a);  // -> 0
  netlist.set_output("and0", and0);
  netlist.set_output("or0", or0);
  netlist.set_output("xor1", xor1);
  netlist.set_output("xorself", xorself);
  const Netlist opt = optimize(netlist);
  EXPECT_EQ(opt.logic_gate_count(), 1u);  // just the NOT
  expect_equivalent(netlist, opt, 619);
}

TEST(Optimize, EliminatesDoubleNegationAndBuffers) {
  Netlist netlist;
  const int a = netlist.add_input("a");
  const int n1 = netlist.add_unary(GateKind::Not, a);
  const int n2 = netlist.add_unary(GateKind::Not, n1);
  const int buf = netlist.add_unary(GateKind::Buf, n2);
  netlist.set_output("y", buf);
  const Netlist opt = optimize(netlist);
  EXPECT_EQ(opt.logic_gate_count(), 0u);
  expect_equivalent(netlist, opt, 631);
}

TEST(Optimize, RemovesDeadLogicKeepsPorts) {
  Netlist netlist;
  const int a = netlist.add_input("a");
  const int b = netlist.add_input("b");
  (void)netlist.add_binary(GateKind::Xor, a, b);  // dead
  const int live = netlist.add_binary(GateKind::And, a, b);
  netlist.set_output("y", live);
  const Netlist opt = optimize(netlist);
  EXPECT_EQ(opt.logic_gate_count(), 1u);
  EXPECT_EQ(opt.inputs().size(), 2u);  // unused port b survives
}

TEST(Optimize, Idempotent) {
  const Netlist raw = synthesize_cell(lpaa(3));
  const Netlist once = optimize(raw);
  const Netlist twice = optimize(once);
  EXPECT_EQ(once.logic_gate_count(), twice.logic_gate_count());
  EXPECT_EQ(once.gate_count(), twice.gate_count());
  expect_equivalent(once, twice, 641);
}

TEST(Optimize, RandomNetlistFuzz) {
  sealpaa::prob::Xoshiro256StarStar rng(643);
  for (int trial = 0; trial < 20; ++trial) {
    Netlist netlist;
    std::vector<int> nets;
    for (int i = 0; i < 4; ++i) {
      nets.push_back(netlist.add_input(indexed("i", i)));
    }
    nets.push_back(netlist.add_const(false));
    nets.push_back(netlist.add_const(true));
    for (int g = 0; g < 40; ++g) {
      const auto pick = [&] {
        return nets[rng.next() % nets.size()];
      };
      const int choice = static_cast<int>(rng.next() % 5);
      switch (choice) {
        case 0:
          nets.push_back(netlist.add_unary(GateKind::Not, pick()));
          break;
        case 1:
          nets.push_back(netlist.add_unary(GateKind::Buf, pick()));
          break;
        case 2:
          nets.push_back(netlist.add_binary(GateKind::And, pick(), pick()));
          break;
        case 3:
          nets.push_back(netlist.add_binary(GateKind::Or, pick(), pick()));
          break;
        default:
          nets.push_back(netlist.add_binary(GateKind::Xor, pick(), pick()));
          break;
      }
    }
    for (int o = 0; o < 3; ++o) {
      netlist.set_output(indexed("o", o),
                         nets[nets.size() - 1 - static_cast<std::size_t>(o)]);
    }
    const Netlist opt = optimize(netlist);
    expect_equivalent(netlist, opt,
                      700 + static_cast<std::uint64_t>(trial));
    EXPECT_LE(opt.logic_gate_count(), netlist.logic_gate_count());
  }
}

}  // namespace
