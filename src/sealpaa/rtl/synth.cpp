#include "sealpaa/rtl/synth.hpp"

#include <array>
#include <string>

#include "sealpaa/adders/builtin.hpp"

namespace sealpaa::rtl {

namespace detail {

namespace {

// Lazily materialised input literal: the complement gate is only created
// if some column actually uses it, so wire-only cells synthesize to zero
// logic gates.
struct LiteralCache {
  int net = -1;
  int not_net = -1;

  int get(Netlist& netlist, bool positive) {
    if (positive) return net;
    if (not_net < 0) not_net = netlist.add_unary(GateKind::Not, net);
    return not_net;
  }
};

// Builds one output column of a cell as a sum of minterms over
// (a, b, cin), with constant/single-literal simplifications.  Literal
// caches are shared between the sum and carry columns.
int build_column(Netlist& netlist, const std::array<bool, 8>& column,
                 LiteralCache& a_literal, LiteralCache& b_literal,
                 LiteralCache& c_literal) {
  int ones = 0;
  for (bool bit : column) ones += bit ? 1 : 0;
  if (ones == 0) return netlist.add_const(false);
  if (ones == 8) return netlist.add_const(true);

  // Single-literal detection: a column equal to a, b, cin (row bit) or a
  // complement is a wire, not logic — e.g. LPAA5 (sum = B, cout = A)
  // synthesizes to zero gates, matching its zero-power entry in Table 2.
  const auto matches_literal = [&](unsigned bit_shift, bool inverted) {
    for (std::size_t row = 0; row < 8; ++row) {
      const bool literal = ((row >> bit_shift) & 1U) != 0;
      if (column[row] != (inverted ? !literal : literal)) return false;
    }
    return true;
  };
  if (matches_literal(2, false)) return a_literal.get(netlist, true);
  if (matches_literal(1, false)) return b_literal.get(netlist, true);
  if (matches_literal(0, false)) return c_literal.get(netlist, true);
  if (matches_literal(2, true)) return a_literal.get(netlist, false);
  if (matches_literal(1, true)) return b_literal.get(netlist, false);
  if (matches_literal(0, true)) return c_literal.get(netlist, false);

  int result = -1;
  for (std::size_t row = 0; row < 8; ++row) {
    if (!column[row]) continue;
    const int la = a_literal.get(netlist, ((row >> 2) & 1U) != 0);
    const int lb = b_literal.get(netlist, ((row >> 1) & 1U) != 0);
    const int lc = c_literal.get(netlist, (row & 1U) != 0);
    const int ab = netlist.add_binary(GateKind::And, la, lb);
    const int minterm = netlist.add_binary(GateKind::And, ab, lc);
    result = result < 0 ? minterm
                        : netlist.add_binary(GateKind::Or, result, minterm);
  }
  return result;
}

}  // namespace

CellNets instantiate_cell(Netlist& netlist, const adders::AdderCell& cell,
                          int a, int b, int cin) {
  // Fast path: the exact full adder gets the canonical XOR/majority
  // structure (5 two-input gates) rather than two-level SOP.
  if (cell.is_exact()) {
    const int axb = netlist.add_binary(GateKind::Xor, a, b);
    const int sum = netlist.add_binary(GateKind::Xor, axb, cin);
    const int ab = netlist.add_binary(GateKind::And, a, b);
    const int prop = netlist.add_binary(GateKind::And, axb, cin);
    const int cout = netlist.add_binary(GateKind::Or, ab, prop);
    return {sum, cout};
  }

  LiteralCache a_literal{a, -1};
  LiteralCache b_literal{b, -1};
  LiteralCache c_literal{cin, -1};

  std::array<bool, 8> sum_column{};
  std::array<bool, 8> carry_column{};
  for (std::size_t row = 0; row < 8; ++row) {
    sum_column[row] = cell.rows()[row].sum;
    carry_column[row] = cell.rows()[row].carry;
  }
  CellNets nets;
  nets.sum =
      build_column(netlist, sum_column, a_literal, b_literal, c_literal);
  nets.cout =
      build_column(netlist, carry_column, a_literal, b_literal, c_literal);
  return nets;
}

}  // namespace detail

namespace {

/// Port name `prefix` followed by bit index `i` ("a3").  Built by
/// appending: gcc 12 reports a false -Wrestrict on "literal" +
/// std::string&&.
std::string bit_port(const char* prefix, std::size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

}  // namespace

Netlist synthesize_cell(const adders::AdderCell& cell) {
  Netlist netlist;
  const int a = netlist.add_input("a");
  const int b = netlist.add_input("b");
  const int cin = netlist.add_input("cin");
  const detail::CellNets nets = detail::instantiate_cell(netlist, cell, a, b, cin);
  netlist.set_output("sum", nets.sum);
  netlist.set_output("cout", nets.cout);
  return netlist;
}

Netlist synthesize_chain(const multibit::AdderChain& chain) {
  Netlist netlist;
  std::vector<int> a_nets;
  std::vector<int> b_nets;
  for (std::size_t i = 0; i < chain.width(); ++i) {
    a_nets.push_back(netlist.add_input(bit_port("a", i)));
  }
  for (std::size_t i = 0; i < chain.width(); ++i) {
    b_nets.push_back(netlist.add_input(bit_port("b", i)));
  }
  int carry = netlist.add_input("cin");
  std::vector<int> sum_nets;
  for (std::size_t i = 0; i < chain.width(); ++i) {
    const detail::CellNets nets = detail::instantiate_cell(
        netlist, chain.stage(i), a_nets[i], b_nets[i], carry);
    sum_nets.push_back(nets.sum);
    carry = nets.cout;
  }
  for (std::size_t i = 0; i < sum_nets.size(); ++i) {
    netlist.set_output("sum" + std::to_string(i), sum_nets[i]);
  }
  netlist.set_output("cout", carry);
  return netlist;
}

Netlist synthesize_gear(const gear::GearConfig& config) {
  Netlist netlist;
  const std::size_t n = static_cast<std::size_t>(config.n());
  std::vector<int> a_nets;
  std::vector<int> b_nets;
  for (std::size_t i = 0; i < n; ++i) {
    a_nets.push_back(netlist.add_input(bit_port("a", i)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    b_nets.push_back(netlist.add_input(bit_port("b", i)));
  }

  std::vector<int> sum_nets(n, -1);
  int cout_net = -1;
  const int zero = netlist.add_const(false);
  for (int block = 0; block < config.blocks(); ++block) {
    const int start = config.window_start(block);
    int carry = zero;
    for (int bit = 0; bit < config.l(); ++bit) {
      const std::size_t pos = static_cast<std::size_t>(start + bit);
      const detail::CellNets nets = detail::instantiate_cell(
          netlist, adders::accurate(), a_nets[pos], b_nets[pos], carry);
      const int first_result = block == 0 ? 0 : config.p();
      if (bit >= first_result) sum_nets[pos] = nets.sum;
      carry = nets.cout;
    }
    if (block == config.blocks() - 1) cout_net = carry;
  }

  for (std::size_t i = 0; i < n; ++i) {
    netlist.set_output("sum" + std::to_string(i), sum_nets[i]);
  }
  netlist.set_output("cout", cout_net);
  return netlist;
}

}  // namespace sealpaa::rtl
