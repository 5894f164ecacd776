// LOA — the Lower-part OR Adder (Mahdiani et al.), a classic low-power
// segmented approximate adder from the same design lineage as the
// paper's LPAA cells ([6]'s IMPACT family cites it as prior art).
//
// The l least-significant sum bits are computed as a_i OR b_i with no
// carry chain at all; the upper N-l bits use an exact adder whose
// carry-in is a_{l-1} AND b_{l-1} (a one-gate carry prediction).  That
// is the hybrid chain OR^l · AccuFA^(N-l) of an OR cell (sum a|b, carry
// a&b, its carry-in ignored) under accurate full adders, so LOA needs
// no model of its own: AdderChain::evaluate(a, b, false) is the adder,
// analysis::JointCarryAnalyzer under a profile with p_cin = 0 (the
// design has no carry-in) gives its exact value-level error rate in
// O(N), and the other chain engines (error PMF, simulators) apply as
// they are.
#pragma once

#include <cstddef>

#include "sealpaa/multibit/chain.hpp"

namespace sealpaa::multibit {

/// LOA with `approx_lsbs` OR-approximated low bits out of `width`
/// (0 means fully exact) as the chain OR^approx_lsbs · AccuFA^(rest),
/// stage 0 first.  The OR cell is not a built-in cell, so it never joins
/// a search palette.  Throws std::invalid_argument unless
/// 1 <= width <= 63 and approx_lsbs <= width.
[[nodiscard]] AdderChain loa_chain(std::size_t width, std::size_t approx_lsbs);

}  // namespace sealpaa::multibit
