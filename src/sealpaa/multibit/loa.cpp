#include "sealpaa/multibit/loa.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sealpaa/adders/builtin.hpp"

namespace sealpaa::multibit {

AdderChain loa_chain(std::size_t width, std::size_t approx_lsbs) {
  if (width < 1 || width > 63 || approx_lsbs > width) {
    throw std::invalid_argument(
        "loa_chain: require 1 <= width <= 63 and approx_lsbs <= width");
  }
  static const adders::AdderCell lower_or = adders::AdderCell::from_columns(
      "OR", "00111111", "00000011",
      "Lower-part OR cell of LOA: Sum = A OR B, Cout = A AND B");
  std::vector<adders::AdderCell> stages(width, adders::accurate());
  std::fill_n(stages.begin(), approx_lsbs, lower_or);
  return AdderChain(std::move(stages));
}

}  // namespace sealpaa::multibit
