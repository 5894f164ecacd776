// propagate_error_pmf keeps its windows in a per-thread workspace
// between calls and releases it once a propagation grew it past 8 MiB.
// Threads propagating at once must not share or disturb one another's
// windows: four threads run interleaved wide and narrow chains, and every
// result must be bit-identical to the serial one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace {

using sealpaa::analysis::ErrorPmf;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;

struct Case {
  AdderChain chain;
  InputProfile profile;
};

/// A width-18 all-LPAA1 chain needs about 12 MiB of windows (released
/// after each call); the narrow ones, a few hundred KiB at most (kept).
std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({AdderChain::homogeneous(sealpaa::adders::lpaa(1), 18),
                 InputProfile::uniform(18, 0.5)});
  for (int k = 1; k <= 7; ++k) {
    std::vector<sealpaa::adders::AdderCell> stages(
        24, sealpaa::adders::accurate());
    for (std::size_t s = 0; s < 8; ++s) {
      stages[s] = sealpaa::adders::lpaa(1 + (k + static_cast<int>(s)) % 7);
    }
    out.push_back({AdderChain(std::move(stages)),
                   InputProfile::uniform(24, 0.1 * k)});
    out.push_back({AdderChain::homogeneous(sealpaa::adders::lpaa(k), 10),
                   InputProfile::uniform(10, 0.35)});
  }
  return out;
}

bool same_bits(const ErrorPmf& a, const ErrorPmf& b) {
  return std::equal(a.entries().begin(), a.entries().end(),
                    b.entries().begin(), b.entries().end(),
                    [](const ErrorPmf::Entry& x, const ErrorPmf::Entry& y) {
                      return x.value == y.value &&
                             std::bit_cast<std::uint64_t>(x.probability) ==
                                 std::bit_cast<std::uint64_t>(y.probability);
                    });
}

TEST(ErrorPmfThreads, ConcurrentPropagationsMatchSerialBits) {
  const std::vector<Case> all = cases();
  std::vector<ErrorPmf> serial;
  for (const Case& c : all) {
    serial.push_back(
        sealpaa::analysis::propagate_error_pmf(c.chain, c.profile));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 2;
  std::vector<std::vector<std::string>> mismatches(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the cases from its own offset, so wide and
      // narrow propagations overlap differently on every thread.
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < all.size(); ++i) {
          const std::size_t c =
              (i + static_cast<std::size_t>(t) * 3) % all.size();
          const ErrorPmf pmf = sealpaa::analysis::propagate_error_pmf(
              all[c].chain, all[c].profile);
          if (!same_bits(pmf, serial[c])) {
            mismatches[static_cast<std::size_t>(t)].push_back(
                "case " + std::to_string(c) + " round " +
                std::to_string(round));
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mismatches[static_cast<std::size_t>(t)].empty())
        << "thread " << t << ": "
        << mismatches[static_cast<std::size_t>(t)].front();
  }
}

}  // namespace
