// Workload definitions of the repository benchmark: the request mixes
// sent to sealpaad and the branch-and-bound problems, all generated from
// a seed.  The program under test only ever sees what these build.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sealpaa/sealpaa.hpp"

namespace bench {

using namespace sealpaa;

/// splitmix64: every schedule and chain choice is a pure function of the
/// seed it starts from.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in (0, 1].
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// One distinct evaluation request and the exact bytes the service must
/// answer it with.  Requests carry a per-send id, so the request line and
/// the expected response are stored split around that id.
struct Config {
  engine::Method method = engine::Method::kRecursive;
  std::size_t width = 0;
  double p = 0.5;  // the value the service parses from the wire text
  /// Indices into adders::all_builtin_cells(), the service's palette.
  std::vector<std::size_t> choices;
  std::optional<multibit::BlockChainSpec> blocks;
  std::string blocks_text;    // the wire form of `blocks`, e.g. "aca:4"
  std::uint64_t samples = 0;  // monte-carlo only
  std::string request_tail;   // the request line after `{"id":<id>`, with '\n'
  engine::Evaluation expected;
  std::string response_head;  // serialize_frame output before the id digits
  std::string response_tail;  // ... and after them, with '\n'

  [[nodiscard]] multibit::AdderChain chain() const;
  [[nodiscard]] multibit::InputProfile profile() const;
  [[nodiscard]] engine::EvaluateOptions options() const;
};

/// Config indices sent together, in order.
using Burst = std::vector<std::uint32_t>;
/// An endless, seed-determined sequence of bursts.
using BurstStream = std::function<void(Burst&)>;

struct ServiceWorkload {
  std::string name;
  std::vector<Config> configs;
  /// Outstanding requests per connection in the closed-loop phase.
  std::size_t window = 16;
  /// Builds the burst sequence for a seed; the same seed always yields
  /// the same sequence.
  std::function<BurstStream(std::uint64_t)> stream;
};

/// A branch-and-bound problem with the design it must prove optimal.
struct DseProblem {
  std::size_t width = 0;
  double p = 0.5;
  std::vector<adders::AdderCell> palette;
  explore::DesignConstraints constraints;
  explore::Objective objective = explore::Objective::kErrorRate;
  unsigned threads = 2;
  /// Pinned optimum (cell names, LSB first) and the bits of its score
  /// (p_success for err, med for med, mse for mse); empty when unpinned.
  std::vector<std::string> pinned_design;
  std::string pinned_score_bits;
};

/// Score of `design` under the problem's objective.
[[nodiscard]] double design_score(const DseProblem& problem,
                                  const explore::HybridDesign& design);
[[nodiscard]] std::string score_bits_hex(double score);
/// True when `design` is the pinned design with the pinned score bits.
[[nodiscard]] bool matches_pin(const DseProblem& problem,
                               const explore::HybridDesign& design);

/// Parses a problem from its workloads.json entry.
[[nodiscard]] DseProblem parse_dse_problem(const obs::Json& entry);

/// The loadgen's fleet mix over 96 (width, p) profiles.
[[nodiscard]] ServiceWorkload fleet_mix(std::uint64_t seed);
/// Beam families of recursive siblings on 4 always-resident profiles.
[[nodiscard]] ServiceWorkload hot_recursive(std::uint64_t seed);

/// True when `frame` (one response line, newline stripped) is exactly
/// head + decimal id + tail, where tail ends with the newline.
[[nodiscard]] bool frame_matches(std::string_view frame,
                                 const std::string& head, std::uint64_t id,
                                 const std::string& tail);

/// The first `max_requests` requests of a stream, burst by burst.
[[nodiscard]] std::vector<Burst> take_requests(const BurstStream& stream,
                                               std::size_t max_requests);

}  // namespace bench
