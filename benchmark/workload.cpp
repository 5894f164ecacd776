#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

namespace bench {

namespace {

/// An id no response can contain by accident, used to split expected
/// frames around the id the benchmark assigns per send.
constexpr std::uint64_t kIdSentinel = 987654321987654321ull;

[[nodiscard]] std::string format_p(double p) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4f", p);
  return buffer;
}

[[nodiscard]] std::string chain_json(std::span<const std::size_t> choices) {
  const std::span<const adders::AdderCell> cells = adders::all_builtin_cells();
  std::string out = "[";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += cells[choices[i]].name();
    out += '"';
  }
  out += ']';
  return out;
}

/// Appends a config and renders its request line; expect() later fills
/// in the response it must get.
std::uint32_t add_config(std::vector<Config>& configs, Config config,
                         const std::string& p_text) {
  config.p = std::strtod(p_text.c_str(), nullptr);
  const std::string method(engine::method_name(config.method));
  std::string line = ",\"method\":\"" + method + "\",\"width\":" +
                     std::to_string(config.width);
  if (config.blocks) {
    line += ",\"blocks\":\"" + config.blocks_text + "\"";
  } else {
    line += ",\"chain\":" + chain_json(config.choices);
  }
  line += ",\"params\":{\"p\":" + p_text;
  if (config.method == engine::Method::kMonteCarlo) {
    line += ",\"samples\":" + std::to_string(config.samples);
  }
  line += ",\"timeout_ms\":300000}}\n";
  config.request_tail = std::move(line);
  configs.push_back(std::move(config));
  return static_cast<std::uint32_t>(configs.size() - 1);
}

/// Evaluates every config with engine::evaluate, the reference each
/// response is compared with, and splits the expected frame around the
/// id.  Runs before any load, on up to four threads.
void expect(std::vector<Config>& configs) {
  const std::string sentinel = std::to_string(kIdSentinel);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> sentinel_clash{false};
  const auto work = [&] {
    for (std::size_t i = next++; i < configs.size(); i = next++) {
      Config& config = configs[i];
      config.expected = engine::evaluate(config.chain(), config.profile(),
                                         config.method, config.options());
      const std::string frame = service::serialize_frame(
          service::make_evaluation_response(obs::Json(kIdSentinel),
                                            config.expected));
      const std::size_t at = frame.find(sentinel);
      if (at == std::string::npos || frame.rfind(sentinel) != at) {
        sentinel_clash = true;
        continue;
      }
      config.response_head = frame.substr(0, at);
      config.response_tail = frame.substr(at + sentinel.size());
    }
  };
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
  if (sentinel_clash) throw std::logic_error("response id sentinel not unique");
}

/// Index of the built-in cell `name` in adders::all_builtin_cells().
[[nodiscard]] std::size_t cell_index(const std::string& name) {
  const std::span<const adders::AdderCell> cells = adders::all_builtin_cells();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].name() == name) return i;
  }
  throw std::invalid_argument("unknown cell '" + name + "'");
}

[[nodiscard]] Config chain_config(engine::Method method,
                                  std::vector<std::size_t> choices) {
  Config config;
  config.method = method;
  config.width = choices.size();
  config.choices = std::move(choices);
  return config;
}

[[nodiscard]] Config monte_carlo_config(std::vector<std::size_t> choices) {
  Config config = chain_config(engine::Method::kMonteCarlo, std::move(choices));
  config.samples = 65536;
  return config;
}

[[nodiscard]] Config block_config(std::size_t width) {
  Config config =
      chain_config(engine::Method::kBlockAnalytic,
                   std::vector<std::size_t>(width, cell_index("AccuFA")));
  config.blocks_text = "aca:4";
  config.blocks = multibit::BlockChainSpec::parse(static_cast<int>(width),
                                                  config.blocks_text);
  return config;
}

}  // namespace

multibit::AdderChain Config::chain() const {
  const std::span<const adders::AdderCell> cells = adders::all_builtin_cells();
  std::vector<adders::AdderCell> stages;
  stages.reserve(choices.size());
  for (const std::size_t choice : choices) stages.push_back(cells[choice]);
  return multibit::AdderChain(std::move(stages));
}

multibit::InputProfile Config::profile() const {
  return multibit::InputProfile::uniform(width, p);
}

engine::EvaluateOptions Config::options() const {
  engine::EvaluateOptions options;
  if (samples != 0) options.samples = samples;
  options.blocks = blocks;
  options.threads = 1;
  return options;
}

double design_score(const DseProblem& problem,
                    const explore::HybridDesign& design) {
  switch (problem.objective) {
    case explore::Objective::kErrorRate:
      return design.p_success;
    case explore::Objective::kMed:
      return design.med.value_or(-1.0);
    case explore::Objective::kMse:
      return design.mse.value_or(-1.0);
  }
  return -1.0;
}

std::string score_bits_hex(double score) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(bits));
  return buffer;
}

bool matches_pin(const DseProblem& problem,
                 const explore::HybridDesign& design) {
  if (design.stages.size() != problem.pinned_design.size()) return false;
  for (std::size_t i = 0; i < design.stages.size(); ++i) {
    if (design.stages[i].name() != problem.pinned_design[i]) return false;
  }
  return score_bits_hex(design_score(problem, design)) ==
         problem.pinned_score_bits;
}

DseProblem parse_dse_problem(const obs::Json& entry) {
  const auto field = [&entry](const char* key) -> const obs::Json& {
    const obs::Json* value = entry.find(key);
    if (value == nullptr) {
      throw std::invalid_argument(std::string("dse workload lacks '") + key +
                                  "'");
    }
    return *value;
  };
  DseProblem problem;
  problem.width = static_cast<std::size_t>(field("width").unsigned_integer());
  problem.p = field("p").number();
  const std::span<const adders::AdderCell> cells = adders::all_builtin_cells();
  const obs::Json& palette = field("palette");
  for (std::size_t i = 0; i < palette.size(); ++i) {
    problem.palette.push_back(cells[cell_index(palette.at(i).string_value())]);
  }
  problem.objective =
      explore::parse_objective(field("objective").string_value());
  if (const obs::Json* budget = entry.find("max_power_nw");
      budget != nullptr && !budget->is_null()) {
    problem.constraints.max_power_nw = budget->number();
  }
  problem.threads = static_cast<unsigned>(field("threads").unsigned_integer());
  const obs::Json& pinned = field("pinned");
  if (const obs::Json* design = pinned.find("design")) {
    for (std::size_t i = 0; i < design->size(); ++i) {
      problem.pinned_design.push_back(design->at(i).string_value());
    }
  }
  if (const obs::Json* bits = pinned.find("score_bits")) {
    problem.pinned_score_bits = bits->string_value();
  }
  return problem;
}

ServiceWorkload fleet_mix(std::uint64_t seed) {
  // 96 (width, p) profiles, swept cyclically: with two dispatch workers
  // each shard owns ~48 of them, which overflows its 32-evaluator pool
  // in LRU-pessimal order, so analytic-pmf requests pay cold ErrorPmf
  // propagation and evaluator construction.
  constexpr std::size_t kWidths[] = {24, 28, 32};
  constexpr std::size_t kPs = 32;
  const auto grid_p = [](std::size_t j) {
    return format_p(0.300 + 0.0125 * static_cast<double>(j));
  };
  struct Key {
    std::vector<std::uint32_t> analytic;   // 16 distinct chains
    std::vector<std::uint32_t> recursive;  // one beam family of 8
  };
  auto keys = std::make_shared<std::vector<Key>>();
  auto monte_carlo = std::make_shared<std::vector<std::uint32_t>>();
  auto block = std::make_shared<std::vector<std::uint32_t>>();

  ServiceWorkload workload;
  workload.name = "fleet-mix";
  workload.window = 16;
  const std::size_t lpaa1 = cell_index("LPAA1");
  const std::size_t accurate = cell_index("AccuFA");
  SplitMix chain_rng(seed * 0x2545f4914f6cdd1dull + 1);
  for (const std::size_t width : kWidths) {
    for (std::size_t j = 0; j < kPs; ++j) {
      const std::string p_text = grid_p(j);
      Key key;
      // Approximate low 12 stages, accurate tail: the shape such chains
      // deploy as, which keeps the PMF support small at width 32.
      for (std::size_t member = 0; member < 16; ++member) {
        std::vector<std::size_t> choices(width, accurate);
        for (std::size_t i = 0; i < 12; ++i) {
          choices[i] = lpaa1 + chain_rng.below(adders::kBuiltinLpaaCount);
        }
        key.analytic.push_back(add_config(
            workload.configs,
            chain_config(engine::Method::kAnalyticPmf, std::move(choices)),
            p_text));
      }
      // Shared prefix, last two stages enumerated: SoA-groupable lanes.
      for (std::size_t member = 0; member < 8; ++member) {
        std::vector<std::size_t> choices;
        for (std::size_t i = 0; i + 2 < width; ++i) {
          choices.push_back(lpaa1 + (j * 7 + i * 3) % 7);
        }
        choices.push_back(lpaa1 + member % 7);
        choices.push_back(lpaa1 + (member / 7) % 7);
        key.recursive.push_back(add_config(
            workload.configs,
            chain_config(engine::Method::kRecursive, std::move(choices)),
            p_text));
      }
      keys->push_back(std::move(key));
    }
  }
  for (std::size_t k = 0; k < 4; ++k) {
    std::vector<std::size_t> choices;
    for (std::size_t i = 0; i < 16; ++i) choices.push_back(lpaa1 + (k + i) % 7);
    monte_carlo->push_back(add_config(
        workload.configs, monte_carlo_config(std::move(choices)), "0.5000"));
    block->push_back(add_config(workload.configs, block_config(kWidths[k % 3]),
                                grid_p((k * 9) % kPs)));
  }

  expect(workload.configs);
  workload.stream = [keys, monte_carlo, block](std::uint64_t stream_seed) {
    struct State {
      SplitMix rng;
      std::vector<std::size_t> cursor;
      std::size_t sweep = 0;
    };
    auto state = std::make_shared<State>(State{
        SplitMix(stream_seed), std::vector<std::size_t>(keys->size()), 0});
    return BurstStream([keys, monte_carlo, block, state](Burst& burst) {
      burst.clear();
      const std::size_t index = state->sweep;
      state->sweep = (state->sweep + 1) % keys->size();
      const Key& key = (*keys)[index];
      SplitMix& rng = state->rng;
      const std::size_t analytic = 1 + rng.below(3);
      for (std::size_t b = 0; b < analytic; ++b) {
        burst.push_back(
            key.analytic[state->cursor[index]++ % key.analytic.size()]);
      }
      const std::uint64_t roll = rng.below(100);
      if (roll < 6) {
        const std::size_t lanes = 2 + rng.below(3);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          burst.push_back(key.recursive[rng.below(key.recursive.size())]);
        }
      } else if (roll < 8) {
        burst.push_back((*monte_carlo)[rng.below(monte_carlo->size())]);
      } else if (roll < 10) {
        burst.push_back((*block)[rng.below(block->size())]);
      }
    });
  };
  return workload;
}

ServiceWorkload hot_recursive(std::uint64_t seed) {
  // 4 profiles x 8 families x 8 siblings = 256 configs: every evaluator
  // and prefix stays resident, so an evaluation costs microseconds and
  // the wire, dispatcher and socket path dominate.
  constexpr std::size_t kWidths[] = {16, 32};
  const char* const kPs[] = {"0.3500", "0.5000"};
  ServiceWorkload workload;
  workload.name = "hot-recursive";
  workload.window = 64;
  const std::size_t lpaa1 = cell_index("LPAA1");
  SplitMix chain_rng(seed * 0x2545f4914f6cdd1dull + 3);
  auto families = std::make_shared<std::vector<Burst>>();
  for (const std::size_t width : kWidths) {
    for (const char* p_text : kPs) {
      for (std::size_t family = 0; family < 8; ++family) {
        std::vector<std::size_t> prefix;
        for (std::size_t i = 0; i + 2 < width; ++i) {
          prefix.push_back(lpaa1 + chain_rng.below(7));
        }
        Burst members;
        for (std::size_t member = 0; member < 8; ++member) {
          std::vector<std::size_t> choices = prefix;
          choices.push_back(lpaa1 + member % 7);
          choices.push_back(lpaa1 + (member / 7) % 7);
          members.push_back(add_config(
              workload.configs,
              chain_config(engine::Method::kRecursive, std::move(choices)),
              p_text));
        }
        families->push_back(std::move(members));
      }
    }
  }
  expect(workload.configs);
  workload.stream = [families](std::uint64_t stream_seed) {
    auto rng = std::make_shared<SplitMix>(stream_seed);
    return BurstStream([families, rng](Burst& burst) {
      burst = (*families)[rng->below(families->size())];
    });
  };
  return workload;
}

bool frame_matches(std::string_view frame, const std::string& head,
                   std::uint64_t id, const std::string& tail) {
  const std::string digits = std::to_string(id);
  return frame.size() + 1 == head.size() + digits.size() + tail.size() &&
         frame.substr(0, head.size()) == head &&
         frame.substr(head.size(), digits.size()) == digits &&
         frame.substr(head.size() + digits.size()) ==
             std::string_view(tail).substr(0, tail.size() - 1);
}

std::vector<Burst> take_requests(const BurstStream& stream,
                                 std::size_t max_requests) {
  std::vector<Burst> bursts;
  std::size_t total = 0;
  while (total < max_requests) {
    Burst burst;
    stream(burst);
    if (burst.size() > max_requests - total) burst.resize(max_requests - total);
    total += burst.size();
    bursts.push_back(std::move(burst));
  }
  return bursts;
}

}  // namespace bench
