#include "sealpaa/service/wire.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/obs/json_reader.hpp"
#include "sealpaa/obs/serialize.hpp"

namespace sealpaa::service {

FrameSplitter::FrameSplitter(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  if (max_frame_bytes_ == 0) {
    throw std::invalid_argument("FrameSplitter: max_frame_bytes must be >= 1");
  }
}

void FrameSplitter::feed(std::string_view bytes) {
  while (!bytes.empty()) {
    const void* found = std::memchr(bytes.data(), '\n', bytes.size());
    const std::size_t line_end =
        found == nullptr
            ? bytes.size()
            : static_cast<std::size_t>(static_cast<const char*>(found) -
                                       bytes.data());
    const std::string_view piece = bytes.substr(0, line_end);
    const bool complete = found != nullptr;
    bytes.remove_prefix(complete ? line_end + 1 : line_end);
    if (discarding_) {
      discarding_ = !complete;
      continue;
    }
    if (partial_.size() + piece.size() > max_frame_bytes_) {
      // Emit the rejection at once (the caller answers with a structured
      // error) and eat the rest of the line so the next frame parses
      // cleanly.
      ready_.push_back(Frame{std::string(), true});
      partial_.clear();
      discarding_ = !complete;
      continue;
    }
    if (!complete) {
      partial_.append(piece);
      continue;
    }
    std::string line;
    if (partial_.empty()) {
      line.assign(piece);
    } else {
      line = std::move(partial_);
      line.append(piece);
      partial_.clear();
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) ready_.push_back(Frame{std::move(line), false});
  }
}

void FrameSplitter::finish() {
  if (discarding_) {
    discarding_ = false;
    return;  // the oversized frame was already emitted
  }
  if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
  if (!partial_.empty()) {
    ready_.push_back(Frame{std::move(partial_), false});
  }
  partial_.clear();
}

std::optional<FrameSplitter::Frame> FrameSplitter::next() {
  if (ready_.empty()) return std::nullopt;
  Frame frame = std::move(ready_.front());
  ready_.pop_front();
  return frame;
}

namespace {

/// Raised during request validation; carries the wire error code.
struct RequestError {
  std::string_view code;
  std::string message;
};

[[noreturn]] void reject(std::string_view code, std::string message) {
  throw RequestError{code, std::move(message)};
}

constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);

/// Index of `name` in the service palette, or kNoCell.  The size and last
/// byte are compared before the text, so a stage costs about one
/// memcmp.
[[nodiscard]] std::size_t cell_index(std::string_view name) {
  if (name.empty()) return kNoCell;
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out;
    for (const adders::AdderCell& cell : adders::all_builtin_cells()) {
      out.push_back(cell.name());
    }
    return out;
  }();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string_view candidate = names[i];
    if (candidate.size() == name.size() && candidate.back() == name.back() &&
        candidate == name) {
      return i;
    }
  }
  return kNoCell;
}

/// The request fields of one frame, noted as read_json delivers them.
/// A known key keeps its value as the Json it would be in the tree (an
/// object or array only as an empty one of its kind), the id becomes a
/// Json through a JsonBuilder, and the chain is resolved to palette
/// indices as it passes.  Nothing is judged while reading: validate()
/// runs once the whole frame has been read, so a frame that is not JSON
/// is always invalid-json.
class RequestFields {
 public:
  enum class Field {
    kOther, kId, kMethod, kWidth, kChain, kBlocks, kParams,
    kP, kSamples, kSeed, kKernel, kTimeout
  };

  /// What "chain" held.
  struct Chain {
    enum class Kind { kAbsent, kName, kArray, kOther } kind = Kind::kAbsent;
    std::size_t stages = 0;                     // names and non-names
    std::optional<std::size_t> first_non_name;  // first element not a string
    std::optional<std::string> unknown;         // first name off the palette
    std::vector<std::size_t> cells;             // palette index per name
  };

  explicit RequestFields(std::size_t chain_reserve)
      : chain_reserve_(chain_reserve) {}

  // read_json handler.
  void begin_object() {
    if (in_id(1)) {
      id.begin_object();
    } else {
      open(obs::Json::object());
    }
    ++depth_;
  }
  void begin_array() {
    if (in_id(1)) {
      id.begin_array();
    } else {
      open(obs::Json::array());
    }
    ++depth_;
  }
  void end_object() {
    --depth_;
    if (in_id(1)) id.end_object();
  }
  void end_array() {
    --depth_;
    if (in_id(1)) id.end_array();
  }
  void key(std::string_view key);
  void string(std::string_view value);
  void scalar(obs::Json&& value);

  [[nodiscard]] Request validate(const obs::Json& id,
                                 const WireLimits& limits);

  bool is_object = false;
  bool has_id = false;
  obs::JsonBuilder id;

 private:
  /// Whether an event belongs to the id's value: any value at depth 1
  /// or deeper while "id" is the current top-level key, and any key at
  /// depth 2 or deeper (keys sit inside the object they belong to).
  [[nodiscard]] bool in_id(std::size_t value_depth) const noexcept {
    return top_ == Field::kId && depth_ >= value_depth;
  }
  [[nodiscard]] bool in_params() const noexcept {
    return depth_ == 2 && top_ == Field::kParams && params_ &&
           params_->is_object();
  }
  [[nodiscard]] bool in_chain() const noexcept {
    return depth_ == 2 && top_ == Field::kChain &&
           chain_.kind == Chain::Kind::kArray;
  }
  void open(obs::Json&& container);
  void note(obs::Json&& value);
  void chain_name(std::string_view name);
  void chain_non_name();

  std::size_t chain_reserve_;
  std::size_t depth_ = 0;  // containers open
  Field top_ = Field::kOther;
  Field param_ = Field::kOther;
  std::optional<std::string> unknown_key_;
  std::optional<std::string> unknown_param_;
  std::optional<obs::Json> method_, width_, blocks_, params_;
  std::optional<obs::Json> p_, samples_, seed_, kernel_, timeout_;
  Chain chain_;
};

/// A container starts outside the id: the document itself, a chain
/// element, or a member value.
void RequestFields::open(obs::Json&& container) {
  if (depth_ == 0) {
    is_object = container.is_object();
  } else if (in_chain()) {
    chain_non_name();
  } else {
    note(std::move(container));
  }
}

template <std::size_t N>
[[nodiscard]] RequestFields::Field field_of(
    std::string_view key,
    const std::pair<std::string_view, RequestFields::Field> (&known)[N]) {
  for (const auto& [name, field] : known) {
    if (key == name) return field;
  }
  return RequestFields::Field::kOther;
}

void RequestFields::key(std::string_view key) {
  if (in_id(2)) {
    id.key(key);
    return;
  }
  if (depth_ == 1) {
    static constexpr std::pair<std::string_view, Field> kTop[] = {
        {"id", Field::kId},         {"method", Field::kMethod},
        {"width", Field::kWidth},   {"chain", Field::kChain},
        {"blocks", Field::kBlocks}, {"params", Field::kParams}};
    top_ = field_of(key, kTop);
    if (top_ == Field::kId) has_id = true;
    if (top_ == Field::kOther && !unknown_key_) unknown_key_.emplace(key);
    return;
  }
  if (in_params()) {
    static constexpr std::pair<std::string_view, Field> kParams[] = {
        {"p", Field::kP},         {"samples", Field::kSamples},
        {"seed", Field::kSeed},   {"kernel", Field::kKernel},
        {"timeout_ms", Field::kTimeout}};
    param_ = field_of(key, kParams);
    if (param_ == Field::kOther && !unknown_param_) unknown_param_.emplace(key);
  }
}

void RequestFields::string(std::string_view value) {
  if (in_id(1)) {
    id.string(value);
  } else if (depth_ == 1 && top_ == Field::kChain) {
    chain_.kind = Chain::Kind::kName;
    chain_name(value);
  } else if (in_chain()) {
    chain_name(value);
  } else {
    note(obs::Json(std::string(value)));
  }
}

void RequestFields::scalar(obs::Json&& value) {
  if (in_id(1)) {
    id.scalar(std::move(value));
  } else if (in_chain()) {
    chain_non_name();
  } else {
    note(std::move(value));
  }
}

/// A complete value (or the start of a container) of a top-level or
/// params member; the values of unknown keys and anything deeper are
/// not kept.
void RequestFields::note(obs::Json&& value) {
  std::optional<obs::Json>* slot = nullptr;
  if (depth_ == 1) {
    switch (top_) {
      case Field::kMethod: slot = &method_; break;
      case Field::kWidth: slot = &width_; break;
      case Field::kBlocks: slot = &blocks_; break;
      case Field::kParams: slot = &params_; break;
      case Field::kChain:
        if (value.is_array()) {
          chain_.kind = Chain::Kind::kArray;
          chain_.cells.reserve(chain_reserve_);
        } else {
          chain_.kind = Chain::Kind::kOther;
        }
        return;
      default: return;
    }
  } else if (in_params()) {
    switch (param_) {
      case Field::kP: slot = &p_; break;
      case Field::kSamples: slot = &samples_; break;
      case Field::kSeed: slot = &seed_; break;
      case Field::kKernel: slot = &kernel_; break;
      case Field::kTimeout: slot = &timeout_; break;
      default: return;
    }
  } else {
    return;
  }
  slot->emplace(std::move(value));
}

/// A cell name: the chain itself, or an element of a chain array.
void RequestFields::chain_name(std::string_view name) {
  chain_.stages += 1;
  const std::size_t cell = cell_index(name);
  if (cell == kNoCell && !chain_.unknown) chain_.unknown.emplace(name);
  chain_.cells.push_back(cell);
}

/// An element of a chain array that is not a string.
void RequestFields::chain_non_name() {
  if (!chain_.first_non_name) chain_.first_non_name = chain_.stages;
  chain_.stages += 1;
}



/// The noted value, or nullptr when its key was absent.
[[nodiscard]] const obs::Json* present(const std::optional<obs::Json>& field) {
  return field ? &*field : nullptr;
}

Request RequestFields::validate(const obs::Json& id_value,
                                const WireLimits& limits) {
  if (unknown_key_) {
    reject(error_code::kBadRequest,
           "unknown request key \"" + *unknown_key_ + '"');
  }

  Request request;
  request.id = id_value;
  if (!id_value.is_null() && !id_value.is_string() && !id_value.is_number()) {
    reject(error_code::kBadRequest,
           "\"id\" must be a string, a number or absent");
  }

  const obs::Json* method = present(method_);
  if (method == nullptr || !method->is_string()) {
    reject(error_code::kBadRequest, "\"method\" must be a string");
  }
  const std::string& method_name = method->string_value();
  if (method_name == "stats" || method_name == "ping") {
    if (width_ || chain_.kind != Chain::Kind::kAbsent || blocks_ || params_) {
      reject(error_code::kBadRequest,
             '"' + method_name + "\" requests take no other fields");
    }
    request.kind = method_name == "stats" ? Request::Kind::kStats
                                          : Request::Kind::kPing;
    return request;
  }
  try {
    request.method = engine::parse_method(method_name);
  } catch (const std::invalid_argument& e) {
    reject(error_code::kUnknownMethod, e.what());
  }

  const obs::Json* width = present(width_);
  if (width == nullptr || !width->is_number() || width->is_bool()) {
    reject(error_code::kBadRequest, "\"width\" must be a positive integer");
  }
  std::uint64_t width_value = 0;
  try {
    width_value = width->unsigned_integer();
  } catch (const std::invalid_argument&) {
    reject(error_code::kBadRequest, "\"width\" must be a positive integer");
  }
  if (width_value == 0) {
    reject(error_code::kBadRequest, "\"width\" must be >= 1");
  }
  if (width_value > limits.max_width) {
    reject(error_code::kWidthLimit,
           "width " + std::to_string(width_value) + " exceeds the limit of " +
               std::to_string(limits.max_width));
  }
  request.width = static_cast<std::size_t>(width_value);

  const obs::Json* blocks = present(blocks_);
  if (request.method == engine::Method::kBlockAnalytic) {
    if (blocks == nullptr || !blocks->is_string()) {
      reject(error_code::kBadRequest,
             "\"blocks\" must be a spec string (R:P,R:P,... or aca:K / "
             "etaii:X / gear:R:P) for method \"block-analytic\"");
    }
    try {
      request.blocks = multibit::BlockChainSpec::parse(
          static_cast<int>(request.width), blocks->string_value());
    } catch (const std::invalid_argument& e) {
      reject(error_code::kBadRequest, e.what());
    }
  } else if (blocks != nullptr) {
    reject(error_code::kBadRequest,
           "\"blocks\" is only valid with method \"block-analytic\"");
  }

  switch (chain_.kind) {
    case Chain::Kind::kAbsent:
      // Block sub-adders are exact by construction, so block-analytic
      // requests may omit the chain; every other method needs one.
      if (request.method != engine::Method::kBlockAnalytic) {
        reject(error_code::kBadRequest,
               "\"chain\" is required (a cell name or an array of cell "
               "names)");
      }
      request.chain.assign(request.width, cell_index("AccuFA"));
      break;
    case Chain::Kind::kName:
      if (!chain_.unknown) {
        request.chain.assign(request.width, chain_.cells.front());
      }
      break;
    case Chain::Kind::kArray:
      if (chain_.stages != request.width) {
        reject(error_code::kBadRequest,
               "\"chain\" lists " + std::to_string(chain_.stages) +
                   " stages but \"width\" is " +
                   std::to_string(request.width));
      }
      if (chain_.first_non_name) {
        reject(error_code::kBadRequest,
               "\"chain\"[" + std::to_string(*chain_.first_non_name) +
                   "] must be a cell name");
      }
      request.chain = std::move(chain_.cells);
      break;
    case Chain::Kind::kOther:
      reject(error_code::kBadRequest,
             "\"chain\" must be a cell name or an array of cell names");
  }

  request.timeout_ms = limits.default_timeout_ms;
  if (const obs::Json* params = present(params_); params != nullptr) {
    if (!params->is_object()) {
      reject(error_code::kBadRequest, "\"params\" must be an object");
    }
    if (unknown_param_) {
      reject(error_code::kBadRequest,
             "unknown params key \"" + *unknown_param_ + '"');
    }
    if (const obs::Json* p = present(p_); p != nullptr) {
      if (!p->is_number()) {
        reject(error_code::kBadRequest, "params.p must be a number");
      }
      request.p = p->number();
      if (!(request.p >= 0.0 && request.p <= 1.0)) {
        reject(error_code::kBadRequest, "params.p must be in [0, 1]");
      }
    }
    if (const obs::Json* samples = present(samples_); samples != nullptr) {
      try {
        request.samples = samples->unsigned_integer();
      } catch (const std::invalid_argument&) {
        reject(error_code::kBadRequest,
               "params.samples must be a non-negative integer");
      }
      if (request.samples > limits.max_samples) {
        reject(error_code::kRequestLimit,
               "params.samples " + std::to_string(request.samples) +
                   " exceeds the limit of " +
                   std::to_string(limits.max_samples));
      }
    }
    if (const obs::Json* seed = present(seed_); seed != nullptr) {
      try {
        request.seed = seed->unsigned_integer();
      } catch (const std::invalid_argument&) {
        reject(error_code::kBadRequest,
               "params.seed must be a non-negative integer");
      }
    }
    if (const obs::Json* kernel = present(kernel_); kernel != nullptr) {
      if (!kernel->is_string()) {
        reject(error_code::kBadRequest, "params.kernel must be a string");
      }
      try {
        request.kernel = sim::parse_kernel(kernel->string_value());
      } catch (const std::invalid_argument& e) {
        reject(error_code::kBadRequest, e.what());
      }
    }
    if (const obs::Json* timeout = present(timeout_); timeout != nullptr) {
      try {
        request.timeout_ms = timeout->unsigned_integer();
      } catch (const std::invalid_argument&) {
        reject(error_code::kBadRequest,
               "params.timeout_ms must be a non-negative integer");
      }
      if (request.timeout_ms > limits.max_timeout_ms) {
        reject(error_code::kRequestLimit,
               "params.timeout_ms " + std::to_string(request.timeout_ms) +
                   " exceeds the limit of " +
                   std::to_string(limits.max_timeout_ms));
      }
    }
  }

  if (chain_.unknown) {
    reject(error_code::kUnknownCell,
           "unknown cell '" + *chain_.unknown + "' (try: sealpaa_cli cells)");
  }
  return request;
}

}  // namespace

ParseOutcome parse_request(const FrameSplitter::Frame& frame,
                           const WireLimits& limits) {
  ParseOutcome outcome;
  if (frame.oversized) {
    outcome.error = WireError{
        std::string(error_code::kFrameTooLarge),
        "frame exceeds the " + std::to_string(limits.max_frame_bytes) +
            "-byte limit"};
    return outcome;
  }
  // Enough room for every chain the default width limit accepts.
  RequestFields fields(std::min<std::size_t>(limits.max_width, 64));
  try {
    obs::read_json(frame.text, fields);
  } catch (const std::invalid_argument& e) {
    outcome.error =
        WireError{std::string(error_code::kInvalidJson), e.what()};
    return outcome;
  }
  if (!fields.is_object) {
    outcome.error = WireError{std::string(error_code::kBadRequest),
                              "request must be a JSON object"};
    return outcome;
  }
  // Echo whatever id arrived, even if validation fails.
  if (fields.has_id) outcome.id = fields.id.take();
  try {
    outcome.request = fields.validate(outcome.id, limits);
  } catch (const RequestError& e) {
    outcome.error = WireError{std::string(e.code), e.message};
  }
  return outcome;
}

namespace {

obs::Json response_header(const obs::Json& id, bool ok) {
  obs::Json out = obs::Json::object();
  out.set("schema", obs::Json(std::string(kWireSchema)));
  out.set("schema_version", obs::Json(kWireSchemaVersion));
  out.set("id", id);
  out.set("ok", obs::Json(ok));
  return out;
}

}  // namespace

obs::Json make_error_response(const obs::Json& id, std::string_view code,
                              std::string_view message) {
  obs::Json out = response_header(id, false);
  obs::Json error = obs::Json::object();
  error.set("code", obs::Json(std::string(code)));
  error.set("message", obs::Json(std::string(message)));
  out.set("error", std::move(error));
  return out;
}

obs::Json make_evaluation_response(const obs::Json& id,
                                   const engine::Evaluation& evaluation) {
  obs::Json out = response_header(id, true);
  out.set("method",
          obs::Json(std::string(engine::method_name(evaluation.method))));
  out.set("evaluation", obs::to_json(evaluation));
  return out;
}

obs::Json make_ping_response(const obs::Json& id) {
  obs::Json out = response_header(id, true);
  out.set("pong", obs::Json(true));
  return out;
}

std::string serialize_frame(const obs::Json& response) {
  std::string out = response.dump(0);
  out.push_back('\n');
  return out;
}

}  // namespace sealpaa::service
