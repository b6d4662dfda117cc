#include "hero/checkpoint.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "hero/hero_trainer.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace hero::core {

namespace {

std::string dims_string(const std::vector<std::size_t>& dims) {
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out += ':';
    out += std::to_string(dims[i]);
  }
  return out;
}

// Minimal JSON string escaping for the values we write (shas, build types,
// shape strings — none of which should ever need it, but a manifest must
// stay parseable regardless).
void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

[[noreturn]] void manifest_error(const std::string& path, const std::string& what) {
  throw std::runtime_error("checkpoint manifest " + path + ": " + what);
}

}  // namespace

CheckpointManifest manifest_of(HeroTrainer& trainer) {
  CheckpointManifest m;
  const auto run = obs::default_manifest("checkpoint");
  m.git_sha = run.git_sha;
  m.build_type = run.build_type;
  m.learners = trainer.num_agents();
  m.num_options = kNumOptions;
  m.num_lanes = trainer.world().track().num_lanes();
  m.hl_obs_dim = static_cast<long long>(trainer.world().high_level_obs_dim());
  m.ll_obs_dim = static_cast<long long>(trainer.world().low_level_obs_dim());

  for (int i = 0; i < kNumOptions; ++i) {
    const Option o = option_from_index(i);
    if (!trainer.skills().has_agent(o)) continue;
    auto& skill = trainer.skills().agent(o);
    const std::string base = option_name(o);
    m.shapes[base + "_actor"] = dims_string(skill.policy().net().layer_dims());
    m.shapes[base + "_q1"] = dims_string(skill.critic1().layer_dims());
    m.shapes[base + "_q2"] = dims_string(skill.critic2().layer_dims());
  }
  for (int k = 0; k < trainer.num_agents(); ++k) {
    auto& agent = trainer.agent(k);
    const std::string base = "agent" + std::to_string(k);
    m.shapes[base + "_actor"] =
        dims_string(agent.high_level().actor().net().layer_dims());
    m.shapes[base + "_critic"] = dims_string(agent.high_level().critic().layer_dims());
    for (int j = 0; j < agent.opponents().num_opponents(); ++j) {
      m.shapes[base + "_opp" + std::to_string(j)] =
          dims_string(agent.opponents().net(j).layer_dims());
    }
  }

  // Digest over the architecture only (not the build fields): two builds of
  // the same config produce the same digest.
  std::ostringstream canon;
  canon << "v" << m.format_version << " learners=" << m.learners
        << " options=" << m.num_options << " lanes=" << m.num_lanes
        << " hl=" << m.hl_obs_dim << " ll=" << m.ll_obs_dim;
  for (const auto& [name, shape] : m.shapes) canon << " " << name << "=" << shape;
  m.config_digest = obs::config_digest(canon.str());
  return m;
}

std::string manifest_to_json(const CheckpointManifest& m) {
  std::string out = "{\n";
  out += "  \"checkpoint_format\": " + std::to_string(m.format_version) + ",\n";
  out += "  \"git_sha\": \"";
  append_escaped(out, m.git_sha);
  out += "\",\n  \"build_type\": \"";
  append_escaped(out, m.build_type);
  out += "\",\n  \"config_digest\": \"";
  append_escaped(out, m.config_digest);
  out += "\",\n";
  out += "  \"learners\": " + std::to_string(m.learners) + ",\n";
  out += "  \"num_options\": " + std::to_string(m.num_options) + ",\n";
  out += "  \"num_lanes\": " + std::to_string(m.num_lanes) + ",\n";
  out += "  \"hl_obs_dim\": " + std::to_string(m.hl_obs_dim) + ",\n";
  out += "  \"ll_obs_dim\": " + std::to_string(m.ll_obs_dim) + ",\n";
  out += "  \"shapes\": {";
  bool first = true;
  for (const auto& [name, shape] : m.shapes) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, name);
    out += "\": \"";
    append_escaped(out, shape);
    out += "\"";
  }
  out += "\n  }\n}\n";
  return out;
}

bool read_manifest(const std::string& dir, CheckpointManifest* out) {
  const std::string path = dir + "/checkpoint.json";
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();

  obs::JsonValue doc;
  std::string err;
  if (!obs::JsonValue::parse(buf.str(), doc, &err)) {
    manifest_error(path, "malformed JSON: " + err);
  }
  if (!doc.is_object()) manifest_error(path, "top-level value must be an object");
  const auto field = [&](const std::string& key) -> const obs::JsonValue& {
    const obs::JsonValue* v = doc.find(key);
    if (!v) manifest_error(path, "missing field \"" + key + "\"");
    return *v;
  };
  const auto int_field = [&](const std::string& key) {
    const obs::JsonValue& v = field(key);
    if (!v.is_number() || !obs::is_int(v.num_v)) {
      manifest_error(path, "field \"" + key + "\" must be an integer");
    }
    return static_cast<int>(v.num_v);
  };
  const auto string_field = [&](const std::string& key) {
    const obs::JsonValue& v = field(key);
    if (!v.is_string()) manifest_error(path, "field \"" + key + "\" must be a string");
    return v.str_v;
  };

  CheckpointManifest m;
  m.format_version = int_field("checkpoint_format");
  m.git_sha = string_field("git_sha");
  m.build_type = string_field("build_type");
  m.config_digest = string_field("config_digest");
  m.learners = int_field("learners");
  m.num_options = int_field("num_options");
  m.num_lanes = int_field("num_lanes");
  m.hl_obs_dim = int_field("hl_obs_dim");
  m.ll_obs_dim = int_field("ll_obs_dim");
  const obs::JsonValue& shapes = field("shapes");
  if (!shapes.is_object()) manifest_error(path, "field \"shapes\" must be an object");
  for (const auto& [name, shape] : shapes.members) {
    if (!shape.is_string()) {
      manifest_error(path, "field \"shapes\": \"" + name + "\" must be a string");
    }
    m.shapes[name] = shape.str_v;
  }
  *out = m;
  return true;
}

void write_manifest(const std::string& dir, const CheckpointManifest& m) {
  const std::string path = dir + "/checkpoint.json";
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write checkpoint manifest " + path);
  }
  out << manifest_to_json(m);
  if (!out) {
    throw std::runtime_error("failed writing checkpoint manifest " + path);
  }
}

void validate_manifest(const CheckpointManifest& on_disk,
                       const CheckpointManifest& expected,
                       const std::string& dir) {
  std::ostringstream err;
  int problems = 0;
  const auto mismatch = [&](const std::string& what, const std::string& disk,
                            const std::string& want) {
    err << (problems++ ? "; " : "") << what << ": checkpoint has " << disk
        << ", this build expects " << want;
  };

  if (on_disk.format_version != expected.format_version) {
    mismatch("format version", std::to_string(on_disk.format_version),
             std::to_string(expected.format_version));
  }
  if (on_disk.learners != expected.learners) {
    mismatch("learners", std::to_string(on_disk.learners),
             std::to_string(expected.learners));
  }
  if (on_disk.num_options != expected.num_options) {
    mismatch("num_options", std::to_string(on_disk.num_options),
             std::to_string(expected.num_options));
  }
  if (on_disk.num_lanes != expected.num_lanes) {
    mismatch("num_lanes", std::to_string(on_disk.num_lanes),
             std::to_string(expected.num_lanes));
  }
  if (on_disk.hl_obs_dim != expected.hl_obs_dim) {
    mismatch("hl_obs_dim", std::to_string(on_disk.hl_obs_dim),
             std::to_string(expected.hl_obs_dim));
  }
  if (on_disk.ll_obs_dim != expected.ll_obs_dim) {
    mismatch("ll_obs_dim", std::to_string(on_disk.ll_obs_dim),
             std::to_string(expected.ll_obs_dim));
  }
  // Shapes: every component this build will load must exist on disk with the
  // same architecture. Extra on-disk components (e.g. a bigger run's agents)
  // already show up as a learner-count mismatch above.
  for (const auto& [name, shape] : expected.shapes) {
    auto it = on_disk.shapes.find(name);
    if (it == on_disk.shapes.end()) {
      err << (problems++ ? "; " : "") << "component \"" << name
          << "\" missing from checkpoint";
    } else if (it->second != shape) {
      mismatch("shape of \"" + name + "\"", it->second, shape);
    }
  }
  if (problems > 0) {
    throw std::runtime_error("checkpoint " + dir +
                             " is incompatible with this configuration (" +
                             err.str() + ")");
  }
}

CheckpointManifest load_checkpoint(HeroTrainer& trainer, const std::string& dir,
                                   bool* legacy) {
  const CheckpointManifest expected = manifest_of(trainer);
  CheckpointManifest on_disk;
  const bool has_manifest = read_manifest(dir, &on_disk);
  if (legacy != nullptr) *legacy = !has_manifest;
  if (has_manifest) validate_manifest(on_disk, expected, dir);
  trainer.load(dir);
  return has_manifest ? on_disk : expected;
}

namespace {

// "34:32:32:4" → {34, 32, 32, 4}; throws on anything else.
std::vector<std::size_t> parse_dims(const std::string& name,
                                    const std::string& s) {
  std::vector<std::size_t> dims;
  std::size_t value = 0;
  bool in_number = false;
  for (char ch : s) {
    if (ch >= '0' && ch <= '9') {
      value = value * 10 + static_cast<std::size_t>(ch - '0');
      in_number = true;
    } else if (ch == ':' && in_number) {
      dims.push_back(value);
      value = 0;
      in_number = false;
    } else {
      throw std::runtime_error("checkpoint manifest: malformed shape for \"" +
                               name + "\": \"" + s + "\"");
    }
  }
  if (in_number) dims.push_back(value);
  if (dims.size() < 2) {
    throw std::runtime_error("checkpoint manifest: malformed shape for \"" +
                             name + "\": \"" + s + "\"");
  }
  return dims;
}

// The hidden widths are every layer but the first (input) and last (output).
std::vector<std::size_t> hidden_of(const std::string& name,
                                   const std::string& shape) {
  const auto dims = parse_dims(name, shape);
  return {dims.begin() + 1, dims.end() - 1};
}

}  // namespace

void apply_manifest_geometry(const CheckpointManifest& m, HeroConfig* cfg) {
  for (const auto& [name, shape] : m.shapes) {
    if (name == "agent0_actor") {
      cfg->high.hidden = hidden_of(name, shape);
    } else if (name == "agent0_opp0") {
      cfg->opponent.hidden = hidden_of(name, shape);
    } else if (name.rfind("agent", 0) != 0 &&
               name.size() > 6 &&
               name.compare(name.size() - 6, 6, "_actor") == 0) {
      // A skill actor (e.g. "accelerate_actor") — all skills share one width.
      cfg->skill.sac.hidden = hidden_of(name, shape);
    }
  }
}

}  // namespace hero::core
