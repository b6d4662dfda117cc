// Versioned checkpoint manifest (docs/SERVING.md, "Checkpoints").
//
// HeroTrainer::save writes `checkpoint.json` next to the tensor files: the
// manifest format version, the producing build (git sha, build type), a
// digest of the architecture, and the exact network shapes (per-component
// Mlp layer widths). Every load reads it once (read_manifest) and
// HeroTrainer::load validates it against the loading trainer's own
// architecture, rejecting version or shape mismatches with an error that
// names both sides, instead of letting nn::load_params fail tensor-by-tensor
// (or worse, silently misread a same-sized file). A directory without a
// manifest is not a checkpoint and is rejected.
//
// Manifest content is fully deterministic (no timestamps, no wall-clock
// fields): the seed-determinism gate compares checkpoint directories
// bitwise (tools/check_determinism.sh).
#pragma once

#include <map>
#include <string>

namespace hero::core {

class HeroTrainer;
struct HeroConfig;

// Bumped whenever the on-disk layout changes incompatibly.
inline constexpr int kCheckpointFormatVersion = 1;

struct CheckpointManifest {
  int format_version = kCheckpointFormatVersion;
  std::string git_sha;        // producing build (informational)
  std::string build_type;     // informational
  std::string config_digest;  // FNV-1a over the canonical shape string
  int learners = 0;
  int num_options = 0;
  int num_lanes = 0;
  long long hl_obs_dim = 0;
  long long ll_obs_dim = 0;
  // Component name → Mlp layer widths as "in:h1:...:out", e.g.
  // "slow_down_actor" → "8:32:32:4". Covers every tensor file the trainer
  // writes (skills, high-level actors/critics, opponent predictors).
  std::map<std::string, std::string> shapes;
};

// The manifest describing `trainer`'s in-memory architecture.
CheckpointManifest manifest_of(HeroTrainer& trainer);

// Canonical JSON (sorted keys, fixed field order) — what save() writes.
std::string manifest_to_json(const CheckpointManifest& m);

// Reads dir/checkpoint.json and bounds its numbers by the checkpoint's own
// tensor files. Throws std::runtime_error naming the file when it is
// missing, unparseable or out of bounds.
CheckpointManifest read_manifest(const std::string& dir);

// Writes dir/checkpoint.json (the directory must exist).
void write_manifest(const std::string& dir, const CheckpointManifest& m);

// Throws std::runtime_error naming every mismatch (format version, learner
// count, obs dims, per-component shapes) between a manifest read from disk
// and the expected one; returns normally when compatible.
void validate_manifest(const CheckpointManifest& on_disk,
                       const CheckpointManifest& expected,
                       const std::string& dir);

// Configures `cfg`'s network widths (high-level actor, opponent predictors,
// skill SAC nets) from the shapes recorded in the manifest, making the
// checkpoint self-describing: hero_serve / hero_eval / hero_loadgen adapt to
// whatever hidden sizes the checkpoint was trained with (hero_train
// --hidden) without geometry flags. Fields whose shapes are absent keep
// their current values. Throws std::runtime_error on a malformed shape
// string.
void apply_manifest_geometry(const CheckpointManifest& m, HeroConfig* cfg);

}  // namespace hero::core
