// Checkpointing: saves/loads the flat parameter list of a network to a
// simple self-describing text format (shape header + values). Used to carry
// trained low-level skills into the high-level training stage and to deploy
// simulation policies onto the "real-world" (domain-shifted) evaluation.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/mlp.h"

namespace hero::nn {

void save_params(Mlp& net, std::ostream& os);
// Reads `is` to its end and loads it into `net`. Anything but one stream
// save_params() wrote for this architecture throws std::runtime_error
// naming the fault: not a herockpt v1 stream, a parameter count or shape
// mismatch, a truncated stream (a missing value), a malformed, non-finite
// or out-of-range value, or trailing data.
void load_params(Mlp& net, std::istream& is);

void save_params_file(Mlp& net, const std::string& path);
void load_params_file(Mlp& net, const std::string& path);

}  // namespace hero::nn
