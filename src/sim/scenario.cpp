#include "sim/scenario.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace hero::sim {

Scenario cooperative_lane_change(int num_learners) {
  HERO_CHECK_MSG(num_learners >= 1, "need at least one learner");
  Scenario sc;
  LaneWorldConfig& cfg = sc.config;
  cfg.track.circumference = 8.0;
  cfg.track.lane_width = 0.35;
  cfg.track.num_lanes = 2;
  cfg.dt = 0.5;
  cfg.max_steps = 30;
  // Team-mean travel: at the episode budgets of the single-core benches the
  // fully-shared reward learns collision avoidance far more reliably than
  // the per-vehicle form (see EXPERIMENTS.md, calibration note 2).
  cfg.shared_travel = true;

  // Geometry calibrated to the paper's Fig. 9 testbed, where vehicles keep
  // one-to-several car lengths of headway: the merge is comfortably feasible
  // when the lane-1 vehicles cooperate (yield), marginal when they keep
  // accelerating, and impossible to avoid a rear-end (within the episode)
  // for a merger that simply drives on.

  // Learner "vehicle 2": blocked behind the plodder in lane 0, must merge.
  VehicleSpec merger;
  merger.start_lane = 0;
  merger.start_x = 1.2;
  merger.start_x_jitter = 0.15;
  merger.start_speed = 0.10;

  // Learner "vehicle 1": lane 1, behind the merge point — the one that has
  // to yield while the merger crosses.
  VehicleSpec yielder;
  yielder.start_lane = 1;
  yielder.start_x = 0.9;
  yielder.start_x_jitter = 0.15;
  yielder.start_speed = 0.10;

  // Learner "vehicle 3": lane 1, further upstream.
  VehicleSpec follower;
  follower.start_lane = 1;
  follower.start_x = -0.5;
  follower.start_x_jitter = 0.15;
  follower.start_speed = 0.10;

  // Scripted "vehicle 4": plodding congestion in lane 0.
  VehicleSpec plodder;
  plodder.start_lane = 0;
  plodder.start_x = 2.5;
  plodder.start_x_jitter = 0.05;
  plodder.scripted = true;
  plodder.scripted_speed = 0.04;

  // Order: [yielder, merger, follower, extra..., plodder]; merger_index = 1
  // mirrors the paper's "vehicle 2". A single-learner scenario keeps only
  // the merger (it becomes index 0).
  if (num_learners >= 2) cfg.specs.push_back(yielder);
  cfg.specs.push_back(merger);
  if (num_learners >= 3) cfg.specs.push_back(follower);
  // Additional learners (scalability studies) spread upstream in lane 1.
  for (int extra = 3; extra < num_learners; ++extra) {
    VehicleSpec v = follower;
    v.start_x = follower.start_x - 0.9 * static_cast<double>(extra - 2);
    cfg.specs.push_back(v);
  }
  cfg.specs.push_back(plodder);

  sc.merger_index = num_learners >= 2 ? 1 : 0;
  sc.merger_target_lane = 1;
  return sc;
}

Scenario overtaking_gauntlet(int num_learners) {
  HERO_CHECK_MSG(num_learners >= 1, "need at least one learner");
  Scenario sc;
  LaneWorldConfig& cfg = sc.config;
  cfg.track.circumference = 10.0;
  cfg.track.lane_width = 0.35;
  cfg.track.num_lanes = 2;
  cfg.dt = 0.5;
  cfg.max_steps = 40;  // weaving needs more room than the single merge
  cfg.shared_travel = true;

  // Learners start bunched in lane 0.
  for (int i = 0; i < num_learners; ++i) {
    VehicleSpec v;
    v.start_lane = 0;
    v.start_x = 0.0 - 0.8 * static_cast<double>(i);
    v.start_x_jitter = 0.2;
    v.start_speed = 0.10;
    cfg.specs.push_back(v);
  }

  // Staggered blockers: lane 0 ahead, lane 1 further ahead — passing one
  // blocker puts the learner behind the next in the other lane.
  VehicleSpec blocker0;
  blocker0.start_lane = 0;
  blocker0.start_x = 1.6;
  blocker0.start_x_jitter = 0.1;
  blocker0.scripted = true;
  blocker0.scripted_speed = 0.04;
  cfg.specs.push_back(blocker0);

  VehicleSpec blocker1 = blocker0;
  blocker1.start_lane = 1;
  blocker1.start_x = 3.4;
  cfg.specs.push_back(blocker1);

  sc.merger_index = 0;        // the lead learner must clear lane 0's blocker
  sc.merger_target_lane = 1;  // first manoeuvre: move to lane 1
  return sc;
}

namespace {

[[noreturn]] void scenario_error(const std::string& path, const std::string& what) {
  throw std::runtime_error("load_scenario(" + path + "): " + what);
}

double require_positive(const std::string& path, const char* key, double v) {
  if (!(v > 0.0)) {
    std::ostringstream os;
    os << key << " must be > 0, got " << v;
    scenario_error(path, os.str());
  }
  return v;
}

// An int field must pass obs::is_int; anything else is rejected, not cast.
int require_int(const std::string& path, const char* key, double v) {
  if (!obs::is_int(v)) {
    std::ostringstream os;
    os << key << " must be an integer, got " << v;
    scenario_error(path, os.str());
  }
  return static_cast<int>(v);
}

}  // namespace

Scenario load_scenario(const std::string& path, int num_vehicles_override) {
  std::ifstream in(path);
  if (!in) scenario_error(path, "cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();

  obs::JsonValue doc;
  std::string err;
  if (!obs::JsonValue::parse(buf.str(), doc, &err)) {
    scenario_error(path, "malformed JSON: " + err);
  }
  if (!doc.is_object()) scenario_error(path, "top-level value must be an object");

  Scenario sc;
  LaneWorldConfig& cfg = sc.config;

  if (const obs::JsonValue* track = doc.find("track")) {
    cfg.track.circumference = require_positive(
        path, "track.circumference",
        track->get_number("circumference", cfg.track.circumference));
    cfg.track.lane_width = require_positive(
        path, "track.lane_width",
        track->get_number("lane_width", cfg.track.lane_width));
    cfg.track.num_lanes = require_int(
        path, "track.num_lanes",
        track->get_number("num_lanes", cfg.track.num_lanes));
    if (cfg.track.num_lanes < 1) scenario_error(path, "track.num_lanes must be >= 1");
  }
  cfg.dt = require_positive(path, "dt", doc.get_number("dt", cfg.dt));
  cfg.max_steps =
      require_int(path, "max_steps", doc.get_number("max_steps", cfg.max_steps));
  if (cfg.max_steps < 1) scenario_error(path, "max_steps must be >= 1");
  cfg.alpha = doc.get_number("alpha", cfg.alpha);
  cfg.collision_penalty =
      doc.get_number("collision_penalty", cfg.collision_penalty);
  if (const obs::JsonValue* v = doc.find("shared_travel")) {
    cfg.shared_travel = v->bool_or(cfg.shared_travel);
  }

  const obs::JsonValue* vehicles = doc.find("vehicles");
  const obs::JsonValue* traffic = doc.find("traffic");
  if ((vehicles != nullptr) == (traffic != nullptr)) {
    scenario_error(path, "exactly one of \"vehicles\" or \"traffic\" is required");
  }

  if (vehicles) {
    if (!vehicles->is_array() || vehicles->items.empty()) {
      scenario_error(path, "\"vehicles\" must be a non-empty array");
    }
    if (num_vehicles_override > 0) {
      scenario_error(path, "num_vehicles override needs a \"traffic\" block");
    }
    for (const obs::JsonValue& v : vehicles->items) {
      VehicleSpec sp;
      sp.start_lane = require_int(path, "vehicles[].lane", v.get_number("lane", 0));
      sp.start_x = v.get_number("x", 0.0);
      sp.start_x_jitter = v.get_number("x_jitter", 0.0);
      sp.start_speed = v.get_number("speed", sp.start_speed);
      if (const obs::JsonValue* s = v.find("scripted")) {
        sp.scripted = s->bool_or(false);
      }
      sp.scripted_speed = v.get_number("scripted_speed", sp.scripted_speed);
      if (sp.start_lane < 0 || sp.start_lane >= cfg.track.num_lanes) {
        scenario_error(path, "vehicle lane outside the track");
      }
      cfg.specs.push_back(sp);
    }
  } else {
    // Parameterized dense-traffic generator: num_vehicles spread round-robin
    // across the lanes, evenly spaced along each lane's arc with a per-lane
    // stagger so adjacent lanes do not start as side-by-side walls; every
    // plodder_every-th vehicle is a scripted plodder (mixed congestion).
    int num_vehicles = require_int(path, "traffic.num_vehicles",
                                   traffic->get_number("num_vehicles", 0));
    if (num_vehicles_override > 0) num_vehicles = num_vehicles_override;
    if (num_vehicles < 1) scenario_error(path, "traffic.num_vehicles must be >= 1");
    const int plodder_every = require_int(
        path, "traffic.plodder_every", traffic->get_number("plodder_every", 0));
    const double start_speed = traffic->get_number("start_speed", 0.10);
    const double plodder_speed = traffic->get_number("plodder_speed", 0.04);
    const double jitter = traffic->get_number("start_x_jitter", 0.0);

    const int lanes = cfg.track.num_lanes;
    for (int i = 0; i < num_vehicles; ++i) {
      const int lane = i % lanes;
      const int slot = i / lanes;
      // Vehicles this lane receives under round-robin assignment.
      const int lane_count = (num_vehicles - 1 - lane) / lanes + 1;
      const double spacing = cfg.track.circumference / lane_count;
      if (spacing <= cfg.vehicle.length + 2.0 * jitter) {
        std::ostringstream os;
        os << "lane " << lane << " is oversubscribed: spacing " << spacing
           << " m cannot hold a " << cfg.vehicle.length
           << " m vehicle with ±" << jitter << " m jitter";
        scenario_error(path, os.str());
      }
      VehicleSpec sp;
      sp.start_lane = lane;
      sp.start_x = static_cast<double>(slot) * spacing +
                   static_cast<double>(lane) * spacing /
                       static_cast<double>(lanes);
      sp.start_x_jitter = jitter;
      sp.start_speed = start_speed;
      if (plodder_every > 0 && (i % plodder_every) == plodder_every - 1) {
        sp.scripted = true;
        sp.scripted_speed = plodder_speed;
      }
      cfg.specs.push_back(sp);
    }
  }

  bool any_learner = false;
  for (const VehicleSpec& sp : cfg.specs) any_learner |= !sp.scripted;
  if (!any_learner) scenario_error(path, "scenario has no learner vehicles");

  sc.merger_index =
      require_int(path, "merger_index", doc.get_number("merger_index", 0));
  sc.merger_target_lane = require_int(path, "merger_target_lane",
                                      doc.get_number("merger_target_lane", 1));
  if (sc.merger_index < 0 ||
      sc.merger_index >= static_cast<int>(cfg.specs.size()) ||
      cfg.specs[static_cast<std::size_t>(sc.merger_index)].scripted) {
    scenario_error(path, "merger_index must name a learner vehicle");
  }
  if (sc.merger_target_lane < 0 || sc.merger_target_lane >= cfg.track.num_lanes) {
    scenario_error(path, "merger_target_lane outside the track");
  }
  return sc;
}

LaneWorldConfig skill_training_world(bool with_leader) {
  LaneWorldConfig cfg;
  cfg.track.circumference = 8.0;
  cfg.track.lane_width = 0.35;
  cfg.track.num_lanes = 2;
  cfg.dt = 0.5;
  cfg.max_steps = 30;

  VehicleSpec learner;
  learner.start_lane = 0;
  learner.start_x = 0.0;
  learner.start_x_jitter = 0.5;
  learner.start_speed = 0.10;
  cfg.specs.push_back(learner);

  if (with_leader) {
    VehicleSpec leader;
    leader.start_lane = 0;
    leader.start_x = 1.5;
    leader.start_x_jitter = 0.3;
    leader.scripted = true;
    leader.scripted_speed = 0.05;
    cfg.specs.push_back(leader);
  }
  return cfg;
}

}  // namespace hero::sim
