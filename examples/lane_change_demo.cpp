// lane_change_demo: renders cooperative lane-change episodes as ASCII
// frames. Drives the scenario either with a hand-written rule controller
// (default, instant) or with a freshly-trained HERO policy (--train).
//
// Run:  ./lane_change_demo [--train] [--episodes 2] [--seed S]
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "hero/hero_trainer.h"
#include "rl/controller.h"
#include "sim/scenario.h"
#include "viz/trajectory.h"

namespace {

using hero::sim::LaneWorld;
using hero::sim::TwistCmd;

// A transparent scripted policy: the blocked vehicle changes lane when the
// gap ahead closes; vehicles in the target lane yield (slow) while anyone is
// mid-manoeuvre. Useful as a readable reference behaviour.
class RuleController : public hero::rl::Controller {
 public:
  explicit RuleController(int merger_index) : merger_(merger_index) {}

  void begin_episode(const LaneWorld& world) override {
    (void)world;
    merging_ = false;  // the "option" state: commit to a started lane change
  }

  std::vector<TwistCmd> act(const LaneWorld& world, hero::Rng& rng,
                            bool explore) override {
    (void)rng;
    (void)explore;
    const auto mst = world.state(merger_);
    const double target_c = world.track().lane_center(1);
    // Commit/terminate the merge manoeuvre (mirrors an option's β_o): start
    // when blocked, finish only when settled in the target lane.
    const auto merger_obs = world.high_level_obs(merger_);
    if (!merging_ && world.lane(merger_) == 0 && merger_obs[0] < 0.45) {
      merging_ = true;
    }
    if (merging_ && std::abs(mst.y - target_c) < 0.05 &&
        std::abs(mst.heading) < 0.15) {
      merging_ = false;
    }

    std::vector<TwistCmd> cmds;
    for (int k = 0; k < world.num_learners(); ++k) {
      const int vi = world.learners()[static_cast<std::size_t>(k)];
      const auto obs = world.high_level_obs(vi);
      const double front_gap = obs[0];  // beam 0: straight ahead, normalized
      if (vi == merger_) {
        const int goal_lane = merging_ ? 1 : world.lane(vi);
        const double y_err = world.track().lane_center(goal_lane) -
                             world.state(vi).y;
        const double theta_des = std::clamp(2.5 * y_err, -0.6, 0.6);
        const double w_cap = merging_ ? 0.25 : 0.1;
        const double w = std::clamp(
            (theta_des - world.state(vi).heading) / world.config().dt,
            -w_cap, w_cap);
        const double v = merging_ ? 0.14 : (front_gap < 0.2 ? 0.05 : 0.12);
        cmds.push_back({v, w});
      } else {
        // Yield while the merger is manoeuvring; never tailgate.
        double v = merging_ ? 0.06 : 0.12;
        if (front_gap < 0.15) v = 0.05;
        cmds.push_back({v, 0.0});
      }
    }
    return cmds;
  }

 private:
  int merger_;
  bool merging_ = false;
};

void render(const LaneWorld& world) {
  constexpr int kCols = 72;
  const double c = world.track().circumference();
  std::vector<std::string> rows(2, std::string(kCols, '.'));
  for (int i = 0; i < world.num_vehicles(); ++i) {
    const auto st = world.state(i);
    const int col =
        std::min(kCols - 1, static_cast<int>(st.x / c * kCols));
    const int lane = world.lane(i);
    rows[static_cast<std::size_t>(1 - lane)][static_cast<std::size_t>(col)] =
        static_cast<char>('1' + i);
  }
  std::printf("t=%2d  lane1 |%s|\n", world.steps(), rows[0].c_str());
  std::printf("      lane0 |%s|\n", rows[1].c_str());
}

}  // namespace

int main(int argc, char** argv) {
  hero::Flags flags(argc, argv);
  const bool train = flags.get_bool("train", false);
  const int episodes = flags.get_int("episodes", 2);
  const int train_episodes = flags.get_int("train-episodes", 300);
  const int skill_episodes = flags.get_int("skill-episodes", 300);
  const unsigned seed = static_cast<unsigned>(flags.get_int("seed", 7));
  const std::string svg = flags.get_string("svg", "");
  flags.check_unknown();

  hero::Rng rng(seed);
  auto scenario = hero::sim::cooperative_lane_change();

  std::unique_ptr<hero::rl::Controller> controller;
  std::unique_ptr<hero::core::HeroTrainer> trainer;
  if (train) {
    std::printf("training HERO (%d skill episodes/skill, %d cooperative episodes)...\n",
                skill_episodes, train_episodes);
    trainer = std::make_unique<hero::core::HeroTrainer>(scenario,
                                                        hero::core::HeroConfig{}, rng);
    trainer->train_skills(skill_episodes, rng);
    trainer->train(train_episodes, rng);
    controller = std::move(trainer);
  } else {
    controller = std::make_unique<RuleController>(scenario.merger_index);
  }

  hero::sim::LaneWorld world(scenario.config);
  for (int ep = 0; ep < episodes; ++ep) {
    std::printf("--- episode %d ---\n", ep + 1);
    world.reset(rng);
    controller->begin_episode(world);
    hero::viz::TrajectoryRecorder rec;
    rec.start(world);
    render(world);
    bool collided = false;
    while (!world.done()) {
      auto cmds = controller->act(world, rng, /*explore=*/false);
      auto result = world.step(cmds, rng);
      collided = collided || result.collision;
      rec.record(world, result.collision);
      render(world);
    }
    const bool success = !collided &&
                         world.lane(scenario.merger_index) == scenario.merger_target_lane;
    std::printf("episode %d: %s (merger lane %d%s)\n", ep + 1,
                success ? "SUCCESS" : "no merge", world.lane(scenario.merger_index),
                collided ? ", collision!" : "");
    if (!svg.empty() && ep == 0) {
      rec.render_svg(svg, world.track());
      std::printf("trajectory rendered to %s\n", svg.c_str());
    }
  }
  return 0;
}
