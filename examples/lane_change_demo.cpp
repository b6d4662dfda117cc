// lane_change_demo: renders cooperative lane-change episodes as ASCII
// frames. Drives the scenario either with a hand-written rule controller
// (default, instant) or with a freshly-trained HERO policy (--train).
//
// Run:  ./lane_change_demo [--train] [--episodes 2] [--seed S]
#include <algorithm>
#include <cmath>
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
// mid-manoeuvre. Useful as a readable reference behaviour. Like every
// controller it reads only what a batch slot carries: the ego scalars, the
// high-level rows, the track and the control period.
class RuleController : public hero::rl::Controller {
 public:
  // `merger` is the merging vehicle's learner index.
  explicit RuleController(int merger) : merger_(merger) {}

  void act_rows_into(const hero::rl::ObsBatch& batch, hero::Rng* const* rngs,
                     bool explore, TwistCmd* cmds_out) override {
    (void)rngs;
    (void)explore;
    const int n = batch.num_learners();
    if (merging_.size() < batch.count()) merging_.resize(batch.count(), false);
    for (std::size_t s = 0; s < batch.count(); ++s) {
      const hero::rl::ObsBatch::SlotMeta& slot = batch.slot(s);
      if (!slot.active) continue;
      // The "option" state: commit to a started lane change.
      if (slot.reset) merging_[s] = false;
      const auto& m = batch.scalars(s, merger_);
      const double target_c = slot.track->lane_center(1);
      // Commit/terminate the merge manoeuvre (mirrors an option's β_o): start
      // when blocked, finish only when settled in the target lane.
      if (!merging_[s] && m.lane == 0 && batch.hl_row(s, merger_)[0] < 0.45) {
        merging_[s] = true;
      }
      if (merging_[s] && std::abs(m.y - target_c) < 0.05 &&
          std::abs(m.heading) < 0.15) {
        merging_[s] = false;
      }
      const bool merging = merging_[s];

      for (int k = 0; k < n; ++k) {
        const auto& sc = batch.scalars(s, k);
        const double front_gap = batch.hl_row(s, k)[0];  // beam 0: straight ahead
        TwistCmd& cmd = cmds_out[s * static_cast<std::size_t>(n) +
                                 static_cast<std::size_t>(k)];
        if (k == merger_) {
          const int goal_lane = merging ? 1 : sc.lane;
          const double y_err = slot.track->lane_center(goal_lane) - sc.y;
          const double theta_des = std::clamp(2.5 * y_err, -0.6, 0.6);
          const double w_cap = merging ? 0.25 : 0.1;
          const double w =
              std::clamp((theta_des - sc.heading) / slot.dt, -w_cap, w_cap);
          const double v = merging ? 0.14 : (front_gap < 0.2 ? 0.05 : 0.12);
          cmd = {v, w};
        } else {
          // Yield while the merger is manoeuvring; never tailgate.
          double v = merging ? 0.06 : 0.12;
          if (front_gap < 0.15) v = 0.05;
          cmd = {v, 0.0};
        }
      }
    }
  }

 private:
  int merger_;
  std::vector<bool> merging_;  // per slot
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
  hero::sim::LaneWorld world(scenario.config);

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
    const auto& learners = world.learners();
    const auto merger =
        std::find(learners.begin(), learners.end(), scenario.merger_index);
    controller = std::make_unique<RuleController>(
        static_cast<int>(merger - learners.begin()));
  }

  for (int ep = 0; ep < episodes; ++ep) {
    std::printf("--- episode %d ---\n", ep + 1);
    world.reset(rng);
    controller->begin_episode();
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
