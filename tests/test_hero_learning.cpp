// Tests for HERO's learning components: the opponent model, the high-level
// actor–critic, and the semi-MDP bookkeeping of stage-2 collection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "hero/batched_rollout.h"
#include "hero/hero_agent.h"
#include "sim/scenario.h"

namespace hero::core {
namespace {

// ------------------------------------------------------- OpponentModel ----

TEST(OpponentModel, UniformBeforeEnoughSamples) {
  Rng rng(1);
  OpponentModelConfig cfg;
  OpponentModel model(4, 2, cfg, rng);
  auto p = model.predict(0, {0.1, 0.2, 0.3, 0.4});
  for (double v : p) EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_EQ(model.feature_dim(), 2u * kNumOptions);
}

TEST(OpponentModel, LearnsDeterministicRule) {
  Rng rng(2);
  OpponentModelConfig cfg;
  cfg.min_samples = 32;
  OpponentModel model(2, 1, cfg, rng);

  // Rule: obs[0] > 0 → kLaneChange, else kSlowDown.
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    model.observe(0, {x, 0.5},
                  x > 0 ? Option::kLaneChange : Option::kSlowDown);
    model.update(0, rng);
  }
  auto p_pos = model.predict(0, {0.8, 0.5});
  auto p_neg = model.predict(0, {-0.8, 0.5});
  EXPECT_GT(p_pos[static_cast<int>(Option::kLaneChange)], 0.8);
  EXPECT_GT(p_neg[static_cast<int>(Option::kSlowDown)], 0.8);
}

TEST(OpponentModel, LossDecreasesOverTraining) {
  Rng rng(3);
  OpponentModelConfig cfg;
  cfg.min_samples = 32;
  OpponentModel model(2, 1, cfg, rng);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    model.observe(0, {x, 0.0}, x > 0 ? Option::kAccelerate : Option::kKeepLane);
    model.update(0, rng);
  }
  const auto& hist = model.loss_history()[0];
  ASSERT_GT(hist.size(), 100u);
  double early = 0, late = 0;
  for (std::size_t i = 0; i < 20; ++i) early += hist[i];
  for (std::size_t i = hist.size() - 20; i < hist.size(); ++i) late += hist[i];
  EXPECT_LT(late, early);
}

TEST(OpponentModel, PredictAllConcatenates) {
  Rng rng(4);
  OpponentModelConfig cfg;
  OpponentModel model(3, 2, cfg, rng);
  auto all = model.predict_all({0.0, 0.0, 0.0});
  EXPECT_EQ(all.size(), 2u * kNumOptions);
  double s = 0;
  for (double v : all) s += v;
  EXPECT_NEAR(s, 2.0, 1e-9);  // two distributions
}

TEST(OpponentModel, EntropyRegularizationKeepsPredictionsSoft) {
  // With a high λ the model must not saturate to one-hot even on a
  // deterministic rule.
  Rng rng(5);
  OpponentModelConfig sharp;
  sharp.entropy_lambda = 0.0;
  sharp.min_samples = 32;
  OpponentModelConfig soft;
  soft.entropy_lambda = 1.0;
  soft.min_samples = 32;
  OpponentModel m_sharp(1, 1, sharp, rng);
  OpponentModel m_soft(1, 1, soft, rng);
  for (int i = 0; i < 800; ++i) {
    m_sharp.observe(0, {0.5}, Option::kLaneChange);
    m_soft.observe(0, {0.5}, Option::kLaneChange);
    m_sharp.update(0, rng);
    m_soft.update(0, rng);
  }
  const double p_sharp = m_sharp.predict(0, {0.5})[static_cast<int>(Option::kLaneChange)];
  const double p_soft = m_soft.predict(0, {0.5})[static_cast<int>(Option::kLaneChange)];
  EXPECT_GT(p_sharp, p_soft);
  EXPECT_LT(p_soft, 0.95);
}

// ------------------------------------------------------ HighLevelAgent ----

HighLevelConfig fast_high() {
  HighLevelConfig cfg;
  cfg.batch = 16;
  cfg.warmup_transitions = 16;
  return cfg;
}

TEST(HighLevelAgent, SelectsValidOptions) {
  Rng rng(6);
  HighLevelAgent agent(4, 2, fast_high(), rng);
  std::vector<double> obs = {0.1, 0.2, 0.3, 0.4};
  std::vector<double> block(2 * kNumOptions, 0.25);
  for (int i = 0; i < 50; ++i) {
    int o = agent.select_option(obs, block, rng, /*explore=*/true);
    EXPECT_GE(o, 0);
    EXPECT_LT(o, kNumOptions);
  }
}

TEST(HighLevelAgent, GreedyIsArgmaxOfProbs) {
  Rng rng(7);
  HighLevelConfig cfg = fast_high();
  cfg.eps_start = 0.0;  // pure policy
  HighLevelAgent agent(4, 1, cfg, rng);
  std::vector<double> obs = {0.5, -0.5, 0.1, 0.0};
  std::vector<double> block(kNumOptions, 0.25);
  auto probs = agent.option_probs(obs, block);
  int greedy = agent.select_option(obs, block, rng, /*explore=*/false);
  EXPECT_EQ(greedy, static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                                     probs.begin()));
}

TEST(HighLevelAgent, NoUpdateBeforeWarmup) {
  Rng rng(8);
  HighLevelAgent agent(4, 1, fast_high(), rng);
  OpponentModel opp(4, 1, OpponentModelConfig{}, rng);
  EXPECT_FALSE(agent.update(opp, rng).updated);
}

TEST(HighLevelAgent, UpdateRunsAfterWarmup) {
  Rng rng(9);
  HighLevelAgent agent(4, 1, fast_high(), rng);
  OpponentModel opp(4, 1, OpponentModelConfig{}, rng);
  for (int i = 0; i < 32; ++i) {
    agent.store({{0.1, 0.2, 0.3, 0.4},
                 std::vector<double>(kNumOptions, 0.25),
                 static_cast<int>(rng.index(kNumOptions)),
                 rng.normal(),
                 0.95,
                 {0.2, 0.3, 0.4, 0.5},
                 i % 5 == 0});
  }
  auto stats = agent.update(opp, rng);
  EXPECT_TRUE(stats.updated);
  EXPECT_GE(stats.critic_loss, 0.0);
  EXPECT_GT(stats.actor_entropy, 0.0);
}

TEST(HighLevelAgent, CriticLearnsOptionValues) {
  // One state, option 2 always pays +1 (terminal), others pay −1: after
  // training, the greedy policy must pick option 2.
  Rng rng(10);
  HighLevelConfig cfg = fast_high();
  cfg.eps_start = 0.0;
  cfg.entropy_coef = 0.005;
  HighLevelAgent agent(2, 1, cfg, rng);
  OpponentModel opp(2, 1, OpponentModelConfig{}, rng);
  std::vector<double> obs = {0.3, 0.7};
  std::vector<double> block(kNumOptions, 0.25);
  for (int i = 0; i < 400; ++i) {
    const int o = static_cast<int>(rng.index(kNumOptions));
    agent.store({obs, block, o, o == 2 ? 1.0 : -1.0, 0.95, obs, /*done=*/true});
    agent.update(opp, rng);
  }
  EXPECT_EQ(agent.select_option(obs, block, rng, /*explore=*/false), 2);
}

TEST(HighLevelAgent, MaxBootstrapPropagatesValueAgainstThePolicy) {
  // Two-state chain: state A, option 2 leads (done-free) to state B where
  // option 0 pays +10 on termination; every other option pays 0. The actor
  // is never trained toward option 2 in A (we only run critic updates with
  // a frozen adversarial actor via high entropy), yet with the max
  // bootstrap Q(A, 2) must approach γ^c·10.
  Rng rng(20);
  HighLevelConfig cfg = fast_high();
  cfg.bootstrap = Bootstrap::kMax;
  cfg.lr = 0.01;
  HighLevelAgent agent(1, 1, cfg, rng);
  OpponentModel opp(1, 1, OpponentModelConfig{}, rng);

  const std::vector<double> A = {0.0}, B = {1.0};
  const std::vector<double> block(kNumOptions, 0.25);
  // γ^c = 0.7: looping one extra option in A must visibly cost value.
  for (int i = 0; i < 600; ++i) {
    const int o = static_cast<int>(rng.index(kNumOptions));
    // From A: option 2 transitions to B, others loop in A, reward 0.
    agent.store({A, block, o, 0.0, 0.7, o == 2 ? B : A, false});
    // From B: option 0 terminates with +10, others loop with 0.
    const int o2 = static_cast<int>(rng.index(kNumOptions));
    agent.store({B, block, o2, o2 == 0 ? 10.0 : 0.0, 0.7, B, o2 == 0});
    agent.update(opp, rng);
  }
  // Probe the critic directly.
  auto q_of = [&](const std::vector<double>& s, int o) {
    std::vector<double> in = s;
    for (int a = 0; a < kNumOptions; ++a) in.push_back(a == o ? 1.0 : 0.0);
    in.insert(in.end(), block.begin(), block.end());
    return agent.critic().forward1(in)[0];
  };
  // True values: Q(B,0) = 10; Q(A,2) = 0.7·10 = 7; Q(A,loop) = 0.7·7 = 4.9.
  EXPECT_GT(q_of(B, 0), 8.0);           // terminal payoff learned
  EXPECT_GT(q_of(A, 2), 5.5);           // propagated through the max bootstrap
  EXPECT_GT(q_of(A, 2), q_of(A, 1) + 1.0);  // beats the looping options
}

// ----------------------------------------------------------- HeroAgent ----

sim::LaneWorld coop_world() {
  return sim::LaneWorld(sim::cooperative_lane_change().config);
}

TEST(HeroAgent, LaneChangeTargetsOtherLane) {
  Rng rng(14);
  auto world = coop_world();
  world.reset(rng);
  HeroAgent agent(world.high_level_obs_dim(), 2, fast_high(), OpponentModelConfig{},
                  TerminationConfig{}, rng);
  // Force a lane-change selection by trying until it happens (ε start 0.5).
  bool saw_change = false;
  for (int i = 0; i < 200 && !saw_change; ++i) {
    agent.select_initial(world, 1, rng, true);
    if (agent.execution().option == Option::kLaneChange) {
      saw_change = true;
      // Vehicle 1 (the merger) starts in lane 0 → target must be lane 1.
      EXPECT_EQ(agent.execution().target_lane, 1);
    }
  }
  EXPECT_TRUE(saw_change);
}

// ------------------------------------------------------ BatchedRollout ----
//
// Stage 2 collects only through BatchedRollout, so its semi-MDP bookkeeping
// is checked on a real round: every lane and every agent of it.

// One round of kLanes episodes on cooperative_lane_change() from untrained
// networks, at high-level discount `gamma`. Not movable: the rollout keeps
// references to the skill bank and the agent roster.
class CollectedRound {
 public:
  static constexpr std::size_t kLanes = 4;

  explicit CollectedRound(double gamma) : sc_(sim::cooperative_lane_change()) {
    Rng rng(19);
    const sim::LaneWorld world(sc_.config);
    const SkillConfig skill;
    skills_ = std::make_unique<SkillBank>(world.low_level_obs_dim(), skill, rng);
    HighLevelConfig high = fast_high();
    high.gamma = gamma;
    n_ = world.num_learners();
    for (int k = 0; k < n_; ++k) {
      agents_.push_back(std::make_unique<HeroAgent>(world.high_level_obs_dim(), n_ - 1,
                                                    high, OpponentModelConfig{},
                                                    skill.termination, rng));
    }
    rollout_ = std::make_unique<BatchedRollout>(sc_, high, skill.termination, *skills_,
                                                agents_, static_cast<int>(kLanes));
    rollout_->run_round(/*root=*/7, /*first=*/0, kLanes, /*observing=*/true);
  }
  CollectedRound(const CollectedRound&) = delete;
  CollectedRound& operator=(const CollectedRound&) = delete;

  int agents() const { return n_; }
  const BatchedEpisode& episode(std::size_t lane) { return rollout_->episode(lane); }
  const std::vector<OptionTransition>& transitions(std::size_t lane, int k) {
    return episode(lane).high[static_cast<std::size_t>(k)];
  }

 private:
  sim::Scenario sc_;
  std::unique_ptr<SkillBank> skills_;
  std::vector<std::unique_ptr<HeroAgent>> agents_;
  std::unique_ptr<BatchedRollout> rollout_;
  int n_ = 0;
};

TEST(BatchedRollout, TransitionsChainNextObsToObs) {
  // A β_o firing closes the pending transition at the observation the next
  // option is selected from.
  CollectedRound round(0.9);
  std::size_t chained = 0;
  for (std::size_t lane = 0; lane < CollectedRound::kLanes; ++lane) {
    for (int k = 0; k < round.agents(); ++k) {
      const auto& ts = round.transitions(lane, k);
      ASSERT_FALSE(ts.empty()) << "lane " << lane << " agent " << k;
      for (std::size_t i = 0; i + 1 < ts.size(); ++i, ++chained) {
        EXPECT_EQ(ts[i].next_obs, ts[i + 1].obs)
            << "lane " << lane << " agent " << k << " transition " << i;
      }
    }
  }
  EXPECT_GT(chained, 0u);  // options are short enough to re-select in-episode
}

TEST(BatchedRollout, OnlyLastTransitionIsDone) {
  CollectedRound round(0.9);
  for (std::size_t lane = 0; lane < CollectedRound::kLanes; ++lane) {
    for (int k = 0; k < round.agents(); ++k) {
      const auto& ts = round.transitions(lane, k);
      ASSERT_FALSE(ts.empty());
      for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_EQ(ts[i].done, i + 1 == ts.size())
            << "lane " << lane << " agent " << k << " transition " << i;
      }
    }
  }
}

TEST(BatchedRollout, StoresActualOpponentOptionsOneHot) {
  CollectedRound round(0.9);
  const int opponents = round.agents() - 1;
  for (std::size_t lane = 0; lane < CollectedRound::kLanes; ++lane) {
    for (int k = 0; k < round.agents(); ++k) {
      for (const auto& t : round.transitions(lane, k)) {
        ASSERT_EQ(t.opp_actual.size(),
                  static_cast<std::size_t>(opponents) * kNumOptions);
        double total = 0.0;
        for (int j = 0; j < opponents; ++j) {
          int ones = 0;
          for (int o = 0; o < kNumOptions; ++o) {
            const double v = t.opp_actual[static_cast<std::size_t>(j * kNumOptions + o)];
            EXPECT_TRUE(v == 0.0 || v == 1.0) << v;
            if (v == 1.0) ++ones;
            total += v;
          }
          EXPECT_EQ(ones, 1) << "lane " << lane << " agent " << k << " opponent " << j;
        }
        EXPECT_EQ(total, static_cast<double>(opponents));
      }
    }
  }
}

TEST(BatchedRollout, DiscountPowersCountEpisodeSteps) {
  // Each primitive step discounts exactly one pending transition per agent,
  // so Σ log_γ(γ^c) over an agent's transitions is the episode length.
  constexpr double kGamma = 0.9;
  CollectedRound round(kGamma);
  for (std::size_t lane = 0; lane < CollectedRound::kLanes; ++lane) {
    const int steps = round.episode(lane).stats.steps;
    ASSERT_GT(steps, 0);
    for (int k = 0; k < round.agents(); ++k) {
      double held = 0.0;
      for (const auto& t : round.transitions(lane, k)) {
        held += std::log(t.gamma_pow) / std::log(kGamma);
      }
      EXPECT_NEAR(held, steps, 1e-6) << "lane " << lane << " agent " << k;
    }
  }
}

TEST(BatchedRollout, SemiMdpRewardAccumulation) {
  // At γ = 1 the option rewards partition each agent's per-step rewards, so
  // their mean over agents is the episode's team reward.
  CollectedRound round(1.0);
  for (std::size_t lane = 0; lane < CollectedRound::kLanes; ++lane) {
    double mean = 0.0;
    for (int k = 0; k < round.agents(); ++k) {
      for (const auto& t : round.transitions(lane, k)) {
        EXPECT_EQ(t.gamma_pow, 1.0);
        mean += t.reward;
      }
    }
    mean /= round.agents();
    const double team = round.episode(lane).stats.team_reward;
    EXPECT_NEAR(mean, team, 1e-9 * std::max(1.0, std::abs(team))) << "lane " << lane;
  }
}

// The high-level update's hot path replaced per-row predict_all_into calls
// with one batched predict_all_rows per minibatch; the swap is only legal if
// the two produce bitwise-identical blocks (the update math, and therefore
// the determinism contract, rides on it).
TEST(OpponentModel, BatchedRowsMatchPerRowPredictions) {
  Rng rng(21);
  const std::size_t obs_dim = 3;
  OpponentModelConfig cfg;
  cfg.min_samples = 16;
  OpponentModel model(obs_dim, 2, cfg, rng);

  auto check_batch_matches = [&](const char* phase) {
    const std::size_t B = 7;
    nn::Matrix rows(B, obs_dim);
    std::vector<double> obs(obs_dim);
    Rng data(77);
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t d = 0; d < obs_dim; ++d) {
        rows.row_ptr(b)[d] = data.uniform(-1.0, 1.0);
      }
    }
    nn::Matrix batched;
    model.predict_all_rows(rows, batched);
    ASSERT_EQ(batched.rows(), B);
    ASSERT_EQ(batched.cols(), model.feature_dim());
    std::vector<double> row(model.feature_dim());
    for (std::size_t b = 0; b < B; ++b) {
      std::copy(rows.row_ptr(b), rows.row_ptr(b) + obs_dim, obs.begin());
      model.predict_all_into(obs, row.data());
      for (std::size_t f = 0; f < row.size(); ++f) {
        // Bitwise, not approximate: the batched kernel must be a pure
        // reshape of the per-row computation.
        EXPECT_EQ(batched.row_ptr(b)[f], row[f]) << phase << " b=" << b << " f=" << f;
      }
    }
  };

  check_batch_matches("uniform-prior");  // below min_samples: both uniform

  Rng data(5);
  for (int i = 0; i < 200; ++i) {
    const double x = data.uniform(-1.0, 1.0);
    model.observe(0, {x, 0.0, 0.5}, x > 0 ? Option::kLaneChange : Option::kSlowDown);
    model.observe(1, {x, 0.0, 0.5}, x > 0 ? Option::kAccelerate : Option::kKeepLane);
    model.update_all(data);
  }
  check_batch_matches("trained");
}

}  // namespace
}  // namespace hero::core
