// Online-stage demo (the paper's Fig. 3 experience in a terminal): a
// simulated smart home streams event logs into a durable ServingEngine,
// which maintains the interaction graph incrementally — each rule embedded
// once, pairwise correlations evaluated once, edge liveness updated in
// place — checks for drift, and raises threat warnings with the culprit
// rules highlighted, including when an attacker strikes. At the end the
// user retires a culprit rule (an O(n) delta, not a rebuild), re-inspects,
// and the engine's state survives a simulated restart: a second engine
// recovers from the write-ahead log + snapshot and renders the identical
// warning.
//
// Every input that would come from an untrusted frontend in production
// (home indices, inspection times) goes through the validating Try* API —
// a bad index is a Status, never an abort.

#include <unistd.h>

#include <cstdio>
#include <string>

#include "core/serving.h"
#include "testbed/attacks.h"
#include "testbed/scenarios.h"

using namespace glint;  // NOLINT

int main() {
  std::printf("== Glint home monitor ==\n\n");

  core::TrainedDetector::Options options;
  options.corpus.ifttt = 500;
  options.corpus.smartthings = 80;
  options.corpus.alexa = 150;
  options.corpus.google_assistant = 80;
  options.corpus.home_assistant = 80;
  options.num_training_graphs = 600;
  options.builder.max_nodes = 10;
  options.builder.size_skew = 2.0;
  options.model.num_scales = 2;
  options.model.embed_dim = 64;
  options.train.epochs = 14;
  options.train.oversample_factor = 2.5;
  options.pairs.num_positive = 200;
  options.pairs.num_negative = 300;
  core::TrainedDetector detector(options);
  std::printf("training the public detector model (offline stage)...\n\n");
  detector.TrainOffline();

  // A house with the benign deployment plus the smoke-unlock / night-lock
  // pair (the settings 8/9 action conflict, latent until smoke).
  auto deployed = testbed::ScenarioGenerator::BenignDeployment();
  {
    rules::Rule smoke_unlock;
    smoke_unlock.id = 100;
    smoke_unlock.platform = rules::Platform::kSmartThings;
    smoke_unlock.trigger.device = rules::DeviceType::kSmokeAlarm;
    smoke_unlock.trigger.channel = rules::Channel::kSmoke;
    smoke_unlock.trigger.cmp = rules::Comparator::kEquals;
    smoke_unlock.trigger.state = "beeping";
    smoke_unlock.actions.push_back(
        {rules::DeviceType::kLock, rules::Command::kUnlock, 0});
    smoke_unlock.text = "If smoke is detected, unlock the door.";
    deployed.push_back(smoke_unlock);

    rules::Rule night_lock;
    night_lock.id = 101;
    night_lock.platform = rules::Platform::kAlexa;
    night_lock.trigger.channel = rules::Channel::kTime;
    night_lock.trigger.cmp = rules::Comparator::kEquals;
    night_lock.trigger.has_time = true;
    night_lock.trigger.hour_lo = 22;
    night_lock.trigger.hour_hi = 22;
    night_lock.actions.push_back(
        {rules::DeviceType::kLock, rules::Command::kLock, 0});
    night_lock.text = "Lock the door at 10 pm every day.";
    deployed.push_back(night_lock);
  }

  // A durable serving engine: every mutation is journaled to the state dir
  // before it is applied, so a crash at any point loses at most the final
  // in-flight operation.
  char state_dir[] = "/tmp/glint_monitor_XXXXXX";
  if (mkdtemp(state_dir) == nullptr) {
    std::fprintf(stderr, "cannot create state dir\n");
    return 1;
  }
  core::ServingEngine engine(&detector);
  if (Status st = engine.Recover(state_dir); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  // Homes are addressed by a stable id: it is journaled with the home and
  // survives recovery.
  const core::HomeId h = "living-room";
  Result<int> added = engine.TryAddHome(h, deployed);
  if (!added.ok()) {
    std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
    return 1;
  }
  std::printf("deployed %d rules into home %s (journal: %s)\n\n",
              engine.home_view(added.value()).num_rules(), h.c_str(),
              state_dir);

  // The validating API turns a frontend's unknown home id into a Status
  // instead of a crash:
  graph::Event bogus;
  Status bad = engine.TryOnEvent("attic", bogus);
  std::printf("routing an event to unknown home attic: %s\n\n",
              bad.ToString().c_str());

  testbed::SmartHome::Config home_cfg;
  home_cfg.seed = 2026;
  home_cfg.start_hour = 18.0;
  testbed::SmartHome home(home_cfg, deployed);
  size_t cursor = 0;  // events already streamed into the engine

  Rng rng(7);
  const struct {
    double until_hour;
    testbed::AttackType attack;
    const char* note;
  } timeline[] = {
      {20.0, testbed::AttackType::kNone, "normal evening"},
      {21.0, testbed::AttackType::kNone, "normal evening"},
      {22.3, testbed::AttackType::kFakeEvent,
       "ATTACK: forged smoke alarm report after the 10 pm lock"},
      {23.0, testbed::AttackType::kNone, "post-attack"},
  };

  for (const auto& step : timeline) {
    home.Simulate(step.until_hour - home.now());
    if (step.attack != testbed::AttackType::kNone) {
      testbed::ApplyAttack(step.attack, &home, &rng);
    }
    std::printf("---- %s (t = %.1f h) ----\n", step.note, home.now());

    // Show the tail of the event log (Fig. 3b).
    auto lines = home.log().Render();
    const size_t start = lines.size() > 5 ? lines.size() - 5 : 0;
    for (size_t i = start; i < lines.size(); ++i) {
      std::printf("  %s\n", lines[i].c_str());
    }

    // Stream the new events, then inspect incrementally (Fig. 3a/3c).
    const auto& events = home.log().events();
    for (; cursor < events.size(); ++cursor) {
      if (Status st = engine.TryOnEvent(h, events[cursor]); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
    auto warning = engine.TryInspect(h, home.now());
    if (!warning.ok()) {
      std::fprintf(stderr, "%s\n", warning.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", warning.value().Render().c_str());
  }

  // Steps 7-8 of Fig. 2, the remediation: the user retires the smoke-unlock
  // rule. One O(n) delta on the live graph — no rebuild — and the threat
  // chain is gone at the next inspection.
  std::printf("---- user retires rule #100 (smoke -> unlock) ----\n");
  bool removed = false;
  if (Status st = engine.TryRemoveRule(h, 100, &removed); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto after = engine.TryInspect(h, home.now());
  if (!after.ok()) {
    std::fprintf(stderr, "%s\n", after.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", after.value().Render().c_str());

  // Simulated restart: snapshot, then recover a *fresh* engine from the
  // state dir and verify it renders the identical warning — the crash-safe
  // serving guarantee end to end.
  std::printf("---- simulated restart: recovering from %s ----\n", state_dir);
  if (Status st = engine.Snapshot(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  core::ServingEngine recovered(&detector);
  if (Status st = recovered.Recover(state_dir); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto again = recovered.TryInspect(h, home.now());
  if (!again.ok()) {
    std::fprintf(stderr, "%s\n", again.status().ToString().c_str());
    return 1;
  }
  const bool identical =
      again.value().Render() == after.value().Render();
  std::printf("recovered %zu home(s), seq=%llu; warning identical: %s\n",
              recovered.num_homes(),
              static_cast<unsigned long long>(recovered.journal_seq()),
              identical ? "yes" : "NO (bug!)");

  const auto stats = engine.AggregateStats();
  std::printf(
      "session stats: %llu inspections, %llu verdict-cache hits\n",
      static_cast<unsigned long long>(stats.inspects),
      static_cast<unsigned long long>(stats.verdict_hits));
  return identical ? 0 : 1;
}
