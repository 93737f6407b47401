#include "argus/discovery.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string_view>

#include "argus/object_station.hpp"
#include "fault/chaos.hpp"

namespace argus::core {

namespace {

const char* wire_type_name(ByteSpan wire) {
  if (wire.empty()) return "?";
  switch (static_cast<MsgType>(wire[0])) {
    case MsgType::kQue1: return "QUE1";
    case MsgType::kRes1Level1: return "RES1-L1";
    case MsgType::kRes1: return "RES1";
    case MsgType::kQue2: return "QUE2";
    case MsgType::kRes2: return "RES2";
  }
  return "?";
}

// Per-run observability context. `metrics` always points at the run-local
// registry (the single source for the report's traffic accounting);
// `tracer` is the user's, if any.
struct Shared {
  DiscoveryReport* report = nullptr;
  std::uint64_t epoch = 0;
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  // Offered counts every send attempt; the delivered counters (the ones
  // the report's messages/bytes derive from) only count copies the radio
  // let through, so a lossy run's report never claims traffic the peer
  // never saw. On a clean channel the two families are equal.
  void tally(const char* type, std::size_t size, bool delivered) {
    metrics->counter(std::string("net.msg.offered.count.") + type).inc();
    metrics->counter(std::string("net.msg.offered.bytes.") + type).inc(size);
    if (delivered) {
      metrics->counter(std::string("net.msg.count.") + type).inc();
      metrics->counter(std::string("net.msg.bytes.") + type).inc(size);
    }
  }

  /// Trace (with `b` as the event's b), send and tally one message.
  void unicast(net::Network& net, net::NodeId self, net::NodeId to,
               Bytes wire, std::uint64_t b = 0) {
    const char* type = wire_type_name(wire);
    const std::size_t size = wire.size();
    if (tracer) {
      tracer->instant(net.now(), self, std::string("tx.") + type, "net", size,
                      b);
    }
    tally(type, size, net.unicast(self, to, std::move(wire)).delivered);
  }
};

/// The simulator's object: an ObjectStation on the radio. It joins the
/// network as it is built, traces the handle.* span, charges the station's
/// modelled cost to its node and sends the reply.
class ObjectNode final : public net::SimNode, ObjectStation::Meter {
 public:
  ObjectNode(ObjectEngineConfig cfg, Shared* shared, net::Network& net,
             unsigned hops)
      : shared_(shared),
        station_(std::move(cfg), {shared->tracer, shared->metrics,
                                  net.add_node(this, hops), this}) {}

  void on_message(net::NodeId from, const Bytes& payload) override {
    obs::Tracer* const tr = shared_->tracer;
    if (tr) {
      tr->begin(net_->now(), node_id(),
                std::string("handle.") + wire_type_name(payload), "phase",
                payload.size());
    }
    ObjectStation::Step step =
        station_.step(payload, shared_->epoch, from, net_->now());
    if (step.result) {
      shared_->unicast(*net_, node_id(), from, std::move(*step.result),
                       step.level);
    }
    // The span closes when the node's modeled compute drains; its `b`
    // carries the reply level the auditor partitions faces by.
    if (tr) tr->end(net_->node_free_at(node_id()), node_id(), 0, step.level);
  }

  ObjectStation& station() { return station_; }
  ObjectEngine& engine() { return station_.engine(); }

 private:
  void charge(double ms) override {
    net_->consume_compute(node_id(), ms);
    shared_->report->object_compute_ms += ms;
  }

  Shared* shared_;
  ObjectStation station_;
};

/// The simulator's subject: SubjectRound's policy over the radio, plus
/// the tracer, modeled compute and discovery timeline.
class SubjectNode final : public net::SimNode, SubjectRound::Io {
 public:
  SubjectNode(SubjectEngineConfig cfg, Shared* shared)
      : engine_(std::move(cfg)), shared_(shared) {}

  /// Exchange i of the round is the object at node `objects[i]`.
  void configure(const RetryPolicy& policy, bool retries,
                 std::vector<net::NodeId> objects) {
    nodes_ = std::move(objects);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      exchange_of_[nodes_[i]] = i;
    }
    round_.emplace(policy, retries, nodes_.size(),
                   static_cast<SubjectRound::Io&>(*this));
    timers_.resize(nodes_.size() + 1);
  }

  void begin_round(std::size_t group_idx) {
    group_idx_ = group_idx;
    round_->begin(engine_, group_idx);
  }

  void finish_round() { round_->finish(); }

  void on_message(net::NodeId from, const Bytes& payload) override {
    obs::Tracer* const tr = shared_->tracer;
    if (tr) {
      tr->begin(net_->now(), node_id(),
                std::string("handle.") + wire_type_name(payload), "phase",
                payload.size());
    }
    const std::size_t before = engine_.discovered().size();
    auto reply = engine_.handle(payload, shared_->epoch);
    const double ms = engine_.take_consumed_ms();
    net_->consume_compute(node_id(), ms);
    shared_->report->subject_compute_ms += ms;
    if (tr && is_reject(reply.status)) {
      tr->instant(net_->now(), node_id(),
                  std::string("reject.") + status_name(reply.status), "fault",
                  payload.size(), from);
    }
    if (engine_.discovered().size() > before) {
      const auto& svc = engine_.discovered().back();
      shared_->report->timeline.push_back(DiscoveryEvent{
          svc.object_id, svc.level, svc.variant_tag,
          net_->node_free_at(node_id())});
      if (tr) {
        tr->instant(net_->now(), node_id(), "discovered", "phase",
                    static_cast<std::uint64_t>(svc.level), 0, svc.object_id);
      }
    }
    if (const auto it = exchange_of_.find(from); it != exchange_of_.end()) {
      round_->on_handled(it->second, reply);
    }
    if (reply) shared_->unicast(*net_, node_id(), from, std::move(*reply));
    if (tr) tr->end(net_->node_free_at(node_id()), node_id());
  }

  SubjectEngine& engine() { return engine_; }
  [[nodiscard]] const SubjectEngine& engine() const { return engine_; }
  [[nodiscard]] const SubjectRound& round() const { return *round_; }

 private:
  void send_que1(const Bytes& wire) override {
    if (obs::Tracer* const tr = shared_->tracer) {
      tr->instant(net_->now(), node_id(),
                  std::string("tx.") + wire_type_name(wire), "net",
                  wire.size(), group_idx_);
    }
    const auto sent = net_->broadcast(node_id(), wire);
    // A broadcast with no receivers loses nothing; count it delivered.
    shared_->tally(wire_type_name(wire), wire.size(),
                   sent.delivered || sent.drops == 0);
  }

  void resend_que2(std::size_t exchange, const Bytes& wire) override {
    shared_->unicast(*net_, node_id(), nodes_[exchange], wire);
  }

  void arm_timer(std::size_t slot, double delay_ms) override {
    timers_[slot] = net_->sim().schedule_timer(
        delay_ms, [this, slot] { round_->on_timer(slot); });
  }

  void cancel_timer(std::size_t slot) override {
    net_->sim().cancel_timer(timers_[slot]);  // fired or unarmed: no-op
  }

  SubjectEngine engine_;
  Shared* shared_;
  std::optional<SubjectRound> round_;
  std::size_t group_idx_ = 0;
  std::vector<net::NodeId> nodes_;  // exchange index -> object node
  std::map<net::NodeId, std::size_t> exchange_of_;
  std::vector<net::TimerId> timers_;  // per SubjectRound timer slot
};

/// The flooding adversary: a network node that sprays the object fleet
/// with protocol-shaped traffic at a fixed rate (round-robin across the
/// targets so every object feels the load). It ignores every reply — a
/// flooder never completes a handshake; the point is to burn the victims'
/// admission budget and queue slots, not to talk to them.
class FlooderNode final : public net::SimNode {
 public:
  FlooderNode(const FloodSpec& spec, std::vector<net::NodeId> targets,
              Shared* shared)
      : spec_(spec),
        targets_(std::move(targets)),
        shared_(shared),
        rng_(crypto::make_rng(spec.seed, "flooder")) {}

  void start() {
    if (!spec_.armed() || targets_.empty()) return;
    net_->sim().schedule_at(spec_.start_ms, [this] { tick(); });
  }

  void on_message(net::NodeId, const Bytes&) override {}  // replies ignored

 private:
  void tick() {
    const double now = net_->now();
    if (spec_.duration_ms >= 0 && now >= spec_.start_ms + spec_.duration_ms) {
      return;
    }
    Bytes payload = make_payload();
    const net::NodeId target = targets_[next_target_++ % targets_.size()];
    const std::size_t size = payload.size();
    if (obs::Tracer* const tr = shared_->tracer) {
      tr->instant(now, node_id(), "tx.FLOOD", "attack", size, target);
    }
    const auto out = net_->unicast(node_id(), target, std::move(payload));
    shared_->tally("FLOOD", size, out.delivered);
    net_->sim().schedule(1000.0 / spec_.rate_per_s, [this] { tick(); });
  }

  Bytes make_payload() {
    switch (spec_.kind) {
      case FloodSpec::Kind::kQue1Storm:
        // Fresh nonce each tick: every one reads as a brand-new exchange.
        return encode(Message{Que1{rng_.generate(kNonceSize)}});
      case FloodSpec::Kind::kGarbageQue2: {
        Bytes junk = rng_.generate(64 + (rng_.generate(1)[0] % 128));
        junk[0] = static_cast<std::uint8_t>(MsgType::kQue2);
        return junk;
      }
      case FloodSpec::Kind::kReplay:
        return spec_.replay_wire;
    }
    return {};
  }

  FloodSpec spec_;
  std::vector<net::NodeId> targets_;
  Shared* shared_;
  crypto::HmacDrbg rng_;
  std::size_t next_target_ = 0;
};

}  // namespace

std::size_t DiscoveryReport::count_level(int level) const {
  return static_cast<std::size_t>(
      std::count_if(services.begin(), services.end(),
                    [&](const DiscoveredService& s) { return s.level == level; }));
}

/// Everything run_discovery used to hold on its stack, kept alive so the
/// testbed can reach between rounds. Construction order (and therefore
/// every node id, tracer event, and DRBG draw) is exactly the historical
/// run_discovery sequence — golden digests depend on it.
struct DiscoveryTestbed::Impl {
  DiscoveryScenario scenario;
  net::Simulator sim;
  net::Network net;
  DiscoveryReport report;
  // Message tallies always land in a run-local registry (the report is
  // derived from it in finalize); a user-supplied registry receives a
  // copy at the end so cross-run accumulation never skews this report.
  obs::MetricsRegistry local_metrics;
  Shared shared;
  std::optional<SubjectNode> subject;  // optional: nodes must never move
  std::vector<std::unique_ptr<ObjectNode>> objects;
  std::vector<net::NodeId> object_ids;
  std::optional<FlooderNode> flooder;
  bool flooded = false;
  bool faulted = false;
  bool retries = false;
  std::optional<fault::ChaosScheduler> chaos;
  /// Per-object sealed snapshot captured at crash time; consulted by the
  /// reboot hook under RebootPolicy::kFromSnapshot.
  std::vector<Bytes> crash_snapshots;
  std::size_t rounds = 1;

  explicit Impl(const DiscoveryScenario& s)
      : scenario(s),
        net(sim, scenario.radio, scenario.seed),
        shared{&report, scenario.epoch, scenario.tracer, &local_metrics} {
    sim.set_tracer(scenario.tracer);
    net.set_tracer(scenario.tracer);
    net.set_metrics(scenario.metrics);

    subject.emplace(subject_config(scenario), &shared);
    net.add_node(&*subject, 0);
    if (scenario.tracer) {
      scenario.tracer->instant(sim.now(), subject->node_id(), "node", "meta",
                               0, 0, scenario.subject.id);
    }

    objects.reserve(scenario.objects.size());
    object_ids.reserve(scenario.objects.size());
    for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
      objects.push_back(std::make_unique<ObjectNode>(
          object_config(scenario, i), &shared, net,
          std::max(1u, scenario.objects[i].hops)));
      const net::NodeId id = objects.back()->node_id();
      object_ids.push_back(id);
      if (scenario.tracer) {
        scenario.tracer->instant(
            sim.now(), id, "node", "meta",
            static_cast<std::uint64_t>(scenario.objects[i].creds.level),
            scenario.objects[i].hops, scenario.objects[i].creds.id);
      }
    }
    crash_snapshots.resize(scenario.objects.size());

    // Flooding adversary: one extra node spraying the object fleet.
    // Unarmed specs add no node and schedule nothing.
    flooded = scenario.flood.armed();
    if (flooded) {
      flooder.emplace(scenario.flood, object_ids, &shared);
      const net::NodeId fid =
          net.add_node(&*flooder, std::max(1u, scenario.flood.hops));
      if (scenario.tracer) {
        scenario.tracer->instant(sim.now(), fid, "node", "meta", 0,
                                 scenario.flood.hops, "flooder");
      }
      flooder->start();
    }

    // Retries default to kAuto: armed only when the radio can actually
    // lose or duplicate frames, a fault plan is live, or a flooder is
    // spraying (shed traffic needs the backoff driver — and the round
    // deadline — to recover), so a lossless fault-free run never
    // schedules a timer and its event sequence (and therefore every
    // derived number) is unchanged.
    faulted = scenario.faults.armed();
    const bool lossy =
        scenario.radio.drop_prob > 0.0 || scenario.radio.dup_prob > 0.0;
    retries = scenario.retry.mode == RetryMode::kOn ||
              (scenario.retry.mode == RetryMode::kAuto &&
               (lossy || faulted || flooded));
    subject->configure(scenario.retry, retries, object_ids);

    // Chaos layer: translate the plan's timeline into node/engine faults.
    // An unarmed plan schedules nothing (arm() below is skipped), so this
    // block adds zero events to fault-free runs.
    fault::ChaosHooks hooks;
    hooks.crash = [this](std::size_t i) {
      net.set_node_up(object_ids[i], false);
      note(i, "fault.crash", "fault.crash");
      if (scenario.faults.reboot_policy ==
          fault::RebootPolicy::kFromSnapshot) {
        // Capture the sealed engine state the reboot will restore from.
        // Only under the snapshot policy: blank-reboot runs take neither
        // the counter nor the trace event, keeping their bytes intact.
        crash_snapshots[i] = objects[i]->engine().snapshot();
        note(i, "persist.snapshot", "persist.snapshot",
             crash_snapshots[i].size());
      }
    };
    hooks.reboot = [this](std::size_t i) {
      objects[i]->station().reboot();  // empty session table, fresh DRBG
      if (scenario.faults.reboot_policy ==
          fault::RebootPolicy::kFromSnapshot) {
        // Strict restore: any integrity/identity failure leaves the
        // engine blank — exactly the historical reboot — and is traced,
        // never thrown.
        const persist::RestoreError err =
            crash_snapshots[i].empty()
                ? persist::RestoreError::kIoError
                : objects[i]->engine().restore(crash_snapshots[i]);
        if (err == persist::RestoreError::kOk) {
          note(i, "persist.restore", "persist.restore",
               crash_snapshots[i].size());
        } else {
          note(i, "persist.restore_failed", "persist.restore_failed",
               static_cast<std::uint64_t>(err),
               persist::restore_error_name(err));
        }
        crash_snapshots[i].clear();
      }
      net.set_node_up(object_ids[i], true);
      note(i, "fault.reboot", "fault.reboot");
    };
    hooks.straggle_begin = [this](std::size_t i, double factor) {
      net.set_compute_factor(object_ids[i], factor);
      note(i, "fault.straggle", "fault.straggle.begin",
           static_cast<std::uint64_t>(factor));
    };
    hooks.straggle_end = [this](std::size_t i) {
      net.set_compute_factor(object_ids[i], 1.0);
      note(i, nullptr, "fault.straggle.end");
    };
    hooks.zombie = [this](std::size_t i) {
      objects[i]->station().make_zombie();
      note(i, "fault.zombie", "fault.zombie");
    };
    hooks.byzantine = [this](std::size_t i, fault::ByzantineMode mode,
                             std::uint64_t seed) {
      objects[i]->station().arm_byzantine(mode, seed);
      note(i, "fault.byzantine", "fault.byzantine",
           static_cast<std::uint64_t>(mode));
    };
    chaos.emplace(sim, std::move(hooks));
    if (faulted) chaos->arm(scenario.faults, scenario.objects.size());

    rounds = std::min<std::size_t>(std::max<std::size_t>(1, scenario.rounds),
                                   subject->engine().group_key_count());
  }

  /// A chaos or persistence event on object i: bump `counter` (if any)
  /// and trace `event`, whose category is its first dotted component.
  void note(std::size_t i, const char* counter, std::string event,
            std::uint64_t a = 0, std::string arg = {}) {
    if (counter != nullptr) shared.metrics->counter(counter).inc();
    if (scenario.tracer) {
      std::string cat = event.substr(0, event.find('.'));
      scenario.tracer->instant(sim.now(), object_ids[i], std::move(event),
                               std::move(cat), a, 0, std::move(arg));
    }
  }

  void run_round(std::size_t group_idx) {
    const std::size_t idx = group_idx % subject->engine().group_key_count();
    sim.schedule(0, [this, idx] { subject->begin_round(idx); });
    if (retries || flooded) {
      // Bounded round: the deadline guarantees termination even if every
      // retransmission is lost (or a flooder's tick chain never ends);
      // pending (cancelled) retry timers past the deadline are discarded
      // by finish_round below.
      sim.drain_until(sim.now() + scenario.retry.round_deadline_ms);
    } else {
      sim.run();
    }
    subject->finish_round();
    report.que1_retransmits += subject->round().que1_retransmits();
    report.que2_retransmits += subject->round().que2_retransmits();
  }

  Bytes fleet_bundle() const {
    persist::BundleEntries entries;
    entries.emplace_back("subject", subject->engine().snapshot());
    for (const auto& obj : objects) {
      entries.push_back(obj->station().bundle_entry());
    }
    return persist::seal_bundle(entries);
  }

  DiscoveryReport finalize();
};

DiscoveryReport DiscoveryTestbed::Impl::finalize() {
  report.services = subject->engine().discovered();
  // Traffic accounting: totals and the per-type split both derive from
  // the same counters, so they cannot disagree (hop_bytes and channel
  // occupancy remain radio-model quantities).
  report.net_stats = net.stats();
  report.net_stats.messages = 0;
  report.net_stats.bytes = 0;
  constexpr std::string_view kCountPrefix = "net.msg.count.";
  constexpr std::string_view kBytesPrefix = "net.msg.bytes.";
  constexpr std::string_view kOfferedCountPrefix = "net.msg.offered.count.";
  constexpr std::string_view kOfferedBytesPrefix = "net.msg.offered.bytes.";
  for (const auto& [name, counter] : local_metrics.counters()) {
    if (name.starts_with(kOfferedBytesPrefix)) {
      report.offered_bytes += counter.value();
    } else if (name.starts_with(kOfferedCountPrefix)) {
      report.offered_messages += counter.value();
    } else if (name.starts_with(kBytesPrefix)) {
      report.bytes_by_msg[name.substr(kBytesPrefix.size())] = counter.value();
      report.net_stats.bytes += counter.value();
    } else if (name.starts_with(kCountPrefix)) {
      report.net_stats.messages += counter.value();
    }
  }
  if (scenario.metrics != nullptr) {
    for (const auto& [name, counter] : local_metrics.counters()) {
      scenario.metrics->counter(name).inc(counter.value());
    }
  }

  // Receiver-side delivery ratio: copies the radio let through over copies
  // it was asked to carry. 1.0 on a clean channel (or an empty run).
  const std::uint64_t attempted =
      report.net_stats.deliveries + report.net_stats.dropped;
  report.delivery_ratio =
      attempted == 0 ? 1.0
                     : static_cast<double>(report.net_stats.deliveries) /
                           static_cast<double>(attempted);

  // Chaos accounting for the report (stripped "fault." prefix).
  constexpr std::string_view kFaultPrefix = "fault.";
  for (const auto& [name, counter] : local_metrics.counters()) {
    if (name.starts_with(kFaultPrefix)) {
      report.fault_counts[name.substr(kFaultPrefix.size())] = counter.value();
    }
  }

  // Overload accounting: admission sheds summed over the object fleet
  // (zero, and untouched, unless admission control was enabled).
  for (const auto& obj : objects) {
    report.shed_overload += obj->engine().stats().shed_overload;
    report.rate_limited += obj->engine().stats().rate_limited;
  }

  // Graceful degradation: one verdict per scenario object, in input order.
  // "Discovered" means any variant of the object landed in any round; the
  // retransmit count is the cumulative timer-driven QUE2 resends to it.
  // Failure reasons are attributed only in faulted runs — fault-free
  // reports stay byte-identical to pre-fault builds.
  for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
    ObjectOutcome out;
    out.object_id = scenario.objects[i].creds.id;
    for (const auto& svc : report.services) {
      if (svc.object_id == out.object_id) {
        out.discovered = true;
        break;
      }
    }
    const SubjectRound::Exchange& ex = subject->round().exchanges()[i];
    out.que2_retransmits = ex.retransmits;
    out.rejects = ex.rejects;
    const bool timed_out = ex.phase == SubjectRound::Phase::kTimedOut;
    if ((faulted || flooded) && !out.discovered) {
      using fault::FaultKind;
      // Byzantine corruption can surface on either side: the subject
      // rejects the corrupted reply outright, or it accepts bytes whose
      // damage only breaks the handshake transcript — in which case the
      // *object* rejects every follow-up QUE2 bound to the corrupted
      // echo. Both count as detection.
      const bool rejected_by_peer = objects[i]->engine().stats().rejects > 0;
      const auto& ostats = objects[i]->engine().stats();
      if (chaos->ever(i, FaultKind::kCrash)) {
        out.reason = FailReason::kCrashed;
      } else if (chaos->ever(i, FaultKind::kByzantine) &&
                 (out.rejects > 0 || rejected_by_peer)) {
        out.reason = FailReason::kByzantineDetected;
      } else if (out.rejects > 0) {
        out.reason = FailReason::kRejectedMalformed;
      } else if (ostats.shed_overload + ostats.rate_limited > 0) {
        // The object was actively shedding; the subject's traffic was
        // (at least partly) load it refused, not loss.
        out.reason = FailReason::kOverloaded;
      } else if (timed_out || chaos->ever(i, FaultKind::kZombie)) {
        out.reason = FailReason::kTimedOut;
      } else {
        out.reason = FailReason::kSilent;
      }
    }
    report.outcomes.push_back(std::move(out));
  }

  for (const auto& ev : report.timeline) {
    report.total_ms = std::max(report.total_ms, ev.at_ms);
  }
  if (report.timeline.empty()) {
    // Nothing discovered (silent-by-policy fleet or total loss): report how
    // long the run actually took instead of a misleading zero.
    report.total_ms = sim.now();
  }

  // Optional state dump, strictly after the report is built: snapshots
  // read engine state without mutating it and tally nothing, so runs
  // with and without a snapshot_path stay byte-identical.
  if (!scenario.snapshot_path.empty()) {
    (void)persist::write_snapshot_file(scenario.snapshot_path, fleet_bundle());
  }
  return report;
}

DiscoveryTestbed::DiscoveryTestbed(const DiscoveryScenario& scenario)
    : impl_(std::make_unique<Impl>(scenario)) {}
DiscoveryTestbed::~DiscoveryTestbed() = default;

std::size_t DiscoveryTestbed::planned_rounds() const { return impl_->rounds; }

void DiscoveryTestbed::run_round(std::size_t group_idx) {
  impl_->run_round(group_idx);
}

DiscoveryReport DiscoveryTestbed::finalize() { return impl_->finalize(); }

double DiscoveryTestbed::now() const { return impl_->sim.now(); }

std::size_t DiscoveryTestbed::object_count() const {
  return impl_->objects.size();
}

DiscoveryTestbed::FleetGauges DiscoveryTestbed::gauges() const {
  FleetGauges g;
  for (const auto& obj : impl_->objects) {
    const ObjectEngine& e = obj->engine();
    g.object_sessions += e.open_sessions();
    g.object_cached_replies += e.cached_replies();
    g.object_resume_entries += e.resume_entries();
    g.object_replay_entries += e.replay_entries();
    g.object_peer_buckets += e.peer_bucket_count();
  }
  const SubjectEngine& s = impl_->subject->engine();
  g.subject_sessions = s.open_sessions();
  g.subject_resume_entries = s.resume_entries();
  g.timeline_events = impl_->report.timeline.size();
  g.sim_pending = impl_->sim.pending();
  g.metrics_counters = impl_->local_metrics.counters().size();
  g.metrics_histograms = impl_->local_metrics.histograms().size();
  if (impl_->scenario.metrics != nullptr) {
    g.metrics_counters += impl_->scenario.metrics->counters().size();
    g.metrics_histograms += impl_->scenario.metrics->histograms().size();
  }
  return g;
}

Bytes DiscoveryTestbed::snapshot_object(std::size_t index) const {
  return impl_->objects.at(index)->engine().snapshot();
}

persist::RestoreError DiscoveryTestbed::restore_object(std::size_t index,
                                                       ByteSpan sealed) {
  return impl_->objects.at(index)->engine().restore(sealed);
}

Bytes DiscoveryTestbed::snapshot_subject() const {
  return impl_->subject->engine().snapshot();
}

persist::RestoreError DiscoveryTestbed::restore_subject(ByteSpan sealed) {
  return impl_->subject->engine().restore(sealed);
}

Bytes DiscoveryTestbed::fleet_bundle() const { return impl_->fleet_bundle(); }

void DiscoveryTestbed::rearm_faults(const fault::FaultPlan& plan) {
  if (!plan.armed()) return;
  impl_->faulted = true;
  impl_->chaos->arm(plan, impl_->objects.size(), impl_->sim.now());
}

void DiscoveryTestbed::reset_window() {
  impl_->report.timeline.clear();
  impl_->report.timeline.shrink_to_fit();
}

ObjectEngineConfig object_config(const DiscoveryScenario& scenario,
                                 std::size_t i) {
  return {.version = scenario.version,
          .creds = scenario.objects.at(i).creds,
          .admin_pub = scenario.admin_pub,
          .strength = scenario.strength,
          .seed = scenario.seed + 1000 + i,
          .compute = scenario.object_compute,
          .pad_res2 = scenario.pad_res2,
          .equalize_timing = scenario.equalize_timing,
          .replay_window = scenario.replay_window,
          .admission = scenario.admission,
          .metrics = scenario.metrics};
}

SubjectEngineConfig subject_config(const DiscoveryScenario& scenario) {
  return {.version = scenario.version,
          .creds = scenario.subject,
          .admin_pub = scenario.admin_pub,
          .strength = scenario.strength,
          .seed = scenario.seed,
          .compute = scenario.subject_compute,
          .seek_level3 = scenario.seek_level3,
          .metrics = scenario.metrics};
}

DiscoveryReport run_discovery(const DiscoveryScenario& scenario) {
  DiscoveryTestbed testbed(scenario);
  const std::size_t rounds = testbed.planned_rounds();
  for (std::size_t round = 0; round < rounds; ++round) {
    testbed.run_round(round);
  }
  return testbed.finalize();
}

}  // namespace argus::core
