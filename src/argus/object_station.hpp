// Object side of one Argus node, shared by the simulator's ObjectNode
// (argus/discovery.cpp) and argusd's ObjectHost (transport/host.hpp).
//
// A station owns the ObjectEngine (rebuilt from its own config on
// reboot) and the faults the chaos layer arms: a Byzantine reply mutator
// and the silent-drop zombie flag. step() is the whole per-frame job; the
// owner keeps the I/O (framing, its own spans, sending the reply). The
// station also owns the fleet-bundle format: one "object:<id>" section
// per engine, restored blank-or-exact.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "argus/object_engine.hpp"
#include "fault/byzantine.hpp"
#include "obs/trace.hpp"

namespace argus::core {

/// Fleet-bundle section name of an object engine: "object:<id>".
[[nodiscard]] std::string object_section(std::string_view object_id);

class ObjectStation {
 public:
  /// The owner's compute model: charge() runs after the engine and before
  /// the step's instants, so a simulated node's compute span precedes them.
  class Meter {
   public:
    virtual ~Meter() = default;
    virtual void charge(double ms) = 0;
  };

  /// All optional. `node` is the trace lane of the step's instants.
  struct Sinks {
    obs::Tracer* tracer = nullptr;
    obs::MetricsRegistry* metrics = nullptr;  // fault.zombie_suppressed
    std::uint32_t node = 0;
    Meter* meter = nullptr;  // null: the modelled cost is dropped
  };

  struct Step {
    HandleResult result;  // the reply as sent, after any fault
    std::uint64_t level = 0;  // RES2: 3 if a fellow was confirmed, else 2
  };

  ObjectStation(ObjectEngineConfig cfg, Sinks sinks);

  /// Advance the engine clock to `now`, handle the frame, mutate or
  /// suppress the reply, charge its cost, and trace the reject.*,
  /// shed.* and drop.zombie instants.
  Step step(ByteSpan payload, std::uint64_t epoch, std::uint64_t peer,
            double now);

  /// A fresh engine (empty tables, reset DRBG) and a disarmed mutator.
  /// A zombie stays a zombie.
  void reboot();
  void make_zombie() { zombie_ = true; }
  void arm_byzantine(fault::ByzantineMode mode, std::uint64_t seed) {
    mutator_.arm(mode, seed);
  }

  ObjectEngine& engine() { return *engine_; }
  [[nodiscard]] const ObjectEngine& engine() const { return *engine_; }

  /// This engine's fleet-bundle section: its name and sealed snapshot.
  [[nodiscard]] persist::BundleEntries::value_type bundle_entry() const;
  /// Restore from this engine's section, ignoring all others. False if
  /// it is missing (engine untouched) or refused (engine left blank).
  bool restore_from(const persist::BundleEntries& sections);

 private:
  Sinks sinks_;
  std::optional<ObjectEngine> engine_;
  fault::ByzantineMutator mutator_;
  bool zombie_ = false;
};

}  // namespace argus::core
